"""Experiment orchestration: configs, parallel ensemble drivers, reports.

_probes is the one statement of a run's engine reads, each probe with its
window, times, engine mode and transform.  run() makes one engine pass per
probe and hands each driver the rows to reduce; validate() checks the cells
each probe reads against the scheme's rules (enough cells, the noise cone,
the read radius, truncation), and run() reports the slack of the same pass
(_probe_regime) as regime fields.

Replicates are the unit of parallel work.  Worker processes receive fixed
chunks of replicate ids (the chunking depends only on the replicate count,
never on the worker count), every record a worker returns is a pure function
of (config, master_seed, replicate id), and chunks are concatenated in id
order.  Estimates and CSV bodies are therefore byte-identical across any worker
layout.  Only the clt driver reads calibration_replicates: its calibration
pass uses the id range [replicates, replicates + calibration_replicates),
disjoint from the estimation set.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__ as _VERSION
from .kernels import log_heat_kernel
from .green import shift_identity_samples, shift_window_cut
from .oracles import (continuum_first_chaos, lattice_first_chaos,
                      lattice_first_chaos_covariance, lemma_2, lemma_s0,
                      lemma_twotime, lemma_y, limiting_constant,
                      reduced_cov_integral, second_moment_volterra)
from .sim import (GridSpec, _BatchEngine, default_grid, discrete_kernel_log,
                  heat_step_weights, log_residual, read_radius, tilted_variance_ratio)
from .stats import (KS_MIN_SAMPLES, CovarianceAccumulator, ks_normality,
                    fdd_covariance, mean_se, spatial_averages)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "RunReport",
    "FitDecayResult",
    "run",
    "fit_decay",
    "write_csv",
    "CSV_SCHEMA_VERSION",
]

CSV_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1

_CHUNK = 64

# acceptance bands mirrored into run-report verdicts
BAND_XCOV = (0.6, 1.4)
BAND_EXPONENT = (0.7, 1.3)
BAND_CONSTANT = (0.6, 1.4)
BAND_VAR_RATIO = (0.55, 1.45)
BAND_FDD_RATIO = (0.5, 1.5)
BAND_HOLDER = (0.2, 0.3)
KS_SIGNIFICANCE = 1e-3

# diagnostics second-moment probe; volterra_levels is accepted and sets nothing
_GBAR_PROBE_DEFAULTS = {"t": 0.5, "x": 0.0, "k": 2, "volterra_levels": 96}

# fields whose type validate() checks before any rule reads them
_SCALAR_FIELDS = ("dx", "half_width", "first_moment_xmax")
_OPTIONAL_SCALAR_FIELDS = ("dt", "shift_s")
_LIST_FIELDS = ("times", "lags", "n_values", "holder_s_values")

# covariance stationarity check: KS pairs among the quintile points
# q0..q4 of the bulk window, as (i, j) for (q_i, q_j)
_STATIONARITY_PAIRS = ((0, 2), (2, 4), (1, 3), (0, 4), (1, 2), (2, 3), (0, 1),
                       (3, 4), (0, 3), (1, 4))

# oracle suite: N ladder of the lemma integrals, ascending
_ORACLE_N_LADDER = (1e2, 1e3, 1e4)


class ConfigError(ValueError):
    """Raised with the full list of violated invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid experiment config:\n  - " + "\n  - ".join(self.violations))


@dataclass
class ExperimentConfig:
    kind: str
    master_seed: int = 0
    workers: int = 1
    out_dir: str | None = None
    # grid
    dx: float = 0.1
    half_width: float = 20.0
    dt: float | None = None          # default dx^2/2 (sim.default_grid)
    # ensemble
    replicates: int = 100
    calibration_replicates: int = 20  # read by clt only; validated for every kind
    times: list = field(default_factory=lambda: [1.0])
    # covariance
    lags: list = field(default_factory=list)
    bulk_window: list | None = None
    fit_window: list | None = None
    # clt / fdd
    n_values: list = field(default_factory=list)
    # shift check
    shift_s: float | None = None
    shift_probes: list = field(default_factory=list)
    # diagnostics
    first_moment_xmax: float = 6.0
    holder_s_values: list = field(default_factory=list)
    gbar_probe: dict = field(default_factory=dict)

    def grid(self) -> GridSpec:
        if self.dt is None:
            return default_grid(self.dx, self.half_width)
        return GridSpec(dx=self.dx, half_width=self.half_width, dt=self.dt)

    # -- validation ----------------------------------------------------------

    def validate(self):
        bad = self._type_violations()
        if bad:
            raise ConfigError(bad)
        if self.kind not in KINDS:
            bad.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not _is_integer(self.master_seed):
            bad.append("master_seed must be an integer")
        elif not 0 <= self.master_seed < 2 ** 64:
            bad.append("master_seed must fit in 64 bits")
        if not _is_integer(self.workers):
            bad.append("workers must be an integer")
        elif self.workers < 1:
            bad.append("workers must be >= 1")
        grid = None
        try:
            grid = self.grid()
        except ValueError as e:
            bad.append(f"grid: {e}")
        if self.kind == "oracle_suite":
            if bad:
                raise ConfigError(bad)
            return
        if not _is_integer(self.replicates):
            bad.append("replicates must be an integer")
        elif self.replicates < 2:
            bad.append("replicates must be >= 2")
        if not _is_integer(self.calibration_replicates):
            bad.append("calibration_replicates must be an integer")
        elif self.calibration_replicates < 1:
            bad.append("calibration_replicates must be >= 1")
        if not self.times or sorted(self.times) != list(self.times):
            bad.append("times must be a nonempty ascending list")
        if self.kind != "fdd" and len(self.times) > 1:
            bad.append(f"{self.kind} reads one time; times holds {len(self.times)}")
        if grid is None or not self.times:
            raise ConfigError(bad)
        # the probe rules run when every field the probes read passed its own
        time_bad = _time_violations(grid, "time", self.times)
        bad += time_bad
        reads_ok = not time_bad
        t = self.times[-1]
        if self.kind == "covariance":
            if not self.lags:
                bad.append("covariance needs a nonempty lag list")
            bulk_bad = _window_violations("bulk_window", self.bulk_window)
            fit_bad = _window_violations("fit_window", self.fit_window or None)
            bad += bulk_bad + fit_bad
            reads_ok &= not bulk_bad
            cells = [] if bulk_bad else grid.window(*_probes(self, grid)[0][1:3])
            bad += _same_cell_violations(grid, "lags", self.lags)
            for lag in self.lags:
                if lag < 0 or abs(round(lag / grid.dx) * grid.dx - lag) > 1e-9 * max(1, lag):
                    bad.append(f"lag {lag} not on the dx lattice")
                # CovarianceAccumulator.finalize pairs cells round(lag/dx) apart
                if 0 < len(cells) <= round(lag / grid.dx):
                    bad.append(f"lag {lag} exceeds the span {(cells[-1] - cells[0]) * grid.dx:g}"
                               " of the bulk_window cells")
            if self.fit_window and not fit_bad:
                f_lo, f_hi = self.fit_window
                n_fit = sum(0 < lag and f_lo - 1e-9 <= lag <= f_hi + 1e-9
                            for lag in self.lags)
                if n_fit < 3:
                    bad.append(f"fit_window {self.fit_window} holds {n_fit} "
                               "positive lags; the decay fit needs 3")
        elif self.kind in ("clt", "fdd"):
            if not self.n_values:
                bad.append(f"{self.kind} needs a nonempty n_values list")
                reads_ok = False
            if any(N < 3 for N in self.n_values):
                bad.append("every N must be >= 3 (log N > 1)")
            bad += _lattice_violations(grid, "n_values", self.n_values)
            bad += _same_cell_violations(grid, "n_values", self.n_values)
            if self.kind == "fdd" and len(self.times) != 2:
                bad.append("fdd needs exactly two times")
            if self.kind == "fdd" and len(self.n_values) > 1:
                bad.append(f"fdd reads one N; n_values holds {len(self.n_values)}")
            if self.kind == "fdd" and _is_integer(self.replicates) and self.replicates < 3:
                bad.append("fdd needs replicates >= 3, the fewest pairs "
                           "its jackknife SE takes")
            if (self.kind == "clt" and _is_integer(self.replicates)
                    and self.replicates < KS_MIN_SAMPLES):
                bad.append(f"clt needs replicates >= {KS_MIN_SAMPLES}, the "
                           "fewest samples its KS normality test accepts")
        elif self.kind == "shift_check":
            probes = [_number_pair(p) for p in self.shift_probes]
            bad += [f"shift_probes: {p!r} must be a list of two numbers [x, y]"
                    for p, q in zip(self.shift_probes, probes) if q is None]
            s_bad = ["shift_check needs shift_s and shift_probes"]
            if self.shift_s is not None and self.shift_probes:
                s_bad = (["need 0 < shift_s < t"] if not 0 < self.shift_s < t
                         else _time_violations(grid, "shift_s", [self.shift_s]))
            bad += s_bad
            pairs = list(filter(None, probes))
            for x, y in pairs:
                name = f"shift_probes ({x:g}, {y:g})"
                off = _lattice_violations(grid, "shift_probes", [x, y])
                # an off-lattice time is reported once, by the time rule above
                cut = (None if s_bad or off or time_bad
                       else shift_window_cut(grid, t, self.shift_s, x, y))
                bad += off + ([f"{name}: {cut}"] if cut else [])
            # two probes on one cell pair would write one extras key for two verdicts
            bad += _repeat_violations(
                "shift_probes", [f"({x:g}, {y:g})" for x, y in pairs],
                [(round(x / grid.dx), round(y / grid.dx)) for x, y in pairs], "cell pair")
        elif self.kind == "diagnostics":
            # the probe rules refuse a negative first_moment_xmax (an empty
            # window); the holder and gbar probes read the fields below
            read_bad = _time_violations(grid, "holder_s_values", self.holder_s_values)
            steps = [] if read_bad else [grid.step_of(s) for s in self.holder_s_values]
            if len(set(steps)) == 1:
                bad.append("holder_s_values needs 2 distinct times for the "
                           "exponent fit")
            else:
                # a repeated step writes a second holder_l2 row, which the
                # exponent fit counts twice
                bad += _repeat_violations("holder_s_values",
                                          [f"{s:g}" for s in self.holder_s_values],
                                          steps, "dt step")
            if self.gbar_probe:
                bad += [f"gbar_probe: unknown key {key!r}; the keys are "
                        f"{', '.join(_GBAR_PROBE_DEFAULTS)}"
                        for key in self.gbar_probe if key not in _GBAR_PROBE_DEFAULTS]
                probe = {**_GBAR_PROBE_DEFAULTS, **self.gbar_probe}
                read_bad += (_time_violations(grid, "gbar_probe.t", [probe["t"]])
                             + _lattice_violations(grid, "gbar_probe.x", [probe["x"]]))
                if probe["k"] != 2:
                    bad.append("gbar_probe.k must be 2, the only moment "
                               "order with an oracle")
            bad += read_bad
            reads_ok &= not read_bad
        if reads_ok:
            bad += _probe_regime(self, grid)[0]
        if bad:
            raise ConfigError(bad)

    def _type_violations(self):
        """One violation per field of the wrong type: the rules in validate()
        assume finite numbers, lists and a gbar_probe dict."""
        bad = [f"{name} must be a finite number" for name in _SCALAR_FIELDS
               if not _is_finite(getattr(self, name))]
        bad += [f"{name} must be a finite number or null"
                for name in _OPTIONAL_SCALAR_FIELDS
                if getattr(self, name) is not None
                and not _is_finite(getattr(self, name))]
        bad += [f"{name} must be a list of finite numbers" for name in _LIST_FIELDS
                if not isinstance(getattr(self, name), list)
                or not all(map(_is_finite, getattr(self, name)))]
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            bad.append("out_dir must be a string or null")
        if not isinstance(self.shift_probes, list):
            bad.append("shift_probes must be a list of [x, y] pairs")
        if not isinstance(self.gbar_probe, dict):
            bad.append("gbar_probe must be a dict of finite numbers")
        else:
            bad += [f"gbar_probe.{key} must be a finite number"
                    for key, v in self.gbar_probe.items() if not _is_finite(v)]
        return bad

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError([f"unknown config field {k!r}" for k in sorted(unknown)])
        return cls(**d)

    @classmethod
    def from_json(cls, path, kind: str) -> "ExperimentConfig":
        """A `kind` config from a JSON file, which may leave its kind out but
        may not name another one."""
        try:
            with open(path) as fh:
                d = json.load(fh)
        except OSError as e:
            raise ConfigError(
                [f"{path}: cannot read the config file: {e.strerror}"]) from None
        except json.JSONDecodeError as e:
            raise ConfigError([f"{path}: not valid JSON: {e}"]) from None
        if not isinstance(d, dict):
            raise ConfigError([f"{path}: a config file holds one JSON object"])
        if d.get("kind", kind) != kind:
            raise ConfigError([f"{path} is a {d['kind']!r} config, not {kind!r}"])
        return cls.from_dict({**d, "kind": kind})


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def _number_pair(v):
    """(a, b) as floats when v is a list or tuple of two finite numbers, else None."""
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_finite, v)):
        return float(v[0]), float(v[1])
    return None


def _window_violations(name, v):
    """One violation unless v is None or a window [lo, hi] of two numbers, lo < hi."""
    if v is None:
        return []
    pair = _number_pair(v)
    if pair is None:
        return [f"{name} must be a list of two numbers [lo, hi], got {v!r}"]
    if not pair[0] < pair[1]:
        return [f"{name} {list(v)} needs lo < hi"]
    return []


def _lattice_violations(grid, name, xs):
    """One violation per position off the dx lattice or outside the grid."""
    bad = []
    for x in xs:
        try:
            grid.index_of(float(x))
        except ValueError as e:
            bad.append(f"{name}: {e}")
    return bad


def _same_cell_violations(grid, name, xs):
    """One violation per dx cell that two values of xs fall on: the reduction
    would read that cell twice (a lag fit counts it twice, and two equal N
    make the clt trend verdict compare a value with itself)."""
    return _repeat_violations(name, [f"{x:g}" for x in xs],
                              [round(x / grid.dx) for x in xs], "dx cell")


def _repeat_violations(name, labels, cells, unit):
    """One violation per lattice cell (of `unit`) that two values fall on,
    labels[i] naming the value on cells[i]."""
    return [f"{name}: {', '.join(x for x, c in zip(labels, cells) if c == cell)} "
            f"fall on the same {unit}"
            for cell in sorted(set(cells)) if cells.count(cell) > 1]


def _probes(cfg, grid):
    """One (name, lo, hi, times, mode, transform) per engine pass, in the
    driver's order: transform(Z or log Z, t, x) of the cells lo <= x <= hi at
    each time, from the `mode` engine; name is the field that sets the window."""
    t = cfg.times[-1]
    if cfg.kind == "covariance":
        # the default bulk window keeps the truncation rule's margin
        w = grid.half_width - grid.truncation_half_width(max(cfg.times))
        lo, hi = cfg.bulk_window or (-w, w)
        return [("bulk_window", float(lo), float(hi), [t], "absolute", log_residual)]
    if cfg.kind == "clt":
        return [("n_values", 0.0, float(max(cfg.n_values)), [t], "relative",
                 _relative_residual)]
    if cfg.kind == "fdd":
        return [("n_values", 0.0, float(cfg.n_values[0]), cfg.times, "relative",
                 _relative_residual)]
    if cfg.kind != "diagnostics":
        return []
    xmax = cfg.first_moment_xmax
    probes = [("first_moment_xmax", -xmax, xmax, [t], "absolute", _gbar)]
    if cfg.holder_s_values:
        probes.append(("holder_s_values", 0.0, 0.0, cfg.holder_s_values, "absolute", _gbar))
    if cfg.gbar_probe:
        gbar = {**_GBAR_PROBE_DEFAULTS, **cfg.gbar_probe}
        px = float(gbar["x"])
        probes.append(("gbar_probe.x", px, px, [float(gbar["t"])], "absolute", _gbar))
    return probes


def _probe_regime(cfg, grid):
    """(violations, regime fields) of the probes, each window's cells taken
    once.  The rules: enough cells for the reduction; at the earliest time,
    the farthest cell inside the noise cone (Z is exactly 0 beyond taps // 2
    cells per step) and, on the absolute engine, inside sim.read_radius (the
    cells that keep the bits of the unflushed evolution); the truncation
    rule at the latest time.  The fields: underflow_margin, the least read
    radius minus |x| of the farthest cell over the absolute probes (>= 0 when
    every read keeps its bits), and tilted_variance_ratio at the relative
    probe's speed, inside the cone."""
    need = 1 if cfg.kind == "diagnostics" else 2
    half = len(heat_step_weights(grid.dx, grid.dt)) // 2
    bad, fields, margins = [], {}, []
    for name, lo, hi, times, mode, _ in _probes(cfg, grid):
        cells = grid.window(lo, hi)
        if cells.size < need:
            bad.append(f"{name}: the window [{lo:g}, {hi:g}] holds {cells.size} of "
                       f"the {need} grid cells the {cfg.kind} reduction needs")
            continue
        t0 = min(times)
        far = int(np.abs(cells - grid.origin_index).max())
        x, speed = far * grid.dx, far / grid.step_of(t0)
        if speed > half:
            bad.append(f"{name} {x:g} lies outside the noise cone "
                       f"|x| <= {half * grid.step_of(t0) * grid.dx:g} at t={t0:g}")
        elif mode == "relative":
            fields["tilted_variance_ratio"] = tilted_variance_ratio(grid, speed)
        if mode == "absolute":
            r = read_radius(grid, t0)
            margins.append(r - x)
            if x > r:
                bad.append(f"{name} {x:g} lies beyond the underflow read radius "
                           f"|x| <= {r:.3f} at t={t0:g}")
        cut = grid.truncation_cut(max(times), x)
        if cut:
            bad.append(f"{name}: {cut}")
    if margins:
        fields["underflow_margin"] = min(margins)
    return bad, fields


def _time_violations(grid, name, times):
    """One violation per time that is not a positive multiple of dt."""
    bad = []
    for t in times:
        try:
            if grid.step_of(t) <= 0:
                bad.append(f"{name}: {t} must be positive")
        except ValueError as e:
            bad.append(f"{name}: {e}")
    return bad


@dataclass
class RunReport:
    config: dict
    tables: dict
    verdicts: list
    wallclock_s: float
    replicates_per_s: float
    version: str
    schema_version: int
    extras: dict = field(default_factory=dict)

    def to_json(self, **kw) -> str:
        """The report as strict JSON: a non-finite float, such as the N = inf
        of the oracle suite's extrapolated row, is written as null."""
        return json.dumps(_finite_or_null(asdict(self)), indent=2, sort_keys=True,
                          allow_nan=False, **kw)


def _finite_or_null(node):
    """node, a tree of dicts, lists and tuples, with None for every
    non-finite float."""
    if isinstance(node, dict):
        return {key: _finite_or_null(v) for key, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_finite_or_null(v) for v in node]
    if isinstance(node, float) and not math.isfinite(node):
        return None
    return node


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_csv(path, rows) -> None:
    """rows: iterable of (series, t, lag_or_N, estimate, se, n_effective).
    A field holding a comma (a shift series name) is double-quoted."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# shelab-csv v{CSV_SCHEMA_VERSION}\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["series", "t", "lag_or_N", "estimate", "se", "n_effective"])
        for series, t, key, est, se, neff in rows:
            out.writerow([series, _fmt(t), _fmt(key), _fmt(est), _fmt(se), _fmt(neff)])


# ---------------------------------------------------------------------------
# decay fit
# ---------------------------------------------------------------------------

@dataclass
class FitDecayResult:
    constant: float          # c in cov ~ c/x
    constant_ci: float
    exponent: float          # b in cov ~ a x^-b
    exponent_ci: float
    n_used: int
    excluded: list


def _fit_lags(cov, lag_window):
    """(mask of the lags fit_decay fits, the lags of the window it drops for
    a nonpositive covariance)."""
    lo, hi = lag_window
    sel = (cov.lags >= lo - 1e-9) & (cov.lags <= hi + 1e-9) & (cov.lags > 0)
    sel &= cov.n_effective > 1
    pos = cov.cov > 0
    return sel & pos, [float(lag) for lag in cov.lags[sel & ~pos]]


def fit_decay(cov, lag_window) -> FitDecayResult:
    """Weighted log-log fit of the covariance tail.

    Free fit log cov = log a - b log x gives the exponent; the constrained
    b = 1 fit gives the constant c.  Lags with nonpositive covariance are
    excluded with a warning (possible at marginal signal-to-noise).
    """
    sel, excluded = _fit_lags(cov, lag_window)
    for lag in excluded:
        warnings.warn(f"fit_decay: dropping lag {lag} with nonpositive covariance")
    if sel.sum() < 3:
        raise ValueError("fit_decay needs at least 3 usable lags in the window")
    x = np.log(cov.lags[sel])
    y = np.log(cov.cov[sel])
    sigma = cov.se[sel] / cov.cov[sel]          # se of log cov
    wgt = 1.0 / sigma ** 2
    # free 2-parameter weighted LS
    A = np.vstack([np.ones_like(x), -x]).T
    W = np.diag(wgt)
    ata = A.T @ W @ A
    atb = A.T @ W @ y
    coef = np.linalg.solve(ata, atb)
    covm = np.linalg.inv(ata)
    b = float(coef[1])
    b_ci = 1.96 * math.sqrt(covm[1, 1])
    # constrained b = 1: log c = weighted mean of (log cov + log x)
    z = y + x
    logc = float((wgt * z).sum() / wgt.sum())
    logc_se = math.sqrt(1.0 / wgt.sum())
    c = math.exp(logc)
    return FitDecayResult(constant=c, constant_ci=1.96 * logc_se * c,
                          exponent=b, exponent_ci=b_ci,
                          n_used=int(sel.sum()), excluded=excluded)


# ---------------------------------------------------------------------------
# parallel scaffolding
# ---------------------------------------------------------------------------

def _chunk_map(cfg: ExperimentConfig, grid: GridSpec, fn, ids, *params):
    """fn(grid, chunk, *params, master seed) for each chunk of _CHUNK
    consecutive ids, results in chunk order; chunks run in at most
    min(cfg.workers, chunk count) worker processes when cfg.workers > 1."""
    ids = list(ids)
    calls = [(grid, ids[i:i + _CHUNK], *params, cfg.master_seed)
             for i in range(0, len(ids), _CHUNK)]
    if cfg.workers <= 1 or len(calls) <= 1:
        return [fn(*call) for call in calls]
    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(calls))) as ex:
        return list(ex.map(fn, *zip(*calls)))


# chunk functions and transforms are top-level functions so they pickle, by
# reference, under any start method

def _ensemble_chunk(grid, ids, steps, mode, window, transform, seed):
    """transform(block[:, window], t, x_window) per checkpoint step for one
    chunk evolved by the batch engine; window is an index array, and the
    engine computes only the cells it depends on."""
    x = grid.positions()[window]
    out = {}

    def consume(step, reps, block):
        out[step] = transform(block[:, window], step * grid.dt, x)

    _BatchEngine(grid, seed, mode=mode, window=window).run(ids, steps, consume)
    return out


def _ensemble(cfg, grid, ids, probe):
    """(row blocks, window positions) of one probe of _probes: per probe
    time, the rows of _ensemble_chunk stacked in the order of ids; the
    positions of the cells with lo <= x <= hi."""
    _, lo, hi, times, mode, transform = probe
    steps = [grid.step_of(t) for t in times]
    window = grid.window(lo, hi)
    results = _chunk_map(cfg, grid, _ensemble_chunk, ids, steps, mode, window, transform)
    return ([np.concatenate([out[k] for out in results]) for k in steps],
            grid.positions()[window])


def _relative_residual(logZ, t, x):
    """r = log Z - log p_t from relative-mode log Z, finite on the noise cone."""
    return logZ - log_heat_kernel(t, x)


def _gbar(Z, t, x):
    """Z(t, x) / p_t(x), and 0 where Z is 0 even when 1/p_t(x) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(Z == 0.0, 0.0, Z * np.exp(-log_heat_kernel(t, x)))


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _verdict(name, passed, detail):
    return {"criterion": name, "passed": bool(passed), "detail": detail}


def _run_covariance(cfg: ExperimentConfig, grid, reads):
    (_, lo, hi, (t,), _, _), (rows,), wpos = reads["bulk_window"]
    acc = CovarianceAccumulator(wpos)
    for rid, row in enumerate(rows):
        acc.add(rid, row)
    est = acc.finalize(t, cfg.lags)

    tables = {"covariance": [
        ("height_cov", t, lag, c, s, n)
        for lag, c, s, n in zip(est.lags, est.cov, est.se, est.n_effective)]}
    verdicts = []
    for lag in (4.0, 6.0, 8.0):
        if lag in set(float(l) for l in est.lags):
            i = int(np.where(est.lags == lag)[0][0])
            xc = lag * est.cov[i] / t
            verdicts.append(_verdict(
                f"x*cov/t in {BAND_XCOV} at lag {lag:g}",
                BAND_XCOV[0] <= xc <= BAND_XCOV[1],
                {"x_cov_over_t": xc, "se": lag * est.se[i] / t}))
    fitres = None
    if cfg.fit_window:
        usable, excluded = _fit_lags(est, cfg.fit_window)
        names = (f"decay exponent in {BAND_EXPONENT}",
                 f"decay constant/t in {BAND_CONSTANT}")
        if usable.sum() < 3:
            # the validator can count only the window's lags; which of them
            # have a positive covariance is known after the ensemble
            short = {"usable_lags": int(usable.sum()), "excluded": excluded}
            verdicts += [_verdict(name, False, short) for name in names]
        else:
            fitres = fit_decay(est, tuple(cfg.fit_window))
            verdicts.append(_verdict(
                names[0], BAND_EXPONENT[0] <= fitres.exponent <= BAND_EXPONENT[1],
                {"exponent": fitres.exponent, "ci": fitres.exponent_ci}))
            verdicts.append(_verdict(
                names[1], BAND_CONSTANT[0] <= fitres.constant / t <= BAND_CONSTANT[1],
                {"constant": fitres.constant, "ci": fitres.constant_ci}))
            tables["fit"] = [
                ("fit_constant", t, 1.0, fitres.constant, fitres.constant_ci / 1.96,
                 fitres.n_used),
                ("fit_exponent", t, 1.0, fitres.exponent, fitres.exponent_ci / 1.96,
                 fitres.n_used),
            ]

    # stationarity: two-sample KS across replicates at bulk position pairs.
    # The deterministic lattice mean profile log(K_k/dx) - log p_t (the
    # discrete-kernel tail correction, known exactly from the step weights
    # with no simulation) is removed first: at |x| >> sqrt(t) it exceeds the
    # KS resolution, while the law of the fluctuations around it is the
    # translation-invariant object under test.
    qs = np.linspace(lo, hi, 5)
    pairs = [(qs[i], qs[j]) for i, j in _STATIONARITY_PAIRS]
    lattice_profile = (discrete_kernel_log(grid, grid.step_of(t))[-1][grid.window(lo, hi)]
                       - math.log(grid.dx) - log_heat_kernel(t, wpos))
    vals = rows - lattice_profile[None, :]
    ok = np.isfinite(rows)
    ks_rows = []
    min_p = 1.0
    # only this test (ks_2samp) needs scipy.stats; after import shelab it costs
    # about 0.45 s and 40 MB with the scipy.optimize and scipy.linalg it loads
    # (2-vCPU VM)
    from scipy import stats as sps
    for (x1, x2) in pairs:
        i1 = int(np.argmin(np.abs(wpos - x1)))
        i2 = int(np.argmin(np.abs(wpos - x2)))
        a = vals[ok[:, i1], i1]
        b = vals[ok[:, i2], i2]
        res = sps.ks_2samp(a, b)
        min_p = min(min_p, float(res.pvalue))
        ks_rows.append((f"stationarity_ks_{x1:g}_{x2:g}", t, abs(x2 - x1),
                        float(res.statistic), 0.0, min(a.size, b.size)))
    tables["stationarity"] = ks_rows
    alpha = KS_SIGNIFICANCE / len(pairs)
    verdicts.append(_verdict(
        f"stationarity: no KS rejection at {KS_SIGNIFICANCE} (Bonferroni over {len(pairs)} pairs)",
        min_p >= alpha, {"min_p": min_p, "threshold": alpha}))
    extras = {"fit": None if fitres is None else asdict(fitres),
              "estimate": {"lags": est.lags.tolist(), "cov": est.cov.tolist(),
                           "se": est.se.tolist(), "n_effective": est.n_effective.tolist()}}
    # reported, not verdicts: the lattice and the continuum first chaos per
    # lag; null for a lag past the noise cone, where h(t, lag) = -inf
    lags = [float(lag) for lag in est.lags]
    c_lat = lattice_first_chaos_covariance(grid, t, lags)
    extras["lattice_first_chaos"] = {str(lag): None if math.isnan(c) else float(c)
                                     for lag, c in zip(lags, c_lat)}
    extras["continuum_first_chaos"] = {str(lag): reduced_cov_integral(t, lag)
                                       for lag in lags}
    return tables, verdicts, extras


def _run_clt(cfg: ExperimentConfig, grid, reads):
    n_values = [float(N) for N in cfg.n_values]
    probe, (rows,), wpos = reads["n_values"]
    (t,) = probe[3]
    # calibration pass: grand mean of the residual over the bulk, on the
    # replicate ids after the estimation set
    cal_ids = range(cfg.replicates, cfg.replicates + cfg.calibration_replicates)
    (cal_rows,), _ = _ensemble(cfg, grid, cal_ids, probe)
    m_hat = float(np.mean([r.mean() for r in cal_rows]))
    tables = {"clt": []}
    verdicts = []
    ratios = {}
    for N in n_values:
        xs = spatial_averages(rows, wpos, grid.dx, N)
        # the scalar centering shifts every sample equally; variance unchanged
        xs = xs - m_hat * N / math.sqrt(N * math.log(N))
        var = float(xs.var(ddof=1))
        ratio = var / (2.0 * t)
        se = ratio * math.sqrt(2.0 / (xs.size - 1))
        ratios[N] = (ratio, se, xs)
        tables["clt"].append(("var_ratio", t, N, ratio, se, xs.size))
    first, last = min(n_values), max(n_values)
    r0, s0, xs0 = ratios[first]
    verdicts.append(_verdict(
        f"Var[X_N]/2t in {BAND_VAR_RATIO} at N={first:g}",
        BAND_VAR_RATIO[0] <= r0 <= BAND_VAR_RATIO[1],
        {"ratio": r0, "se": s0}))
    if len(n_values) > 1:
        r1, _, _ = ratios[last]
        verdicts.append(_verdict(
            f"|Var ratio - 1| shrinks from N={first:g} to N={last:g}",
            abs(r1 - 1.0) < abs(r0 - 1.0),
            {"ratio_first": r0, "ratio_last": r1}))
    rep = ks_normality(xs0, significance=KS_SIGNIFICANCE)
    tables["clt"].append(("ks_normality_p", t, first, rep.p_value, 0.0, rep.sample_size))
    verdicts.append(_verdict(
        f"X_N Gaussianity: KS does not reject at {KS_SIGNIFICANCE}",
        not rep.reject, {"p_value": rep.p_value, "statistic": rep.statistic}))
    # reported, not verdicts: the exact continuum first chaos over 2t per N
    extras = {"m_hat": m_hat,
              "ratios": {str(N): {"ratio": ratios[N][0], "se": ratios[N][1]}
                         for N in n_values},
              "continuum_first_chaos": {
                  str(N): continuum_first_chaos(t, t, N).value / (2.0 * t)
                  for N in n_values}}
    return tables, verdicts, extras


def _run_fdd(cfg: ExperimentConfig, grid, reads):
    (_, _, N, _, _, _), rows, wpos = reads["n_values"]
    a, b = (spatial_averages(r, wpos, grid.dx, N) for r in rows)
    t1, t2 = (float(t) for t in cfg.times)
    cov, se = fdd_covariance(a, b)
    target = 2.0 * min(t1, t2)
    ratio = cov / target
    tables = {"fdd": [("fdd_cov", t1, N, cov, se, a.size),
                      ("fdd_ratio", t2, N, ratio, se / target, a.size)]}
    verdicts = [_verdict(
        f"Cov[X_N({t1:g}), X_N({t2:g})]/{target:g} in {BAND_FDD_RATIO}",
        BAND_FDD_RATIO[0] <= ratio <= BAND_FDD_RATIO[1],
        {"ratio": ratio, "se": se / target})]
    # reported, not verdicts: the continuum and the lattice first chaos
    extras = {"cov": cov, "se": se, "ratio": ratio,
              "continuum_first_chaos": continuum_first_chaos(t1, t2, N).value / target,
              "lattice_first_chaos": lattice_first_chaos(grid, (t1, t2), N)[0, 1] / target}
    return tables, verdicts, extras


def _run_shift_check(cfg: ExperimentConfig, grid, reads):
    t = cfg.times[-1]
    s = float(cfg.shift_s)
    tables = {"shift": []}
    verdicts = []
    details = {}
    for (x, y) in cfg.shift_probes:
        results = _chunk_map(cfg, grid, shift_identity_samples,
                             range(cfg.replicates), t, s, float(x), float(y))
        lhs, rhs = (np.concatenate([r[i] for r in results]) for i in (0, 1))
        (lhs_m, lhs_se), (rhs_m, rhs_se) = (map(float, mean_se(v)) for v in (lhs, rhs))
        dropped = sum(r[2] for r in results)
        tol = 3.0 * math.hypot(lhs_se, rhs_se) + 0.05 * abs(lhs_m)
        key = f"x={x:g},y={y:g}"
        tables["shift"].append((f"shift_lhs_{key}", t, s, lhs_m, lhs_se, lhs.size))
        tables["shift"].append((f"shift_rhs_{key}", t, s, rhs_m, rhs_se, lhs.size))
        verdicts.append(_verdict(
            f"shift identity at ({key}): |lhs-rhs| <= 3 SE + 5%",
            abs(lhs_m - rhs_m) <= tol,
            {"lhs": lhs_m, "rhs": rhs_m, "diff": lhs_m - rhs_m,
             "tolerance": tol, "dropped": dropped}))
        details[key] = {"lhs": lhs_m, "lhs_se": lhs_se, "rhs": rhs_m,
                        "rhs_se": rhs_se, "dropped": dropped}
    return tables, verdicts, details


def _run_oracle_suite(cfg: ExperimentConfig, grid, reads):
    tables = {"oracle": []}
    verdicts = []
    for t in (0.1, 1.0, 10.0):
        res = limiting_constant(t)
        tables["oracle"].append(("limiting_constant", t, 0.0, res.value,
                                 res.abs_error_estimate, res.evaluations))
        verdicts.append(_verdict(
            f"limiting_constant({t:g}) = 2 +- 1e-6",
            abs(res.value - 2.0) <= 1e-6, {"value": res.value}))
    for (t1, t2, target) in ((1.0, 2.0, 2.0), (1.0, 1.0, 2.0), (3.0, 0.5, 1.0)):
        res = lemma_twotime(t1, t2, 1e4)
        tables["oracle"].append((f"lemma_twotime_{t1:g}_{t2:g}", t1, 1e4,
                                 res.value, res.abs_error_estimate, res.evaluations))
        verdicts.append(_verdict(
            f"lemma_twotime({t1:g},{t2:g},1e4) = {target:g} +- 0.05",
            abs(res.value - target) <= 0.05,
            {"value": res.value, "limit": target,
             "note": "integral approaches its limit at O(1/log N); "
                     "see ladder and extrapolation rows"}))
    # twotime ladder + 1/log N extrapolation (reported, not a criterion)
    lad = [lemma_twotime(1.0, 2.0, N).value for N in _ORACLE_N_LADDER]
    for N, v in zip(_ORACLE_N_LADDER, lad):
        tables["oracle"].append(("lemma_twotime_ladder_1_2", 1.0, N, v, 0.0, 1))
    xs = 1.0 / np.log(np.asarray(_ORACLE_N_LADDER, dtype=float))
    slope, icept = np.polyfit(xs, lad, 1)
    tables["oracle"].append(("lemma_twotime_extrapolated_1_2", 1.0,
                             math.inf, float(icept), 0.0, len(lad)))
    for name, fn in (("lemma_s0", lemma_s0), ("lemma_2", lemma_2),
                     ("lemma_y", lemma_y)):
        t1, t2 = (1.0, 1.0) if name != "lemma_y" else (1.0, 2.0)
        vals = []
        for N in _ORACLE_N_LADDER:
            res = fn(t1, t2, N)
            vals.append(res.value)
            tables["oracle"].append((name, t1, N, res.value,
                                     res.abs_error_estimate, res.evaluations))
        verdicts.append(_verdict(
            f"{name} strictly decreasing along the N ladder",
            all(a > b for a, b in zip(vals, vals[1:])), {"values": vals}))
    ladder_x = [10.0, 100.0, 1000.0, 10000.0]
    seq = []
    for x in ladder_x:
        val = 2.0 * x * reduced_cov_integral(1.0, x)
        seq.append(val)
        tables["oracle"].append(("reduced_cov_2x_over_t", 1.0, x, val, 0.0, 1))
    verdicts.append(_verdict(
        "reduced_cov ladder: (2x/t) value within 1e-2 of 2 at x = 1e4",
        abs(seq[-1] - 2.0) <= 1e-2, {"ladder": seq}))
    return tables, verdicts, {}


def _run_diagnostics(cfg: ExperimentConfig, grid, reads):
    tables = {}
    verdicts = []
    extras = {}
    # first-moment identity: E[Z(t,x)]/p_t(x) in 1 +- (3 SE + 2%)
    (_, _, _, (t,), _, _), (rows,), wsel = reads["first_moment_xmax"]
    mean, se = mean_se(rows)
    dev = np.abs(mean - 1.0)
    tol = 3.0 * se + 0.02
    ok = bool((dev <= tol).all())
    worst = int(np.argmax(dev - tol))
    tables["first_moment"] = [
        ("mean_gbar", t, x, m, s, rows.shape[0])
        for x, m, s in zip(wsel, mean, se)]
    verdicts.append(_verdict(
        f"first moment: E[Z]/p in 1 +- (3 SE + 2%) for |x| <= {cfg.first_moment_xmax:g}",
        ok, {"worst_x": float(wsel[worst]), "worst_dev": float(dev[worst]),
             "worst_tol": float(tol[worst])}))
    extras["first_moment_worst"] = {"x": float(wsel[worst]),
                                    "deviation": float(dev[worst])}
    # Hoelder diagnostic: || Z(s,0)/p_s(0) - 1 ||_2 ~ s^{1/4}
    if "holder_s_values" in reads:
        svals = [float(s) for s in cfg.holder_s_values]
        _, cols, _ = reads["holder_s_values"]
        norms = [math.sqrt(float(((g[:, 0] - 1.0) ** 2).mean())) for g in cols]
        tables["holder"] = [("holder_l2", s, s, nrm, 0.0, g.size)
                            for s, nrm, g in zip(svals, norms, cols)]
        slope = np.polyfit(np.log(svals), np.log(norms), 1)[0]
        verdicts.append(_verdict(
            f"Hoelder exponent in {BAND_HOLDER}",
            BAND_HOLDER[0] <= slope <= BAND_HOLDER[1],
            {"exponent": float(slope), "norms": norms}))
        extras["holder_exponent"] = float(slope)
    # second-moment oracle equivalence at the gbar probe
    if "gbar_probe.x" in reads:
        (_, px, _, (pt,), _, _), (g,), _ = reads["gbar_probe.x"]
        mc, mc_se = mean_se(g[:, 0] ** 2)
        ref = second_moment_volterra(pt, px, px)
        tables["gbar_moment"] = [
            ("gbar_moment_mc", pt, 2.0, mc, mc_se, g.shape[0]),
            ("gbar_moment_volterra", pt, 2.0, ref, 0.0, 1),
        ]
        tol = 3.0 * mc_se + 0.05 * abs(ref)
        verdicts.append(_verdict(
            "gbar k=2 moment matches Volterra oracle within 3 SE + 5%",
            abs(mc - ref) <= tol,
            {"mc": mc, "mc_se": mc_se, "oracle": ref, "tolerance": tol}))
        extras["gbar_moment"] = {"mc": mc, "se": mc_se, "oracle": ref}
    return tables, verdicts, extras


_DRIVERS = {
    "covariance": _run_covariance,
    "clt": _run_clt,
    "fdd": _run_fdd,
    "shift_check": _run_shift_check,
    "oracle_suite": _run_oracle_suite,
    "diagnostics": _run_diagnostics,
}

KINDS = tuple(_DRIVERS)


def run(config: ExperimentConfig) -> RunReport:
    """Validate, execute, and (if out_dir is set) persist one experiment."""
    config.validate()
    written = []
    t0 = time.perf_counter()
    if config.out_dir:
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as e:
            raise ConfigError([f"out_dir {config.out_dir}: cannot create the run "
                               f"directory: {e.strerror}"]) from None
    try:
        # every engine read of the run, one pass per probe over the
        # replicates; the drivers reduce the rows
        grid = config.grid()
        reads = {probe[0]: (probe, *_ensemble(config, grid, range(config.replicates), probe))
                 for probe in _probes(config, grid)}
        tables, verdicts, extras = _DRIVERS[config.kind](config, grid, reads)
        extras.update(_probe_regime(config, grid)[1])
        wall = time.perf_counter() - t0
        nreps = config.replicates if config.kind != "oracle_suite" else 0
        report = RunReport(
            config=config.to_dict(),
            tables={name: [list(r) for r in rows] for name, rows in tables.items()},
            verdicts=verdicts,
            wallclock_s=wall,
            replicates_per_s=(nreps / wall if wall > 0 and nreps else 0.0),
            version=_VERSION,
            schema_version=REPORT_SCHEMA_VERSION,
            extras=extras,
        )
        if config.out_dir:
            for name, rows in tables.items():
                path = os.path.join(config.out_dir, f"{name}.csv")
                write_csv(path, rows)
                written.append(path)
            rp = os.path.join(config.out_dir, "report.json")
            with open(rp, "w") as fh:
                fh.write(report.to_json())
            written.append(rp)
        return report
    except OSError:
        for p in written:
            try:
                os.remove(p)
            except OSError:
                pass
        raise
