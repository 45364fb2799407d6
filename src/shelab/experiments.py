"""Experiment orchestration: configs, parallel ensemble drivers, reports.

Replicates are the unit of parallel work.  Worker processes receive fixed
chunks of replicate ids (the chunking depends only on the replicate count,
never on the worker count), every record a worker returns is a pure function
of (config, master_seed, replicate id), and aggregation sorts by replicate
id.  Estimates and CSV bodies are therefore byte-identical across any worker
layout.  Only the clt driver reads calibration_replicates: its calibration
pass uses the id range [replicates, replicates + calibration_replicates),
disjoint from the estimation set.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy import stats as sps

from . import __version__ as _VERSION
from .kernels import log_heat_kernel
from .green import shift_identity_samples
from .oracles import (lemma_2, lemma_s0, lemma_twotime, lemma_y,
                      limiting_constant, reduced_cov_integral,
                      second_moment_volterra)
from .sim import GridSpec, _BatchEngine, discrete_kernel_log
from .stats import CovarianceAccumulator, ks_normality, fdd_covariance

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

KINDS = ("covariance", "clt", "fdd", "shift_check", "oracle_suite",
         "diagnostics", "simulate")

_CHUNK = 64

# acceptance bands mirrored into run-report verdicts
BAND_XCOV = (0.6, 1.4)
BAND_EXPONENT = (0.7, 1.3)
BAND_CONSTANT = (0.6, 1.4)
BAND_VAR_RATIO = (0.55, 1.45)
BAND_FDD_RATIO = (0.5, 1.5)
BAND_HOLDER = (0.2, 0.3)
KS_SIGNIFICANCE = 1e-3

# diagnostics second-moment probe: Gbar(t, x)^k against the Volterra oracle
_GBAR_PROBE_DEFAULTS = {"t": 0.5, "x": 0.0, "k": 2, "volterra_levels": 96}


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
    dt: float | None = None          # default dx^2/2
    boundary: str = "dirichlet_zero"
    # ensemble
    replicates: int = 100
    calibration_replicates: int = 20  # read by clt only; validated for every kind
    times: list = field(default_factory=lambda: [1.0])
    # covariance
    lags: list = field(default_factory=list)
    bulk_window: list | None = None
    fit_window: list | None = None
    stationarity_pairs: list | None = None
    decorrelation_window: float = 1.0
    # clt / fdd
    n_values: list = field(default_factory=list)
    # shift check
    shift_s: float | None = None
    shift_probes: list = field(default_factory=list)
    # diagnostics
    first_moment_xmax: float = 6.0
    holder_s_values: list = field(default_factory=list)
    gbar_probe: dict = field(default_factory=dict)
    # oracle suite
    oracle_n_ladder: list = field(default_factory=lambda: [1e2, 1e3, 1e4])

    def grid(self) -> GridSpec:
        dt = self.dt if self.dt is not None else self.dx ** 2 / 2
        return GridSpec(dx=self.dx, half_width=self.half_width, dt=dt,
                        boundary=self.boundary)

    # -- validation ----------------------------------------------------------

    def validate(self):
        bad = []
        if self.kind not in KINDS:
            bad.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            bad.append("master_seed must fit in 64 bits")
        if self.workers < 1:
            bad.append("workers must be >= 1")
        grid = None
        try:
            grid = self.grid()
        except ValueError as e:
            bad.append(f"grid: {e}")
        if self.kind == "oracle_suite":
            if sorted(self.oracle_n_ladder) != list(self.oracle_n_ladder):
                bad.append("oracle_n_ladder must be ascending")
            if bad:
                raise ConfigError(bad)
            return
        if self.replicates < 2:
            bad.append("replicates must be >= 2")
        if self.calibration_replicates < 1:
            bad.append("calibration_replicates must be >= 1")
        if not self.times or sorted(self.times) != list(self.times):
            bad.append("times must be a nonempty ascending list")
        if grid is not None and self.times:
            bad += _time_violations(grid, "time", self.times)
            t_max = max(self.times)
            x_max = 0.0
            if self.kind == "covariance":
                if not self.lags:
                    bad.append("covariance needs a nonempty lag list")
                lo, hi = self._bulk(grid)
                x_max = max(abs(lo), abs(hi))
                for lag in self.lags:
                    if lag < 0 or abs(round(lag / grid.dx) * grid.dx - lag) > 1e-9 * max(1, lag):
                        bad.append(f"lag {lag} not on the dx lattice")
                    if lag > hi - lo:
                        bad.append(f"lag {lag} exceeds the bulk window span")
            elif self.kind in ("clt", "fdd"):
                if not self.n_values:
                    bad.append(f"{self.kind} needs a nonempty n_values list")
                if any(N < 3 for N in self.n_values):
                    bad.append("every N must be >= 3 (log N > 1)")
                if self.kind == "fdd" and len(self.times) != 2:
                    bad.append("fdd needs exactly two times")
                x_max = max(self.n_values, default=0.0)
            elif self.kind == "shift_check":
                if self.shift_s is None or not self.shift_probes:
                    bad.append("shift_check needs shift_s and shift_probes")
                elif not (0 < self.shift_s < t_max):
                    bad.append("need 0 < shift_s < t")
                x_max = max((max(abs(x), abs(y)) for x, y in self.shift_probes),
                            default=0.0)
            elif self.kind == "diagnostics":
                x_max = self.first_moment_xmax
                bad += _time_violations(grid, "holder_s_values", self.holder_s_values)
                if self.gbar_probe:
                    probe = {**_GBAR_PROBE_DEFAULTS, **self.gbar_probe}
                    bad += _time_violations(grid, "gbar_probe.t", [probe["t"]])
                    try:
                        grid.index_of(float(probe["x"]))
                    except ValueError as e:
                        bad.append(f"gbar_probe.x: {e}")
                    if probe["k"] != 2:
                        bad.append("gbar_probe.k must be 2, the only moment "
                                   "order with a Volterra oracle")
            if not grid.covers(t_max, x_max):
                bad.append(
                    f"half_width {grid.half_width} < x_max + 8 sqrt(t_max) "
                    f"= {x_max + 8 * math.sqrt(t_max):.3f} (truncation control)")
        if bad:
            raise ConfigError(bad)

    def _bulk(self, grid):
        if self.bulk_window is not None:
            return float(self.bulk_window[0]), float(self.bulk_window[1])
        t_max = max(self.times)
        w = grid.half_width - 8.0 * math.sqrt(t_max)
        return -w, w

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
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


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
        return json.dumps(asdict(self), indent=2, sort_keys=True, **kw)

    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_csv(path, rows) -> None:
    """rows: iterable of (series, t, lag_or_N, estimate, se, n_effective)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# shelab-csv v{CSV_SCHEMA_VERSION}\n")
        fh.write("series,t,lag_or_N,estimate,se,n_effective\n")
        for series, t, key, est, se, neff in rows:
            fh.write(",".join([series, _fmt(t), _fmt(key), _fmt(est),
                               _fmt(se), _fmt(neff)]) + "\n")


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


def fit_decay(cov, lag_window) -> FitDecayResult:
    """Weighted log-log fit of the covariance tail.

    Free fit log cov = log a - b log x gives the exponent; the constrained
    b = 1 fit gives the constant c.  Lags with nonpositive covariance are
    excluded with a warning (possible at marginal signal-to-noise).
    """
    lo, hi = lag_window
    sel = (cov.lags >= lo - 1e-9) & (cov.lags <= hi + 1e-9) & (cov.lags > 0)
    sel &= cov.n_effective > 1
    excluded = []
    pos = cov.cov > 0
    for lag in cov.lags[sel & ~pos]:
        excluded.append(float(lag))
        warnings.warn(f"fit_decay: dropping lag {lag} with nonpositive covariance")
    sel &= pos
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

def _chunk_map(cfg: ExperimentConfig, grid: GridSpec, worker, ids, *params):
    """worker((grid kwargs, master seed, chunk, *params)) for each chunk of
    _CHUNK consecutive ids, results in chunk order; chunks run in worker
    processes when cfg.workers > 1."""
    gridkw = dict(dx=grid.dx, half_width=grid.half_width, dt=grid.dt,
                  boundary=grid.boundary)
    ids = list(ids)
    args = [(gridkw, cfg.master_seed, ids[i:i + _CHUNK], *params)
            for i in range(0, len(ids), _CHUNK)]
    if cfg.workers <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
        return list(ex.map(worker, args))


# workers and transforms are top-level functions so they pickle under any
# start method

def _ensemble_worker(args):
    """transform(block[:, window], t, x_window) per checkpoint step for one
    chunk evolved by the batch engine; the window is the cells with
    lo <= x <= hi."""
    gridkw, seed, ids, steps, mode, lo, hi, transform = args
    grid = GridSpec(**gridkw)
    pos = grid.positions()
    sel = np.where((pos >= lo - 1e-9) & (pos <= hi + 1e-9))[0]
    out = {}

    def consume(step, reps, block):
        out[step] = transform(block[:, sel], step * grid.dt, pos[sel])

    _BatchEngine(grid, seed, mode=mode).run(ids, steps, consume)
    return out


def _ensemble(cfg, grid, ids, steps, mode, lo, hi, transform):
    """{step: rows of _ensemble_worker stacked in the order of ids}."""
    results = _chunk_map(cfg, grid, _ensemble_worker, ids, steps, mode, lo, hi,
                         transform)
    return {k: np.concatenate([out[k] for out in results]) for k in steps}


def _log_residual(Z, t, x):
    """r = log Z - log p_t from absolute-mode Z; -inf where Z underflowed."""
    with np.errstate(divide="ignore"):
        return np.log(Z) - log_heat_kernel(t, x)


def _relative_residual(logZ, t, x):
    """r = log Z - log p_t from relative-mode log Z, finite on the noise cone."""
    return logZ - log_heat_kernel(t, x)


def _gbar(Z, t, x):
    """Z(t, x) / p_t(x)."""
    return Z * np.exp(-log_heat_kernel(t, x))


def _center_gbar(Z, t, x):
    """Z(t, 0) / p_t(0) on a one-cell window at the origin cell.  The scalar
    math.exp is kept: np.exp differs in the last bit at some steps."""
    return Z[:, 0] * math.exp(-float(log_heat_kernel(t, 0.0)))


def _shift_worker(args):
    gridkw, seed, ids, t, s, x, y = args
    grid = GridSpec(**gridkw)
    return shift_identity_samples(grid, ids, t, s, x, y, master_seed=seed)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _verdict(name, passed, detail):
    return {"criterion": name, "passed": bool(passed), "detail": detail}


def _run_covariance(cfg: ExperimentConfig):
    grid = cfg.grid()
    t = cfg.times[-1]
    k = grid.step_of(t)
    lo, hi = cfg._bulk(grid)
    rows = _ensemble(cfg, grid, range(cfg.replicates), [k], "absolute", lo, hi,
                     _log_residual)[k]

    pos = grid.positions()
    sel = (pos >= lo - 1e-9) & (pos <= hi + 1e-9)
    acc = CovarianceAccumulator(pos[sel])
    for rid, row in enumerate(rows):
        acc.add(rid, row, np.isfinite(row))
    est = acc.finalize(t, cfg.lags, cfg.decorrelation_window)

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
        fitres = fit_decay(est, tuple(cfg.fit_window))
        verdicts.append(_verdict(
            f"decay exponent in {BAND_EXPONENT}",
            BAND_EXPONENT[0] <= fitres.exponent <= BAND_EXPONENT[1],
            {"exponent": fitres.exponent, "ci": fitres.exponent_ci}))
        verdicts.append(_verdict(
            f"decay constant/t in {BAND_CONSTANT}",
            BAND_CONSTANT[0] <= fitres.constant / t <= BAND_CONSTANT[1],
            {"constant": fitres.constant, "ci": fitres.constant_ci}))
        tables["fit"] = [
            ("fit_constant", t, 1.0, fitres.constant, fitres.constant_ci / 1.96, fitres.n_used),
            ("fit_exponent", t, 1.0, fitres.exponent, fitres.exponent_ci / 1.96, fitres.n_used),
        ]

    # stationarity: two-sample KS across replicates at bulk position pairs.
    # The deterministic lattice mean profile log(K_k/dx) - log p_t (the
    # discrete-kernel tail correction, known exactly from the step weights
    # with no simulation) is removed first: at |x| >> sqrt(t) it exceeds the
    # KS resolution, while the law of the fluctuations around it is the
    # translation-invariant object under test.
    pairs = cfg.stationarity_pairs
    if pairs is None:
        qs = np.linspace(lo, hi, 5)
        pairs = [[qs[0], qs[2]], [qs[2], qs[4]], [qs[1], qs[3]], [qs[0], qs[4]],
                 [qs[1], qs[2]], [qs[2], qs[3]], [qs[0], qs[1]], [qs[3], qs[4]],
                 [qs[0], qs[3]], [qs[1], qs[4]]]
    ids_all, vals, ok = acc.matrix()
    wpos = pos[sel]
    lattice_profile = (discrete_kernel_log(grid, k)[sel]
                       - math.log(grid.dx) - log_heat_kernel(t, wpos))
    vals = vals - lattice_profile[None, :]
    ks_rows = []
    min_p = 1.0
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
    return tables, verdicts, extras


def _clt_samples(cfg: ExperimentConfig, grid, times, n_values, rep_range):
    """Per-replicate X_N samples for each (t, N); relative-mode engine."""
    steps = [grid.step_of(t) for t in times]
    n_max = max(n_values)
    ids = list(rep_range)
    rows_at = _ensemble(cfg, grid, ids, steps, "relative", 0.0, n_max,
                        _relative_residual)
    wpos = grid.positions()
    sel = (wpos >= -1e-9) & (wpos <= n_max + 1e-9)
    window = wpos[sel]
    samples = {(t, N): {} for t in times for N in n_values}
    means = {}
    for t, k in zip(times, steps):
        rows = rows_at[k]
        if not np.isfinite(rows).all():
            raise RuntimeError(
                f"residual window [0, {n_max:g}] not fully inside the "
                f"noise cone at t={t:g}; enlarge t or shrink N")
        means[t] = list(rows)
        for rid, row in zip(ids, rows):
            for N in n_values:
                m = window <= N + 1e-9
                val = np.trapezoid(row[m], dx=grid.dx)
                samples[(t, N)][rid] = val / math.sqrt(N * math.log(N))
    return samples, means, window


def _run_clt(cfg: ExperimentConfig):
    grid = cfg.grid()
    t = cfg.times[-1]
    n_values = [float(N) for N in cfg.n_values]
    # calibration pass: grand mean of the residual over the bulk
    cal_range = range(cfg.replicates, cfg.replicates + cfg.calibration_replicates)
    _, cal_rows, _ = _clt_samples(cfg, grid, [t], n_values, cal_range)
    m_hat = float(np.mean([r.mean() for r in cal_rows[t]]))
    est_samples, _, _ = _clt_samples(cfg, grid, [t], n_values,
                                     range(cfg.replicates))
    tables = {"clt": []}
    verdicts = []
    ratios = {}
    for N in n_values:
        d = est_samples[(t, N)]
        xs = np.array([d[r] for r in sorted(d)])
        # the scalar centering shifts every sample equally; variance unchanged
        xs = xs - m_hat * N / math.sqrt(N * math.log(N))
        var = float(xs.var(ddof=1))
        ratio = var / (2.0 * t)
        se = ratio * math.sqrt(2.0 / (xs.size - 1))
        ratios[N] = (ratio, se, xs)
        tables["clt"].append(("var_ratio", t, N, ratio, se, xs.size))
    n_sorted = sorted(n_values)
    first = n_sorted[0]
    r0, s0, xs0 = ratios[first]
    verdicts.append(_verdict(
        f"Var[X_N]/2t in {BAND_VAR_RATIO} at N={first:g}",
        BAND_VAR_RATIO[0] <= r0 <= BAND_VAR_RATIO[1],
        {"ratio": r0, "se": s0}))
    if len(n_sorted) > 1:
        last = n_sorted[-1]
        r1, s1, _ = ratios[last]
        verdicts.append(_verdict(
            f"|Var ratio - 1| shrinks from N={first:g} to N={last:g}",
            abs(r1 - 1.0) < abs(r0 - 1.0),
            {"ratio_first": r0, "ratio_last": r1}))
    rep = ks_normality(ratios[n_sorted[0]][2], significance=KS_SIGNIFICANCE)
    tables["clt"].append(("ks_normality_p", t, n_sorted[0], rep.p_value,
                          0.0, rep.sample_size))
    verdicts.append(_verdict(
        f"X_N Gaussianity: KS does not reject at {KS_SIGNIFICANCE}",
        not rep.reject, {"p_value": rep.p_value, "statistic": rep.statistic}))
    extras = {"m_hat": m_hat,
              "ratios": {str(N): {"ratio": ratios[N][0], "se": ratios[N][1]}
                         for N in n_values}}
    return tables, verdicts, extras


def _run_fdd(cfg: ExperimentConfig):
    grid = cfg.grid()
    times = [float(t) for t in cfg.times]
    N = float(cfg.n_values[0])
    samples, _, _ = _clt_samples(cfg, grid, times, [N], range(cfg.replicates))
    t1, t2 = times
    d1, d2 = samples[(t1, N)], samples[(t2, N)]
    reps = sorted(d1)
    a = np.array([d1[r] for r in reps])
    b = np.array([d2[r] for r in reps])
    cov, se = fdd_covariance(a, b)
    target = 2.0 * min(t1, t2)
    ratio = cov / target
    tables = {"fdd": [("fdd_cov", t1, N, cov, se, a.size),
                      ("fdd_ratio", t2, N, ratio, se / target, a.size)]}
    verdicts = [_verdict(
        f"Cov[X_N({t1:g}), X_N({t2:g})]/{target:g} in {BAND_FDD_RATIO}",
        BAND_FDD_RATIO[0] <= ratio <= BAND_FDD_RATIO[1],
        {"ratio": ratio, "se": se / target})]
    return tables, verdicts, {"cov": cov, "se": se, "ratio": ratio}


def _run_shift_check(cfg: ExperimentConfig):
    grid = cfg.grid()
    t = cfg.times[-1]
    s = float(cfg.shift_s)
    tables = {"shift": []}
    verdicts = []
    details = {}
    for (x, y) in cfg.shift_probes:
        results = _chunk_map(cfg, grid, _shift_worker, range(cfg.replicates),
                             t, s, float(x), float(y))
        lhs = np.concatenate([r[0] for r in results])
        rhs = np.concatenate([r[1] for r in results])
        dropped = sum(r[2] for r in results)
        m = lhs.size
        lhs_m, rhs_m = float(lhs.mean()), float(rhs.mean())
        lhs_se = float(lhs.std(ddof=1) / math.sqrt(m))
        rhs_se = float(rhs.std(ddof=1) / math.sqrt(m))
        comb = math.hypot(lhs_se, rhs_se)
        tol = 3.0 * comb + 0.05 * abs(lhs_m)
        key = f"x={x:g},y={y:g}"
        tables["shift"].append((f"shift_lhs_{key}", t, s, lhs_m, lhs_se, m))
        tables["shift"].append((f"shift_rhs_{key}", t, s, rhs_m, rhs_se, m))
        verdicts.append(_verdict(
            f"shift identity at ({key}): |lhs-rhs| <= 3 SE + 5%",
            abs(lhs_m - rhs_m) <= tol,
            {"lhs": lhs_m, "rhs": rhs_m, "diff": lhs_m - rhs_m,
             "tolerance": tol, "dropped": dropped}))
        details[key] = {"lhs": lhs_m, "lhs_se": lhs_se, "rhs": rhs_m,
                        "rhs_se": rhs_se, "dropped": dropped}
    return tables, verdicts, details


def _run_oracle_suite(cfg: ExperimentConfig):
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
    lad = [lemma_twotime(1.0, 2.0, N).value for N in cfg.oracle_n_ladder]
    for N, v in zip(cfg.oracle_n_ladder, lad):
        tables["oracle"].append(("lemma_twotime_ladder_1_2", 1.0, N, v, 0.0, 1))
    if len(lad) >= 2:
        xs = 1.0 / np.log(np.asarray(cfg.oracle_n_ladder, dtype=float))
        slope, icept = np.polyfit(xs, lad, 1)
        tables["oracle"].append(("lemma_twotime_extrapolated_1_2", 1.0,
                                 math.inf, float(icept), 0.0, len(lad)))
    for name, fn in (("lemma_s0", lemma_s0), ("lemma_2", lemma_2),
                     ("lemma_y", lemma_y)):
        t1, t2 = (1.0, 1.0) if name != "lemma_y" else (1.0, 2.0)
        vals = []
        for N in cfg.oracle_n_ladder:
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
        res = reduced_cov_integral(1.0, x)
        val = 2.0 * x * res.value
        seq.append(val)
        tables["oracle"].append(("reduced_cov_2x_over_t", 1.0, x, val,
                                 2.0 * x * res.abs_error_estimate, res.evaluations))
    verdicts.append(_verdict(
        "reduced_cov ladder: (2x/t) value within 1e-2 of 2 at x = 1e4",
        abs(seq[-1] - 2.0) <= 1e-2, {"ladder": seq}))
    return tables, verdicts, {}


def _run_diagnostics(cfg: ExperimentConfig):
    tables = {}
    verdicts = []
    extras = {}
    grid = cfg.grid()
    t = cfg.times[-1]
    # first-moment identity: E[Z(t,x)]/p_t(x) in 1 +- (3 SE + 2%)
    xmax = cfg.first_moment_xmax
    k = grid.step_of(t)
    reps = range(cfg.replicates)
    rows = _ensemble(cfg, grid, reps, [k], "absolute", -xmax, xmax, _gbar)[k]
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    dev = np.abs(mean - 1.0)
    tol = 3.0 * se + 0.02
    ok = bool((dev <= tol).all())
    worst = int(np.argmax(dev - tol))
    pos = grid.positions()
    wsel = pos[(pos >= -xmax - 1e-9) & (pos <= xmax + 1e-9)]
    tables["first_moment"] = [
        ("mean_gbar", t, x, m, s, rows.shape[0])
        for x, m, s in zip(wsel, mean, se)]
    verdicts.append(_verdict(
        f"first moment: E[Z]/p in 1 +- (3 SE + 2%) for |x| <= {xmax:g}",
        ok, {"worst_x": float(wsel[worst]), "worst_dev": float(dev[worst]),
             "worst_tol": float(tol[worst])}))
    extras["first_moment_worst"] = {"x": float(wsel[worst]),
                                    "deviation": float(dev[worst])}
    # Hoelder diagnostic: || Z(s,0)/p_s(0) - 1 ||_2 ~ s^{1/4}
    if cfg.holder_s_values:
        svals = [float(s) for s in cfg.holder_s_values]
        steps = [grid.step_of(s) for s in svals]
        x0 = float(pos[grid.origin_index])
        cols = _ensemble(cfg, grid, reps, steps, "absolute", x0, x0, _center_gbar)
        norms = []
        tables["holder"] = []
        for s, kstep in zip(svals, steps):
            g = cols[kstep]
            nrm = math.sqrt(float(((g - 1.0) ** 2).mean()))
            norms.append(nrm)
            tables["holder"].append(("holder_l2", s, s, nrm, 0.0, g.size))
        slope = np.polyfit(np.log(svals), np.log(norms), 1)[0]
        verdicts.append(_verdict(
            f"Hoelder exponent in {BAND_HOLDER}",
            BAND_HOLDER[0] <= slope <= BAND_HOLDER[1],
            {"exponent": float(slope), "norms": norms}))
        extras["holder_exponent"] = float(slope)
    # second-moment oracle equivalence at the gbar probe
    if cfg.gbar_probe:
        probe = {**_GBAR_PROBE_DEFAULTS, **cfg.gbar_probe}
        pt, px = float(probe["t"]), float(probe["x"])
        korder = int(probe["k"])
        kstep = grid.step_of(pt)
        g = _ensemble(cfg, grid, reps, [kstep], "absolute", px, px, _gbar)[kstep]
        g = g[:, 0] ** korder
        mc, mc_se = float(g.mean()), float(g.std(ddof=1) / math.sqrt(g.size))
        oracle = second_moment_volterra(pt, time_levels=int(probe["volterra_levels"]))
        ref = oracle.second_moment_ratio(px)
        tables["gbar_moment"] = [
            ("gbar_moment_mc", pt, float(korder), mc, mc_se, g.size),
            ("gbar_moment_volterra", pt, float(korder), ref, oracle.self_convergence, 1),
        ]
        tol = 3.0 * mc_se + 0.05 * abs(ref)
        verdicts.append(_verdict(
            f"gbar k={korder} moment matches Volterra oracle within 3 SE + 5%",
            abs(mc - ref) <= tol,
            {"mc": mc, "mc_se": mc_se, "oracle": ref, "tolerance": tol}))
        extras["gbar_moment"] = {"mc": mc, "se": mc_se, "oracle": ref}
    return tables, verdicts, extras


def _run_simulate(cfg: ExperimentConfig):
    from .fieldio import save_field
    from .noise import NoiseStream
    from .sim import evolve
    grid = cfg.grid()
    tables = {"simulate": []}
    paths = []
    for rep in range(cfg.replicates):
        fields = evolve(grid, NoiseStream(cfg.master_seed, rep), cfg.times)
        for f in fields:
            name = f"field_rep{rep:06d}_t{f.time:.6f}.shefld"
            if cfg.out_dir:
                path = os.path.join(cfg.out_dir, name)
                save_field(path, f, replicate_id=rep)
                paths.append(path)
            tables["simulate"].append(
                ("field_mass", f.time, rep, float(f.values.sum() * grid.dx),
                 0.0, grid.cell_count))
    return tables, [], {"files": [os.path.basename(p) for p in paths]}


_DRIVERS = {
    "covariance": _run_covariance,
    "clt": _run_clt,
    "fdd": _run_fdd,
    "shift_check": _run_shift_check,
    "oracle_suite": _run_oracle_suite,
    "diagnostics": _run_diagnostics,
    "simulate": _run_simulate,
}


def run(config: ExperimentConfig) -> RunReport:
    """Validate, execute, and (if out_dir is set) persist one experiment."""
    config.validate()
    written = []
    t0 = time.perf_counter()
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
    try:
        tables, verdicts, extras = _DRIVERS[config.kind](config)
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
