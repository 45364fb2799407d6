"""Operator-splitting simulation of the stochastic heat equation.

One time step is (exact-in-law to first order, positivity preserving):

  1. heat_step: convolve with a nonnegative probability kernel w.  w is the
     grid-sampled Gaussian with its width tuned so the *discrete* variance of
     w equals dt exactly, then normalized to unit mass.  This keeps every
     cell nonnegative (a spectral multiplier does not: from Dirac data it
     rings negative near the spike), conserves mass until it reaches the
     Dirichlet-zero edges of the grid, and evolves Dirac data to the exact
     Gaussian profile up to an O(dt) quartic-cumulant correction, second
     order in dx at dt = dx^2/2.

  2. noise_step: multiply cell j by exp(sqrt(dt/dx) xi_j - dt/(2 dx)), the
     mean-one lognormal increment of the Ito multiplicative term on one cell.

Fields are plain arrays of Z values.  For probes far outside the diffusive
scale (|x| >> sqrt(t)), Z underflows while Z/p_t stays O(1); the internal
batch engine has a kernel-relative mode for that regime (see _BatchEngine).

The batch engine's step keeps the bits of the plain step above, on every
cell a consumer may read, while it
  * allocates its buffers once per run and writes each step into them,
  * runs the kernel-relative tap loop over blocks of _ROW_BLOCK replicate
    rows, so a block stays in cache,
  * restricts the taps and the noise multiply to the noise cone, the cells
    the kernel has reached: outside it every term is exactly +0.0, so each
    sum keeps its bits,
  * restricts them further to the domain of dependence of the window the
    consumer reads: at step k of K, the cells within (K - k - 1) * half
    cells of the window span; cells outside it are left stale,
  * runs the tap loop and the noise multiply with a small ufunc buffer
    (_row_buffers), since numpy buffers column slices of short rows, and
  * in absolute mode, flushes Z to +0.0 beyond the underflow radius R(t)
    (underflow_radius), where the noise-free field is below exp(-668), 40
    nats above the smallest normal float64, so no step computes on
    subnormal numbers.  R(t) is about sqrt(2 t (668 - log dx)); it is the
    Chernoff bound of the discrete kernel's tail, so it holds for the
    lattice kernel and not only for its Gaussian limit.  The flush is the
    one step that changes bits, and only of cells no consumer reads: a cell
    inside the read radius (read_radius, the same bound at exp(-600)) keeps
    its bits, because paths that leave R carry less than about exp(-68) of
    its value, and the config validator keeps absolute-engine reads inside
    it,
  * draws the Philox words of each row only on the cells it computes, from
    the counter of the first one (noise._FastNormals.fill_u53), so every
    cell gets the word of a full-row fill.  The inverse CDF (ndtri) still
    transforms every cell of every row, because the benchmark's count model
    pins the number of variates.  Cells outside [c0, c1) hold the words of
    an earlier step, or, if never drawn, the word whose normal is exactly
    0.0, which takes ndtri's fast central branch.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d
from scipy.optimize import brentq
from scipy.special import logsumexp

from .kernels import log_heat_kernel
from .noise import _FastNormals

__all__ = [
    "GridSpec",
    "Field",
    "HeightResidual",
    "init_dirac",
    "heat_step",
    "noise_step",
    "evolve",
    "height_residual",
    "log_residual",
    "heat_step_weights",
    "discrete_kernel_log",
    "underflow_radius",
    "read_radius",
]

# kernel taps are dropped below exp(-92) ~ 1e-40 of the peak
_TAP_LOG_CUT = 92.0

_LOG_FLOOR = -1.0e30  # stand-in for log(0) in the relative engine

# the absolute engine flushes Z where the noise-free field is below
# exp(-_FLUSH_LOG), 40 nats above the smallest normal float64 (2^-1022 ~
# exp(-708.4)); its reads stay where it is above exp(-_READ_LOG)
_FLUSH_LOG = 668.0
_READ_LOG = 600.0

# replicate rows per block of the relative tap loop: three blocks of 16 rows
# of a 4161-cell grid (1.6 MB) stay in a 4 MiB L2 cache
_ROW_BLOCK = 16


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L] with cell_count = round(2L/dx) + 1 cells;
    Z is zero outside it (the truncation rule keeps that edge out of reach)."""

    dx: float
    half_width: float
    dt: float

    def __post_init__(self):
        if self.dx <= 0 or self.half_width <= 0 or self.dt <= 0:
            raise ValueError("dx, half_width, dt must be positive")
        if self.cell_count < 3:
            raise ValueError("grid must have at least 3 cells")
        if self.dt > self.dx ** 2 * (1 + 1e-12):
            raise ValueError("dt must satisfy dt <= dx^2 (noise scaling)")

    @property
    def cell_count(self) -> int:
        return round(2 * self.half_width / self.dx) + 1

    def positions(self) -> np.ndarray:
        return (np.arange(self.cell_count) - (self.cell_count - 1) / 2) * self.dx

    @property
    def origin_index(self) -> int:
        return int(np.argmin(np.abs(self.positions())))

    def index_of(self, x: float) -> int:
        """Grid index of a lattice position; rejects off-lattice probes."""
        i = (x - self.positions()[0]) / self.dx
        j = round(i)
        if abs(i - j) > 1e-6:
            raise ValueError(f"x={x} is not on the dx={self.dx} lattice")
        if not 0 <= j < self.cell_count:
            raise ValueError(f"x={x} lies outside the grid")
        return j

    def step_of(self, t: float) -> int:
        """Step count for a checkpoint time; rejects off-lattice times."""
        k = t / self.dt
        j = round(k)
        if abs(k - j) > 1e-6:
            raise ValueError(f"t={t} is not a multiple of dt={self.dt}")
        return j

    def window(self, lo: float, hi: float) -> np.ndarray:
        """Indices of the cells with lo <= x <= hi (1e-9 slack).  An index
        array, not a slice: the layout of block[:, window] sets the summation
        order of later reductions."""
        pos = self.positions()
        return np.flatnonzero((pos >= lo - 1e-9) & (pos <= hi + 1e-9))

    def covers(self, t_max: float, x_max: float) -> bool:
        """Truncation rule: L >= x_max + 8 sqrt(t_max)."""
        return self.half_width >= x_max + 8.0 * np.sqrt(t_max) - 1e-9


def default_grid(dx, half_width) -> GridSpec:
    """Grid with the default time step dt = dx^2 / 2."""
    return GridSpec(dx=dx, half_width=half_width, dt=dx * dx / 2)


@dataclass
class Field:
    """One time slice of Z on the grid."""

    grid: GridSpec
    time: float
    values: np.ndarray


@dataclass
class HeightResidual:
    """r(x) = log Z(t,x) - log p_t(x); NaN where Z underflowed to 0."""

    grid: GridSpec
    time: float
    values: np.ndarray
    valid: np.ndarray

    @property
    def invalid_count(self) -> int:
        return int((~self.valid).sum())


@lru_cache(maxsize=32)
def heat_step_weights(dx: float, dt: float) -> np.ndarray:
    """Positive convolution weights for one heat half-step.

    Sampled Gaussian exp(-alpha j^2) with alpha solved so that the discrete
    variance sum_j w_j (j dx)^2 equals dt to machine precision, normalized to
    sum_j w_j = 1.
    """
    v = dt / dx ** 2  # target variance in cell units

    def disc_var(alpha):
        half = int(np.ceil(np.sqrt(_TAP_LOG_CUT / alpha))) + 1
        j = np.arange(-half, half + 1)
        w = np.exp(-alpha * j * j)
        return float((w * j * j).sum() / w.sum())

    a0 = 1.0 / (2.0 * v)
    lo, hi = 0.25 * a0, 2.0 * a0
    while disc_var(hi) > v:
        hi *= 2.0
    alpha = brentq(lambda a: disc_var(a) - v, lo, hi, xtol=1e-15, rtol=8.9e-16)
    half = int(np.ceil(np.sqrt(_TAP_LOG_CUT / alpha))) + 1
    j = np.arange(-half, half + 1)
    w = np.exp(-alpha * j * j)
    w /= w.sum()
    w.flags.writeable = False
    return w


def init_dirac(grid: GridSpec) -> Field:
    """Dirac mass at the origin: 1/dx at the cell nearest 0, zero elsewhere."""
    values = np.zeros(grid.cell_count)
    values[grid.origin_index] = 1.0 / grid.dx
    return Field(grid=grid, time=0.0, values=values)


def heat_step(field: Field) -> Field:
    """Advance the deterministic heat flow by one dt."""
    g = field.grid
    w = heat_step_weights(g.dx, g.dt)
    out = convolve1d(field.values, w, mode="constant", cval=0.0)
    return Field(grid=g, time=field.time + g.dt, values=out)


def noise_step(field: Field, xi) -> Field:
    """Apply the mean-one multiplicative noise factor of the standard normals
    xi (one per cell); time is unchanged."""
    g = field.grid
    if xi.shape != field.values.shape:
        raise ValueError(
            f"noise length {xi.shape} does not match grid {field.values.shape}"
        )
    return Field(grid=g, time=field.time, values=field.values * noise_factors(g, xi))


def noise_factors(grid: GridSpec, xi, out=None) -> np.ndarray:
    """Mean-one lognormal factors exp(sqrt(dt/dx) xi - dt/(2 dx)) of normals
    xi, into `out` when given (out=xi overwrites the normals in place)."""
    out = np.multiply(math.sqrt(grid.dt / grid.dx), xi, out=out)
    out -= grid.dt / (2.0 * grid.dx)
    return np.exp(out, out=out)


def evolve(grid: GridSpec, stream, t_checkpoints) -> list[Field]:
    """Evolve Dirac data, alternating heat_step and noise_step.

    Checkpoint times must be positive multiples of dt.  `stream` is anything
    with a .normals(step_index, cell_count) method (NoiseStream, ZeroNoise).
    Deterministic in (grid, stream).
    """
    ks = [grid.step_of(t) for t in t_checkpoints]
    if any(k <= 0 for k in ks):
        raise ValueError("checkpoints must be positive")
    if sorted(ks) != ks:
        raise ValueError("checkpoints must be ascending")
    want = set(ks)
    f = init_dirac(grid)
    out = {}
    for k in range(max(ks)):
        f = heat_step(f)
        f = noise_step(f, stream.normals(k, grid.cell_count))
        if k + 1 in want:
            out[k + 1] = Field(grid=grid, time=f.time, values=f.values.copy())
    return [out[k] for k in ks]


def height_residual(field: Field) -> HeightResidual:
    """r(x) = log Z - log p_t(x) with underflowed cells masked invalid."""
    if field.time <= 0.0:
        raise ValueError("height residual requires time > 0")
    valid = field.values > 0.0
    vals = log_residual(field.values, field.time, field.grid.positions())
    vals[~valid] = np.nan
    return HeightResidual(grid=field.grid, time=field.time, values=vals, valid=valid)


def log_residual(Z, t, x):
    """log Z - log p_t(x); -inf where Z = 0 (NaN where Z < 0), no warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(Z) - log_heat_kernel(t, x)


@lru_cache(maxsize=32)
def _step_log_mgf(dx: float, dt: float):
    """(theta, log sum_j w_j exp(theta j)): the log moment generating function
    of one heat step's weights (j in cells) on a geometric grid of theta > 0."""
    w = heat_step_weights(dx, dt)
    j = np.arange(len(w)) - len(w) // 2
    theta = np.geomspace(1e-3, 1e2, 2000)
    return theta, logsumexp(np.log(w) + theta[:, None] * j, axis=1)


@lru_cache(maxsize=4096)
def _radius_cells(grid: GridSpec, k: float, level: float) -> float:
    """Cells from the origin beyond which the k-step noise-free field K_k/dx
    is below exp(-level): by the Chernoff bound, K_k(j) <= exp(k log M(theta)
    - theta j) for every theta > 0, M the step weights' moment generating
    function, so it suffices that theta j >= k log M(theta) + level - log dx."""
    theta, log_mgf = _step_log_mgf(grid.dx, grid.dt)
    return float(np.min((k * log_mgf + level - math.log(grid.dx)) / theta))


def underflow_radius(grid: GridSpec, t: float) -> float:
    """R(t): beyond it the noise-free field is below exp(-668), 40 nats above
    the smallest normal float64, and the absolute engine holds Z = +0.0.
    About sqrt(2 t (668 - log dx)), the value for Gaussian steps."""
    return _radius_cells(grid, t / grid.dt, _FLUSH_LOG) * grid.dx


def read_radius(grid: GridSpec, t: float) -> float:
    """The same radius at exp(-600), inside R(t): an absolute-engine cell
    inside it keeps the bits of the unflushed evolution (sim.evolve)."""
    return _radius_cells(grid, t / grid.dt, _READ_LOG) * grid.dx


def discrete_kernel_log(grid: GridSpec, steps: int) -> np.ndarray:
    """log of the steps-fold discrete heat kernel (cell-mass units).

    This is the exact noise-free evolution of a unit grid delta under the
    step weights, tracked in log space; log(K/dx) - log p_t is the
    deterministic lattice correction to the mean height profile.  Cells the
    kernel has not reached carry a large negative sentinel.
    """
    eng = _BatchEngine(grid, master_seed=0, mode="relative")
    logK = np.full(grid.cell_count, _LOG_FLOOR)
    logK[grid.origin_index] = 0.0
    for _ in range(steps):
        logK, _ = eng._advance_logK(logK)
    return logK


# ---------------------------------------------------------------------------
# internal batched engine
# ---------------------------------------------------------------------------

class _BatchEngine:
    """Evolves a block of replicates as one (B, n) matrix.

    mode='absolute' carries Z itself, flushed to exactly +0.0 beyond the
    underflow radius R(t) ~ sqrt(2 t (668 - log dx)) (underflow_radius), so
    no step computes on subnormal numbers.  mode='relative' carries
    V = Z dx / K_k(x), where K_k is the k-step discrete heat kernel, tracked
    in log space.  The
    one-step weights of V are w_j K_k(x - j dx) / K_{k+1}(x), each <= 1 and
    summing to 1 per cell, so V stays O(1) over the whole noise cone and
    E[V] = 1 holds cell-wise exactly.  The two modes consume identical noise
    and agree on log Z wherever both representations are finite.
    """

    def __init__(self, grid: GridSpec, master_seed: int, mode: str = "absolute",
                 window=None):
        """`window` is the index array of the cells the consumer reads (all
        cells when None); each step computes only what those cells depend on."""
        if mode not in ("absolute", "relative"):
            raise ValueError("mode must be 'absolute' or 'relative'")
        self.grid = grid
        self.mode = mode
        self.n = grid.cell_count
        self.w = heat_step_weights(grid.dx, grid.dt)
        self.half = len(self.w) // 2
        self.rng = _FastNormals(master_seed)
        if window is None:
            self._span = (0, self.n)
        else:
            w = np.asarray(window)
            if w.size == 0 or w.min() < 0 or w.max() >= self.n:
                raise ValueError(f"window must hold cell indices in [0, {self.n})")
            self._span = (int(w.min()), int(w.max()) + 1)

    def _taps(self, c0, c1):
        """(idx, cols, dst, src) of each tap that writes a cell of [c0, c1):
        tap idx, shift s = idx - half, moves cell i - s to cell i; dst are the
        written cells, cols the same cells counted from c0.  Cells whose
        source lies past the Dirichlet-zero edge are not written, and a tap
        as long as the grid moves nothing."""
        taps = []
        for idx in range(len(self.w)):
            s = idx - self.half
            d0, d1 = max(c0, s), min(c1, self.n + s)
            if d0 < d1:
                taps.append((idx, slice(d0 - c0, d1 - c0), slice(d0, d1),
                             slice(d0 - s, d1 - s)))
        return taps

    def _domain(self, step, last):
        """Cells [c0, c1) of state step + 1 that the window can depend on at
        step `last`: the noise cone of state step + 1 (in absolute mode cut
        to the underflow radius), within (last - step - 1) * half cells of
        the window span."""
        h, i0 = self.half, self.grid.origin_index
        radius = (step + 1) * h
        if self.mode == "absolute":
            radius = min(radius, math.floor(_radius_cells(self.grid, step + 1,
                                                          _FLUSH_LOG)))
        reach = (last - step - 1) * h
        c0 = max(0, i0 - radius, self._span[0] - reach)
        c1 = min(self.n, i0 + radius + 1, self._span[1] + reach)
        return c0, max(c0, c1)

    def _advance_logK(self, logK, c0=0, c1=None):
        """One heat step of the log discrete kernel via log-sum-exp on the
        cells [c0, c1) (all cells by default); _LOG_FLOOR elsewhere.

        Returns log K_{k+1} and the (taps, c1 - c0) stack of
        log(w_idx K_k(x - s dx)).  The taps are summed one row at a time, the
        order numpy's axis-0 sum takes on a wide stack; on a one-cell stack
        that sum would go pairwise and change the bits.
        """
        c1 = self.n if c1 is None else c1
        stack = np.full((len(self.w), c1 - c0), _LOG_FLOOR)
        for idx, cols, _, src in self._taps(c0, c1):
            stack[idx, cols] = logK[src]
            stack[idx] += np.log(self.w[idx])
        m = stack.max(axis=0)
        dead = m <= _LOG_FLOOR / 2
        m_safe = np.where(dead, 0.0, m)
        terms = np.exp(stack - m_safe)
        total = terms[0].copy()
        for row in terms[1:]:
            total += row
        logK1 = np.full(self.n, _LOG_FLOOR)
        with np.errstate(divide="ignore"):
            logK1[c0:c1] = m_safe + np.log(total)
        logK1[c0:c1][dead] = _LOG_FLOOR
        return logK1, stack

    def _relative_heat_step(self, V, logK, out, scratch, c0, c1):
        """One heat step of V = Z dx / K_k into `out` on the cells [c0, c1),
        a run inside the noise cone of step k + 1; returns log K_{k+1}, exact
        on [c0, c1) and _LOG_FLOOR elsewhere.

        Only [c0, c1) is written: `out` must hold 0 outside the noise cone
        and may hold stale values elsewhere outside [c0, c1).  V and the tap
        weights are exactly 0 outside the cone, so the dropped terms are +0.0,
        and every cell of [c0, c1) still sums all its taps in tap order, to
        the same bits.  The taps run over blocks of _ROW_BLOCK rows through
        `scratch` (_ROW_BLOCK * n floats), so a block's rows stay in cache.
        """
        logK1, tw = self._advance_logK(logK, c0, c1)
        tw -= logK1[c0:c1]             # taps x cells [c0, c1), each <= 1
        np.exp(tw, out=tw)
        taps = [(tw[idx, cols], dst, src) for idx, cols, dst, src in self._taps(c0, c1)]
        with _row_buffers():
            for r in range(0, V.shape[0], _ROW_BLOCK):
                Vr, Wr = V[r:r + _ROW_BLOCK], out[r:r + _ROW_BLOCK]
                rows = Vr.shape[0]
                Wr[:, c0:c1] = 0.0
                for weights, dst, src in taps:
                    prod = scratch[:rows * weights.size].reshape(rows, weights.size)
                    np.multiply(weights, Vr[:, src], out=prod)
                    acc = Wr[:, dst]
                    acc += prod
        return logK1

    def run(self, replicate_ids, checkpoint_steps, consume):
        """Evolve the block and hand each checkpoint to `consume`.

        consume(step, replicate_ids, block) is called at each step in
        checkpoint_steps; in absolute mode the block is the (B, n) Z matrix,
        in relative mode the (B, n) log Z matrix (-inf outside the noise
        cone).  The block is valid only on the window; its other cells are
        unspecified (with window=None every cell is valid).  It may be a view
        of a buffer the next step overwrites: it is valid only during the
        consume call, so a consumer that keeps it must copy it.

        The state, its swap partner and the normals block are allocated once
        per run; each step writes into them, and draws its noise, on the cells
        _domain names.
        """
        reps = list(replicate_ids)
        want = set(checkpoint_steps)
        last = max(checkpoint_steps)
        relative = self.mode == "relative"
        i0 = self.grid.origin_index
        h = self.half
        shape = (len(reps), self.n)
        # V (relative) or Z (absolute), and the buffer the next step writes;
        # both start zeroed: no step writes a cell outside the noise cone (in
        # absolute mode, the underflow radius) other than with +0.0
        X, Y = np.zeros(shape), np.zeros(shape)
        xi = np.empty(shape)
        if relative:
            logK = np.full(self.n, _LOG_FLOOR)
            logK[i0] = 0.0
            X[:, i0] = 1.0
            logdx = np.log(self.grid.dx)
            scratch = np.empty(_ROW_BLOCK * self.n)
        else:
            X[:, i0] = 1.0 / self.grid.dx
        for k in range(last):
            c0, c1 = self._domain(k, last)
            if relative:
                logK = self._relative_heat_step(X, logK, Y, scratch, c0, c1)
            else:
                # every cell of [c0, c1) sees all its taps inside the slice;
                # the halo outside [c0, c1) is flushed, so Z stays exactly 0
                # beyond the underflow radius
                a, b = max(0, c0 - h), min(self.n, c1 + h)
                convolve1d(X[:, a:b], self.w, axis=1, output=Y[:, a:b],
                           mode="constant", cval=0.0)
                Y[:, a:c0] = 0.0
                Y[:, c1:b] = 0.0
            X, Y = Y, X
            # Philox draws only [c0, c1); xi is valid only there
            self.rng.normals_block(reps, k, self.n, out=xi, lo=c0, hi=c1)
            # X is exactly 0 outside the cone and the underflow radius, so
            # only [c0, c1) is multiplied
            with _row_buffers():
                Xl, xl = X[:, c0:c1], xi[:, c0:c1]
                Xl *= noise_factors(self.grid, xl, out=xl)
            if k + 1 in want:
                block = X
                if relative:
                    with np.errstate(divide="ignore"):
                        block = np.log(X) + (logK - logdx)
                consume(k + 1, reps, block)


@contextmanager
def _row_buffers():
    """Run ufuncs with a 1024-element buffer.  numpy buffers a 2-D strided
    operand whose rows are shorter than about a third of the buffer size,
    which makes an in-place add on a (B, 1000) column slice 3x slower; the
    buffer only copies, so no bit changes."""
    old = np.setbufsize(1024)
    try:
        yield
    finally:
        np.setbufsize(old)
