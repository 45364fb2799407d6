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

The reference path runs on plain rows of Z values.  For probes far outside
the diffusive scale (|x| >> sqrt(t)), Z underflows while Z/p_t stays O(1);
the internal batch engine has a kernel-relative mode for that regime (see
_BatchEngine).

The batch engine's step keeps the bits of the plain step above, on every
cell a consumer may read, while it
  * allocates its buffers once per run and writes each step into them
    (the relative step's sparse product allocates its data and result),
  * in relative mode, holds the state cell-major, one replicate per column,
    and runs the 23-tap step as one sparse product per step: row i of a CSR
    matrix holds all 23 tap weights in tap order, a tap whose source lies
    past the Dirichlet edge with weight exactly +0.0 on a clipped column,
    and scipy's csr_matvecs sums them onto a zeroed result in that order,
    which is the plain step's order,
  * restricts the taps and the noise multiply to the noise cone, the cells
    the kernel has reached: outside it every term is exactly +0.0, so each
    sum keeps its bits,
  * restricts them further to the domain of dependence of the window the
    consumer reads: at step k of K, the cells within (K - k - 1) * half
    cells of the window span; cells outside it are left stale,
  * runs the noise factors, and the absolute mode's noise multiply, with a
    small ufunc buffer (_row_buffers), since numpy buffers column slices of
    short rows, and
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
    cell gets the word of a full-row fill, and turns the whole (B, n) word
    table into normals with one noise._uniforms_to_normals call per step,
    the idiom green.shift_identity_samples uses.  The inverse CDF (ndtri)
    transforms every cell of every row, because the benchmark's count model
    pins the number of variates.  Cells outside [c0, c1) hold the words of
    an earlier step of the run, or, if never drawn, the word whose normal
    is exactly 0.0, which takes ndtri's fast central branch.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d
from scipy.optimize import brentq
from scipy.sparse import csr_array
from scipy.special import logsumexp

from . import noise
from .kernels import log_heat_kernel

__all__ = [
    "GridSpec",
    "heat_step",
    "noise_step",
    "evolve",
    "log_residual",
    "heat_step_weights",
    "discrete_kernel_log",
    "underflow_radius",
    "read_radius",
    "tilted_variance_ratio",
]

# kernel taps are dropped below exp(-92) ~ 1e-40 of the peak
_TAP_LOG_CUT = 92.0

_LOG_FLOOR = -1.0e30  # stand-in for log(0) in the relative engine

# the absolute engine flushes Z where the noise-free field is below
# exp(-_FLUSH_LOG), 40 nats above the smallest normal float64 (2^-1022 ~
# exp(-708.4)); its reads stay where it is above exp(-_READ_LOG)
_FLUSH_LOG = 668.0
_READ_LOG = 600.0


@dataclass(frozen=True)
class GridSpec:
    """The cells j dx, |j| <= L/dx, of [-L, L], L a positive multiple of dx so
    that one cell is x = 0; Z is zero outside them (the truncation rule keeps
    that edge out of reach)."""

    dx: float
    half_width: float
    dt: float

    def __post_init__(self):
        for name in ("dx", "half_width", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if self.dx <= 0 or self.half_width <= 0 or self.dt <= 0:
            raise ValueError("dx, half_width, dt must be positive")
        m = self.half_width / self.dx
        if round(m) < 1 or abs(m - round(m)) > 1e-6:
            raise ValueError(f"half_width={self.half_width:g} is not a positive multiple "
                             f"of dx={self.dx:g}: the grid needs a cell at x = 0 "
                             "and one on each side")
        if self.dt > self.dx ** 2 * (1 + 1e-12):
            raise ValueError("dt must satisfy dt <= dx^2 (noise scaling)")

    @property
    def cell_count(self) -> int:
        return round(2 * self.half_width / self.dx) + 1

    def positions(self) -> np.ndarray:
        return (np.arange(self.cell_count) - (self.cell_count - 1) / 2) * self.dx

    @property
    def origin_index(self) -> int:
        """The x = 0 cell."""
        return self.cell_count // 2

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


def heat_step(grid: GridSpec, Z) -> np.ndarray:
    """Advance the deterministic heat flow of the row Z by one dt."""
    return convolve1d(Z, heat_step_weights(grid.dx, grid.dt), mode="constant",
                      cval=0.0)


def noise_step(grid: GridSpec, Z, xi) -> np.ndarray:
    """Apply the mean-one multiplicative noise factor of the standard normals
    xi (one per cell) to the row Z."""
    if xi.shape != Z.shape:
        raise ValueError(f"noise length {xi.shape} does not match grid {Z.shape}")
    return Z * noise_factors(grid, xi)


def noise_factors(grid: GridSpec, xi, out=None) -> np.ndarray:
    """Mean-one lognormal factors exp(sqrt(dt/dx) xi - dt/(2 dx)) of normals
    xi, into `out` when given (out=xi overwrites the normals in place)."""
    out = np.multiply(math.sqrt(grid.dt / grid.dx), xi, out=out)
    out -= grid.dt / (2.0 * grid.dx)
    return np.exp(out, out=out)


def evolve(grid: GridSpec, stream, t_checkpoints) -> np.ndarray:
    """Evolve Dirac data (1/dx at the origin cell), alternating heat_step and
    noise_step; returns Z with one row per checkpoint.

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
    Z = np.zeros(grid.cell_count)
    Z[grid.origin_index] = 1.0 / grid.dx
    rows = {}
    for k in range(max(ks)):
        Z = noise_step(grid, heat_step(grid, Z), stream.normals(k, grid.cell_count))
        if k + 1 in want:
            rows[k + 1] = Z
    return np.stack([rows[k] for k in ks])


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


def tilted_variance_ratio(grid: GridSpec, speed: float) -> float:
    """Variance of the heat step weights (j in cells) under the exponential
    tilt w_j exp(theta j) / M(theta) whose mean is `speed` cells per step,
    over their untilted variance dt/dx^2.

    A read at x after k steps has its kernel carried by the walk tilted to
    speed x/(k dx); a ratio below 1 means the lattice resolves fluctuations
    there with less than the continuum's variance.  The tilt is symmetric
    in the sign of `speed`; at the noise-cone edge, |speed| = taps // 2, the
    tilted walk takes only the outermost tap and the ratio is 0.
    """
    w = heat_step_weights(grid.dx, grid.dt)
    half = len(w) // 2
    speed = abs(float(speed))
    if speed > half:
        raise ValueError(f"speed {speed:g} cells/step lies outside the noise "
                         f"cone (at most {half} cells/step)")
    if speed == half:
        return 0.0
    j = np.arange(-half, half + 1)
    logw = np.log(w)

    def mean_var(theta):
        a = logw + theta * j
        p = np.exp(a - a.max())
        p /= p.sum()
        m = float(p @ j)
        return m, float(p @ (j - m) ** 2)

    hi = 1.0
    while mean_var(hi)[0] <= speed:     # the tilted mean tends to half
        hi *= 2.0
    theta = 0.0 if speed == 0.0 else brentq(lambda th: mean_var(th)[0] - speed,
                                             0.0, hi, xtol=1e-14)
    return mean_var(theta)[1] / mean_var(0.0)[1]


def discrete_kernel_log(grid: GridSpec, steps: int, start=None) -> np.ndarray:
    """The rows log K_0 ... log K_steps of the k-fold discrete heat kernel
    (cell-mass units), a (steps + 1, cell_count) table.

    Row k is the exact noise-free evolution of a unit grid delta at the x = 0
    cell under k steps of the step weights, tracked in log space;
    log(K_k/dx) - log p_t is the deterministic lattice correction to the
    mean height profile at t = k dt.  Cells the kernel has not reached carry
    a large negative sentinel.  With `start`, a log row, the rows are those
    of its heat flow instead: row k is log(C^k e^start).  This one sweep
    serves both lattice first-chaos oracles of the oracles module.
    """
    eng = _BatchEngine(grid, master_seed=0, mode="relative")
    logK = np.full((steps + 1, grid.cell_count), _LOG_FLOOR)
    if start is None:
        logK[0, grid.origin_index] = 0.0
    else:
        logK[0] = start
    for k in range(steps):
        logK[k + 1] = eng._advance_logK(logK[k])[0]
    return logK


# ---------------------------------------------------------------------------
# internal batched engine
# ---------------------------------------------------------------------------

class _BatchEngine:
    """Evolves a block of B replicates.

    mode='absolute' carries Z itself as a (B, n) matrix, flushed to exactly
    +0.0 beyond the underflow radius R(t) ~ sqrt(2 t (668 - log dx))
    (underflow_radius), so no step computes on subnormal numbers; its heat
    step is convolve1d.  mode='relative' carries V = Z dx / K_k(x), where
    K_k is the k-step discrete heat kernel, tracked in log space, as a
    cell-major (n, B) matrix.  The one-step weights of V are
    w_j K_k(x - j dx) / K_{k+1}(x), each <= 1 and summing to 1 per cell, so
    V stays O(1) over the whole noise cone and E[V] = 1 holds cell-wise
    exactly; its heat step is one CSR product per step, whose pattern, all
    23 taps of every cell, is built once per engine.  The two modes consume
    identical noise, hand `consume` (B, n) blocks, and agree on log Z
    wherever both representations are finite.
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
        self.rng = noise._FastNormals(master_seed)
        if window is None:
            self._span = (0, self.n)
        else:
            w = np.asarray(window)
            if w.size == 0 or w.min() < 0 or w.max() >= self.n:
                raise ValueError(f"window must hold cell indices in [0, {self.n})")
            self._span = (int(w.min()), int(w.max()) + 1)
        if mode == "relative":
            # the CSR pattern of one heat step on the whole grid: row i holds
            # every tap idx in tap order, reading source i + half - idx
            # clipped onto the grid; an off-grid tap's weight is exactly 0
            taps = len(self.w)
            src = np.arange(self.n)[:, None] + self.half - np.arange(taps)
            self._tap_cols = np.clip(src, 0, self.n - 1).astype(np.int32)
            self._tap_ptr = np.arange(0, taps * (self.n + 1), taps,
                                      dtype=np.int32)

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
        log(w_idx K_k(x - s dx)), s = idx - half.  Tap idx reads a slice of
        logK padded with `half` _LOG_FLOOR cells on each side, so a source
        past the Dirichlet-zero edge gives _LOG_FLOOR + log w_idx, which
        rounds to _LOG_FLOOR.  The taps are summed one row at a time, the
        order numpy's axis-0 sum takes on a wide stack; on a one-cell stack
        that sum would go pairwise and change the bits.
        """
        c1 = self.n if c1 is None else c1
        h = self.half
        padded = np.full(self.n + 2 * h, _LOG_FLOOR)
        padded[h:h + self.n] = logK
        stack = np.empty((len(self.w), c1 - c0))
        for idx in range(len(self.w)):
            np.add(padded[c0 + 2 * h - idx:c1 + 2 * h - idx],
                   np.log(self.w[idx]), out=stack[idx])
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

    def _relative_heat_step(self, V, logK, out, c0, c1):
        """One heat step of the cell-major (n, B) state V = Z dx / K_k into
        `out` on the cells [c0, c1), a run inside the noise cone of step
        k + 1; returns log K_{k+1}, exact on [c0, c1) and _LOG_FLOOR elsewhere.

        Only [c0, c1) is written: `out` must hold 0 outside the noise cone
        and may hold stale values elsewhere outside [c0, c1).  V and the tap
        weights are exactly 0 outside the cone, so the dropped terms are +0.0.
        The step is one product out[c0:c1] = M @ V with a CSR matrix M that
        holds, per row, all taps in tap order; scipy's csr_matvecs sums them
        in stored order onto a zeroed result, so every cell sums
        w_idx V[src] in tap order from 0.0.  A tap whose source is off the
        grid reads a clipped, finite V with weight exp(_LOG_FLOOR - log
        K_{k+1}) = +0.0, which adds nothing inside the cone.
        """
        logK1, tw = self._advance_logK(logK, c0, c1)
        tw -= logK1[c0:c1]             # taps x cells [c0, c1), each <= 1
        np.exp(tw, out=tw)
        M = csr_array((tw.T.ravel(), self._tap_cols[c0:c1].ravel(),
                       self._tap_ptr[:c1 - c0 + 1]), shape=(c1 - c0, self.n))
        out[c0:c1] = M @ V
        return logK1

    def run(self, replicate_ids, checkpoint_steps, consume):
        """Evolve the block and hand each checkpoint to `consume`.

        consume(step, replicate_ids, block) is called at each step in
        checkpoint_steps; in absolute mode the block is the (B, n) Z matrix,
        in relative mode a C-ordered (B, n) log Z matrix (-inf outside the
        noise cone).  The block is valid only on the window; its other cells
        are unspecified (with window=None every cell is valid).  It may be a
        view of a buffer the next step overwrites: it is valid only during
        the consume call, so a consumer that keeps it must copy it.

        The state, its swap partner, the Philox word table and the normals
        block are allocated once per run; each step writes into them, and
        draws its words, on the cells _domain names.
        """
        reps = list(replicate_ids)
        want = set(checkpoint_steps)
        last = max(checkpoint_steps)
        relative = self.mode == "relative"
        i0 = self.grid.origin_index
        h = self.half
        # V (relative, cell-major (n, B)) or Z (absolute, (B, n)), and the
        # buffer the next step writes; both start zeroed: no step writes a
        # cell outside the noise cone (in absolute mode, the underflow
        # radius) other than with +0.0
        shape = (self.n, len(reps)) if relative else (len(reps), self.n)
        X, Y = np.zeros(shape), np.zeros(shape)
        # the word 2^52 maps to the normal 0.0, so a cell never drawn takes
        # ndtri's fast central branch; the word 0 would send it down the slow
        # tail branch
        words = np.full((len(reps), self.n), 1 << 52, dtype=np.uint64)
        xi = np.empty((len(reps), self.n))
        if relative:
            logK = np.full(self.n, _LOG_FLOOR)
            logK[i0] = 0.0
            X[i0] = 1.0
            logdx = np.log(self.grid.dx)
        else:
            X[:, i0] = 1.0 / self.grid.dx
        for k in range(last):
            c0, c1 = self._domain(k, last)
            if relative:
                logK = self._relative_heat_step(X, logK, Y, c0, c1)
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
            for row, rid in zip(words, reps):
                self.rng.fill_u53(row[c0:c1], rid, k, c0)
            noise._uniforms_to_normals(words, out=xi)
            # X is exactly 0 outside the cone and the underflow radius, so
            # only [c0, c1) is multiplied
            xl = xi[:, c0:c1]
            with _row_buffers():
                noise_factors(self.grid, xl, out=xl)
                if not relative:
                    X[:, c0:c1] *= xl
            if relative:
                # the transposed multiply runs faster with numpy's own buffer
                X[c0:c1] *= xl.T
            if k + 1 in want:
                block = X
                if relative:
                    # a C-ordered (B, n) copy, also when B = 1 makes X.T
                    # contiguous already: the log runs on the layout it
                    # always had, and never on the state
                    block = X.T.copy()
                    with np.errstate(divide="ignore"):
                        np.log(block, out=block)
                    block += logK - logdx
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
