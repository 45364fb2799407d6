"""Operator-splitting simulation of the stochastic heat equation.

One time step is (exact-in-law to first order, positivity preserving):

  1. heat_step: convolve with a nonnegative probability kernel w.  w is the
     grid-sampled Gaussian with its width tuned so the *discrete* variance of
     w equals dt exactly, then normalized to unit mass.  This keeps every
     cell nonnegative (a spectral multiplier does not: from Dirac data it
     rings negative near the spike), conserves mass exactly on a periodic
     grid, and evolves Dirac data to the exact Gaussian profile up to an
     O(dt) quartic-cumulant correction, second order in dx at dt = dx^2/2.

  2. noise_step: multiply cell j by exp(sqrt(dt/dx) xi_j - dt/(2 dx)), the
     mean-one lognormal increment of the Ito multiplicative term on one cell.

Fields are plain arrays of Z values.  For probes far outside the diffusive
scale (|x| >> sqrt(t)), Z underflows while Z/p_t stays O(1); the internal
batch engine has a kernel-relative mode for that regime (see _BatchEngine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d
from scipy.optimize import brentq

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
    "heat_step_weights",
    "discrete_kernel_log",
]

BOUNDARIES = ("dirichlet_zero", "periodic")

# kernel taps are dropped below exp(-92) ~ 1e-40 of the peak
_TAP_LOG_CUT = 92.0

_LOG_FLOOR = -1.0e30  # stand-in for log(0) in the relative engine


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-L, L] with cell_count = round(2L/dx) + 1 cells."""

    dx: float
    half_width: float
    dt: float
    boundary: str = "dirichlet_zero"

    def __post_init__(self):
        if self.dx <= 0 or self.half_width <= 0 or self.dt <= 0:
            raise ValueError("dx, half_width, dt must be positive")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
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

    def covers(self, t_max: float, x_max: float) -> bool:
        """Truncation rule: L >= x_max + 8 sqrt(t_max)."""
        return self.half_width >= x_max + 8.0 * np.sqrt(t_max) - 1e-9


def default_grid(dx, half_width, boundary="dirichlet_zero") -> GridSpec:
    """Grid with the default time step dt = dx^2 / 2."""
    return GridSpec(dx=dx, half_width=half_width, dt=dx * dx / 2, boundary=boundary)


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


def _conv_mode(boundary: str) -> str:
    return "wrap" if boundary == "periodic" else "constant"


def init_dirac(grid: GridSpec) -> Field:
    """Dirac mass at the origin: 1/dx at the cell nearest 0, zero elsewhere."""
    values = np.zeros(grid.cell_count)
    values[grid.origin_index] = 1.0 / grid.dx
    return Field(grid=grid, time=0.0, values=values)


def heat_step(field: Field) -> Field:
    """Advance the deterministic heat flow by one dt."""
    g = field.grid
    w = heat_step_weights(g.dx, g.dt)
    out = convolve1d(field.values, w, mode=_conv_mode(g.boundary), cval=0.0)
    return Field(grid=g, time=field.time + g.dt, values=out)


def noise_step(field: Field, noise_slice) -> Field:
    """Apply the mean-one multiplicative noise factor; time is unchanged."""
    g = field.grid
    xi = noise_slice.values
    if xi.shape != field.values.shape:
        raise ValueError(
            f"noise slice length {xi.shape} does not match grid {field.values.shape}"
        )
    return Field(grid=g, time=field.time, values=field.values * noise_factors(g, xi))


def noise_factors(grid: GridSpec, xi) -> np.ndarray:
    """Mean-one lognormal factors exp(sqrt(dt/dx) xi - dt/(2 dx)) of normals xi."""
    return np.exp(math.sqrt(grid.dt / grid.dx) * xi - grid.dt / (2.0 * grid.dx))


def evolve(grid: GridSpec, stream, t_checkpoints) -> list[Field]:
    """Evolve Dirac data, alternating heat_step and noise_step.

    Checkpoint times must be positive multiples of dt.  `stream` is anything
    with a .normals(step_index, cell_count) method (NoiseStream, ZeroNoise).
    Deterministic in (grid, stream).
    """
    from .noise import draw_slice

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
        f = noise_step(f, draw_slice(stream, k, grid.cell_count))
        if k + 1 in want:
            out[k + 1] = Field(grid=grid, time=f.time, values=f.values.copy())
    return [out[k] for k in ks]


def height_residual(field: Field) -> HeightResidual:
    """r(x) = log Z - log p_t(x) with underflowed cells masked invalid."""
    if field.time <= 0.0:
        raise ValueError("height residual requires time > 0")
    valid = field.values > 0.0
    vals = np.full(field.values.shape, np.nan)
    logp = log_heat_kernel(field.time, field.grid.positions())
    vals[valid] = np.log(field.values[valid]) - logp[valid]
    return HeightResidual(grid=field.grid, time=field.time, values=vals, valid=valid)


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

    mode='absolute' carries Z itself (valid while |x| <~ 37 sqrt(t), the
    float64 underflow radius).  mode='relative' carries V = Z dx / K_k(x),
    where K_k is the k-step discrete heat kernel, tracked in log space.  The
    one-step weights of V are w_j K_k(x - j dx) / K_{k+1}(x), each <= 1 and
    summing to 1 per cell, so V stays O(1) over the whole noise cone and
    E[V] = 1 holds cell-wise exactly.  The two modes consume identical noise
    and agree on log Z wherever both representations are finite.
    """

    def __init__(self, grid: GridSpec, master_seed: int, mode: str = "absolute"):
        if mode not in ("absolute", "relative"):
            raise ValueError("mode must be 'absolute' or 'relative'")
        self.grid = grid
        self.mode = mode
        self.n = grid.cell_count
        self.w = heat_step_weights(grid.dx, grid.dt)
        self.half = len(self.w) // 2
        self.rng = _FastNormals(master_seed)
        self._periodic = grid.boundary == "periodic"

    def _advance_logK(self, logK):
        """One heat step of the log discrete kernel via log-sum-exp."""
        taps = len(self.w)
        stack = np.full((taps, self.n), _LOG_FLOOR)
        for idx, s in enumerate(range(-self.half, self.half + 1)):
            if self._periodic:
                stack[idx] = np.roll(logK, s)
            elif s == 0:
                stack[idx] = logK
            elif s > 0:
                stack[idx, s:] = logK[:-s]
            else:
                stack[idx, :s] = logK[-s:]
            stack[idx] += np.log(self.w[idx])
        m = stack.max(axis=0)
        dead = m <= _LOG_FLOOR / 2
        m_safe = np.where(dead, 0.0, m)
        with np.errstate(divide="ignore"):
            logK1 = m_safe + np.log(np.exp(stack - m_safe).sum(axis=0))
        logK1[dead] = _LOG_FLOOR
        return logK1, stack

    def _relative_heat_step(self, V, logK):
        """One heat step of V = Z dx / K_k; returns (V', log K_{k+1})."""
        logK1, stack = self._advance_logK(logK)
        with np.errstate(invalid="ignore"):
            tw = np.exp(stack - logK1)  # taps x n, each <= 1
        tw[:, logK1 <= _LOG_FLOOR / 2] = 0.0
        Vn = np.zeros_like(V)
        for idx, s in enumerate(range(-self.half, self.half + 1)):
            if self._periodic:
                Vn += tw[idx] * np.roll(V, s, axis=1)
            elif s == 0:
                Vn += tw[idx] * V
            elif s > 0:
                Vn[:, s:] += tw[idx, s:] * V[:, :-s]
            else:
                Vn[:, :s] += tw[idx, :s] * V[:, -s:]
        return Vn, logK1

    def run(self, replicate_ids, checkpoint_steps, consume):
        """Evolve the block and hand each checkpoint to `consume`.

        consume(step, replicate_ids, block) is called at each step in
        checkpoint_steps; in absolute mode the block is the (B, n) Z matrix,
        in relative mode the (B, n) log Z matrix (-inf outside the noise
        cone).
        """
        reps = list(replicate_ids)
        want = set(checkpoint_steps)
        relative = self.mode == "relative"
        i0 = self.grid.origin_index
        X = np.zeros((len(reps), self.n))     # V (relative) or Z (absolute)
        if relative:
            logK = np.full(self.n, _LOG_FLOOR)
            logK[i0] = 0.0
            X[:, i0] = 1.0
            logdx = np.log(self.grid.dx)
        else:
            X[:, i0] = 1.0 / self.grid.dx
            mode = _conv_mode(self.grid.boundary)
        for k in range(max(checkpoint_steps)):
            if relative:
                X, logK = self._relative_heat_step(X, logK)
            else:
                X = convolve1d(X, self.w, axis=1, mode=mode, cval=0.0)
            # xi stays alive until the next draw: freed before the multiply,
            # its block went back to the OS and was faulted in again each
            # step (about 12% of the run at n = 801, B = 64)
            xi = self.rng.normals_block(reps, k, self.n)
            X *= noise_factors(self.grid, xi)
            if k + 1 in want:
                block = X
                if relative:
                    with np.errstate(divide="ignore"):
                        block = np.log(X) + (logK - logdx)
                consume(k + 1, reps, block)
