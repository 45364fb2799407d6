"""Green's functions of the SHE propagated through one shared noise realization.

A source (s, y) is the solution started from a Dirac mass 1/dx at cell y
just before step s.  All sources of one replicate take the same noise
factors, read from one (steps, cell_count) table whose row k holds the
factors of step k, so ratios of their values estimate the shared-environment
expectations directly.

Two propagation directions are used:

  * forward: _forward sweeps every row of a (sources, cell_count) block over
    a range of steps; a caller writes a source's Dirac mass into its zero
    row before that source's first step.
  * adjoint: the one-replicate propagator is a product of symmetric
    convolutions and diagonal noise factors, so one backward pass from a
    probe cell yields G(t, x_probe; s, z) for *every* source position z at
    once.  That is what makes the z-integral of the shift identity a single
    dx-weighted grid sum instead of one simulation per grid cell.

Each pass writes into two buffers allocated once per pass: the heat step
convolves into the spare one (convolve1d(output=)), the two swap, and the
noise factors multiply in place.  The forward pass overwrites the `fields`
it is given; the adjoint pass copies its input row once and leaves it as
it was.  The operations and their order are those of the allocating form,
so every value keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from . import noise
from .kernels import heat_kernel
from .noise import _FastNormals
from .sim import GridSpec, heat_step_weights, noise_factors
from .stats import mean_se

__all__ = [
    "ShiftIdentityCheck",
    "shift_identity_samples",
    "shift_window_cut",
]

# z-cells whose Gaussian weight falls below this fraction of the peak are
# dropped from the shift-identity integral
_WEIGHT_CUT = 1e-12


@dataclass
class ShiftIdentityCheck:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    n_used: int
    n_dropped: int

    @classmethod
    def from_samples(cls, lhs, rhs, dropped: int) -> "ShiftIdentityCheck":
        """Means and SEs of the per-replicate (lhs, rhs) samples of
        shift_identity_samples; `dropped` counts the replicates left out."""
        lhs_m, lhs_se = mean_se(lhs)
        rhs_m, rhs_se = mean_se(rhs)
        return cls(lhs=float(lhs_m), lhs_se=float(lhs_se), rhs=float(rhs_m),
                   rhs_se=float(rhs_se), n_used=len(lhs), n_dropped=int(dropped))

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lhs_se, self.rhs_se)


def _forward(grid, fields, factors, k0, k1):
    """Advance the rows of `fields` from step k0 to step k1.

    Step k convolves every row with the heat step and multiplies it by the
    noise factors factors[k].  A zero row stays zero, since both steps fix
    zero.  `fields` is overwritten: the steps alternate between it and one
    spare buffer, and the result is either of the two.
    """
    w = heat_step_weights(grid.dx, grid.dt)
    spare = np.empty_like(fields)
    for k in range(k0, k1):
        convolve1d(fields, w, axis=1, output=spare, mode="constant", cval=0.0)
        fields, spare = spare, fields
        fields *= factors[k]
    return fields


def _adjoint(grid, v, factors, k0, k1):
    """Apply the transposed steps k1 - 1 down to k0 to the row v.

    The forward propagator over those steps is M = prod_k (N_k C) with C
    the symmetric heat convolution and N_k the diagonal noise factors, so
    M^T v is one backward sweep: multiply by N_k, then convolve.  The sweep
    runs in a copy of v and one spare buffer; v itself is left unchanged.
    """
    w = heat_step_weights(grid.dx, grid.dt)
    v = v.copy()
    spare = np.empty_like(v)
    for k in range(k1 - 1, k0 - 1, -1):
        v *= factors[k]
        convolve1d(v, w, output=spare, mode="constant", cval=0.0)
        v, spare = spare, v
    return v


def shift_window_cut(grid: GridSpec, t: float, s: float, x: float, y: float):
    """Why the grid cuts the rhs z-window of the shift identity at probe
    (x, y), or None: the Gaussian p_{s(t-s)/t}(z + y - (s/t) x) summed over
    grid cells z must pass the grid's truncation rule."""
    centre = abs((s / t) * x - y)
    if not grid.covers(s * (t - s) / t, centre):
        return (f"the rhs z-window around z = {centre:g} is cut by the grid "
                f"edge at {grid.half_width:g}")
    return None


def shift_identity_samples(grid: GridSpec, replicate_ids, t: float, s: float,
                           x: float, y: float, master_seed: int = 0):
    """Per-replicate (lhs, rhs) samples of the shift identity.

    Returns (lhs array, rhs array, n_dropped); replicates where any required
    value underflows are dropped and counted.  Shardable over replicate_ids:
    disjoint id sets concatenate to the full-sample result.

    One merged forward pass carries both sources (0,0) and (s,y) and
    checkpoints the (0,0) field at time s; one adjoint pass supplies the
    whole G(t,0;s,.) family.  Identical noise coordinates throughout.
    Raises ValueError when no z-cell carries Gaussian weight, a kept z + y
    cell lies outside the grid, or shift_window_cut finds the window cut.
    """
    kt, ks = grid.step_of(t), grid.step_of(s)
    if not 0 < ks < kt:
        raise ValueError("need 0 < s < t on the dt lattice")
    n = grid.cell_count
    ix = grid.index_of(x)
    iy = grid.index_of(y)
    i0 = grid.origin_index
    z = grid.positions()
    w_gauss = heat_kernel(s * (t - s) / t, z + y - (s / t) * x)
    keep = w_gauss > w_gauss.max() * _WEIGHT_CUT
    zy = np.flatnonzero(keep) + (iy - i0)     # cells of z + y
    if not zy.size or zy[0] < 0 or zy[-1] >= n:
        raise ValueError("the Gaussian z-window is empty or z + y leaves the grid")
    cut = shift_window_cut(grid, t, s, x, y)
    if cut:
        raise ValueError(cut)

    p_ts_xy = heat_kernel(t - s, x - y)
    p_t_x = heat_kernel(t, x)
    p_ts_0 = heat_kernel(t - s, 0.0)
    p_ts_z = heat_kernel(t - s, z[keep])      # |0 - z| symmetric
    p_s_zy = heat_kernel(s, z[keep] + y)
    if min(p_ts_xy, p_t_x) == 0.0 or np.any(p_ts_z == 0.0) or np.any(p_s_zy == 0.0):
        raise ValueError("probe configuration reaches heat-kernel underflow")

    rng = _FastNormals(master_seed)
    lhs_vals, rhs_vals = [], []
    dropped = 0
    words = np.empty((kt, n), dtype=np.uint64)
    factors = np.empty((kt, n))         # row k: the noise factors of step k
    e0 = np.zeros(n)                    # the adjoint's start row, at x = 0
    e0[i0] = 1.0
    for rep in replicate_ids:
        for k in range(kt):
            rng.fill_u53(words[k], rep, k)
        noise._uniforms_to_normals(words, out=factors)
        noise_factors(grid, factors, out=factors)
        F = np.zeros((2, n))            # row 0: source (0,0); row 1: (s,y)
        F[0, i0] = 1.0 / grid.dx
        F = _forward(grid, F, factors, 0, ks)
        zs = F[0, zy]                                    # Z_s(z + y)
        F[1, iy] = 1.0 / grid.dx
        F = _forward(grid, F, factors, ks, kt)
        den = F[0, ix]
        num = F[1, ix]
        row = _adjoint(grid, e0, factors, ks, kt) / grid.dx
        gb_t = row[keep] / p_ts_z
        gb_s = zs / p_s_zy
        denom = float((w_gauss[keep] * gb_t * gb_s).sum() * grid.dx)
        if den <= 0.0 or denom <= 0.0 or row[i0] <= 0.0:
            dropped += 1
            continue
        lhs_vals.append((num / p_ts_xy) / (den / p_t_x))
        rhs_vals.append((row[i0] / p_ts_0) / denom)
    return np.array(lhs_vals), np.array(rhs_vals), dropped

