"""Green's functions of the SHE propagated through one shared noise realization.

A source (s, y) is the solution started from a Dirac mass 1/dx at cell y
just before step s.  All sources of one replicate take the same noise
factors, read from one (steps, cell_count) table whose row k holds the
factors of step k, so ratios of their values estimate the shared-environment
expectations directly.

Two propagation directions are used:

  * forward: _forward sweeps every row of a (sources, cell_count) block over
    a range of steps; a caller writes a source's Dirac mass into its zero
    row before that source's first step.  convolve1d treats each row on its
    own, so a sweep of some rows gives them the bits of a sweep of the whole
    block: the shift driver sweeps only the (0, 0) row over [0, s), while
    the (s, y) row is still zero, and both rows from s on.
  * adjoint: the one-replicate propagator is a product of symmetric
    convolutions and diagonal noise factors, so one backward pass from a
    probe cell yields G(t, x_probe; s, z) for *every* source position z at
    once.  That is what makes the z-integral of the shift identity a single
    dx-weighted grid sum instead of one simulation per grid cell.  It is
    the forward sweep over the factor rows in reverse, plus one convolution.

Each sweep writes into two buffers allocated once per sweep: the heat step
convolves into the spare one (convolve1d(output=)), the two swap, and the
noise factors multiply in place.  The forward pass overwrites the `fields`
it is given; the adjoint pass leaves its input row as it was, and its
last convolution allocates its result.  The operations and their order are
those of the allocating form, so every value keeps its bits.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import convolve1d

from . import noise
from .kernels import heat_kernel
from .noise import _FastNormals
from .sim import GridSpec, heat_step_weights, noise_factors

__all__ = [
    "shift_identity_samples",
    "shift_window_cut",
]

# z-cells whose Gaussian weight falls below this fraction of the peak are
# dropped from the shift-identity integral
_WEIGHT_CUT = 1e-12


def _forward(grid, fields, factors, k0, k1):
    """Advance the rows of `fields`, a (sources, n) block or one (n,) row,
    from step k0 to step k1.

    Step k convolves every row with the heat step and multiplies it by the
    noise factors factors[k].  A zero row stays zero, since both steps fix
    zero.  `fields` is overwritten: the steps alternate between it and one
    spare buffer, and the result is either of the two.
    """
    w = heat_step_weights(grid.dx, grid.dt)
    spare = np.empty_like(fields)
    for f in factors[k0:k1]:
        convolve1d(fields, w, axis=-1, output=spare, mode="constant", cval=0.0)
        fields, spare = spare, fields
        fields *= f
    return fields


def _adjoint(grid, v, factors, k0, k1):
    """Apply the transposed steps k1 - 1 down to k0 to the row v (unchanged).

    The forward propagator over those steps is M = prod_k (N_k C) with C
    the symmetric heat convolution and N_k the diagonal noise factors, so
    M^T v = C N_k0 ... C N_{k1-1} v: the forward sweep of N_{k1-1} v over
    the factors of steps k1 - 2 down to k0, then one more convolution.
    """
    swept = _forward(grid, v * factors[k1 - 1], factors[k0:k1 - 1][::-1], 0, k1 - 1 - k0)
    return convolve1d(swept, heat_step_weights(grid.dx, grid.dt), mode="constant", cval=0.0)


def _shift_terms(grid, t, s, x, y):
    """At probe (x, y): the z-weight p_{s(t-s)/t}(z + y - (s/t) x), the mask
    of the z it keeps, their z + y cells, p_{t-s}(x - y), p_t(x), and, on the
    kept z, p_{t-s}(z) and p_s(z + y)."""
    z = grid.positions()
    w_gauss = heat_kernel(s * (t - s) / t, z + y - (s / t) * x)
    keep = w_gauss > w_gauss.max() * _WEIGHT_CUT
    zy = np.flatnonzero(keep) + (grid.index_of(y) - grid.origin_index)
    return (w_gauss, keep, zy, heat_kernel(t - s, x - y), heat_kernel(t, x),
            heat_kernel(t - s, z[keep]), heat_kernel(s, z[keep] + y))


def shift_window_cut(grid: GridSpec, t: float, s: float, x: float, y: float):
    """Why shift_identity_samples refuses the probe (x, y) at times s < t,
    or None: times off the dt lattice or not 0 < s < t, a probe off the
    grid, a z-window that is empty, leaves the grid or is cut by the
    truncation rule, a heat kernel either side divides by that is 0, or a
    probe past the truncation rule, half_width >= max(|x|, |y|) + 8 sqrt(t)."""
    try:
        kt, ks, _, _ = grid.step_of(t), grid.step_of(s), grid.index_of(x), grid.index_of(y)
    except ValueError as e:
        return str(e)
    if not 0 < ks < kt:
        return "need 0 < s < t on the dt lattice"
    _, _, zy, *kernels = _shift_terms(grid, t, s, x, y)
    if not zy.size or zy[0] < 0 or zy[-1] >= grid.cell_count:
        return "the Gaussian z-window is empty or z + y leaves the grid"
    centre = abs((s / t) * x - y)
    if not grid.covers(s * (t - s) / t, centre):
        return (f"the rhs z-window around z = {centre:g} is cut by the grid "
                f"edge at {grid.half_width:g}")
    if any(np.any(p == 0.0) for p in kernels):
        return "probe configuration reaches heat-kernel underflow"
    return grid.truncation_cut(t, max(abs(x), abs(y)))


def shift_identity_samples(grid: GridSpec, replicate_ids, t: float, s: float,
                           x: float, y: float, master_seed: int = 0):
    """Per-replicate (lhs, rhs) samples of the shift identity.

    Returns (lhs array, rhs array, n_dropped); replicates where any required
    value underflows are dropped and counted.  Shardable over replicate_ids:
    disjoint id sets concatenate to the full-sample result.

    One merged forward pass carries both sources (0,0) and (s,y) and
    checkpoints the (0,0) field at time s; one adjoint pass supplies the
    whole G(t,0;s,.) family.  Identical noise coordinates throughout.
    Raises ValueError with the reason shift_window_cut gives when it
    refuses the probe.
    """
    cut = shift_window_cut(grid, t, s, x, y)
    if cut:
        raise ValueError(cut)
    kt, ks = grid.step_of(t), grid.step_of(s)
    n = grid.cell_count
    ix, iy, i0 = grid.index_of(x), grid.index_of(y), grid.origin_index
    w_gauss, keep, zy, p_ts_xy, p_t_x, p_ts_z, p_s_zy = _shift_terms(grid, t, s, x, y)
    p_ts_0 = heat_kernel(t - s, 0.0)

    rng = _FastNormals(master_seed)
    lhs_vals, rhs_vals = [], []
    dropped = 0
    words = np.empty((kt, n), dtype=np.uint64)
    factors = np.empty((kt, n))         # row k: the noise factors of step k
    e0 = np.zeros(n)                    # the adjoint's start row, at x = 0
    e0[i0] = 1.0
    for rep in replicate_ids:
        for k, row in enumerate(words):
            rng.fill_u53(row, rep, k)
        noise._uniforms_to_normals(words, out=factors)
        noise_factors(grid, factors, out=factors)
        F = np.zeros((2, n))            # row 0: source (0,0); row 1: (s,y)
        F[0, i0] = 1.0 / grid.dx
        # row 1 is zero until the (s,y) source enters at step ks, so
        # [0, ks) sweeps row 0 only (same bits; see the module docstring)
        F[:1] = _forward(grid, F[:1], factors, 0, ks)
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

