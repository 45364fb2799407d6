"""Green's functions of the SHE propagated through one shared noise realization.

A source (s, y) is the solution started from a Dirac mass at position y at
time s; all sources of one replicate consume the identical noise slices, so
ratios of their values estimate the shared-environment expectations directly.

Two propagation directions are used:

  * forward: evolve delta_y from step k_s, probing the field at the final
    time (one pass per source).
  * adjoint: the one-replicate propagator is a product of symmetric
    convolutions and diagonal noise factors, so one backward pass from a
    probe cell yields G(t, x_probe; s, z) for *every* source position z at
    once.  That is what makes the z-integral of the shift identity a single
    dx-weighted grid sum instead of one simulation per grid cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .kernels import heat_kernel
from .noise import NoiseStream, _FastNormals
from .sim import Field, GridSpec, _conv_mode, heat_step_weights, noise_factors

__all__ = [
    "GreenField",
    "MomentEstimate",
    "ShiftIdentityCheck",
    "evolve_shared",
    "green_row_adjoint",
    "gbar_value",
    "estimate_gbar_moment",
    "shift_identity_samples",
    "verify_shift_identity",
    "estimate_g",
]

# z-cells whose Gaussian weight falls below this fraction of the peak are
# dropped from the shift-identity integral
_WEIGHT_CUT = 1e-12


@dataclass
class GreenField:
    """Solution started from delta_y at time s, evolved to field.time."""

    source_time: float
    source_position: float
    field: Field


@dataclass
class MomentEstimate:
    value: float
    se: float
    n: int
    reliable: bool


@dataclass
class ShiftIdentityCheck:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    n_used: int
    n_dropped: int

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lhs_se, self.rhs_se)


def _stream_factors(grid, stream):
    """factors(k): the noise factors of step k drawn from `stream`."""
    return lambda k: noise_factors(grid, stream.normals(k, grid.cell_count))


def _forward(grid, fields, starts, factors, k0, k1):
    """Advance the rows of `fields` from step k0 to step k1.

    Row i receives its Dirac mass 1/dx at cell starts[i][1] just before step
    starts[i][0]; rows not yet activated are identically zero, and both the
    heat step and the noise step fix zero.  Every row takes the same noise
    factors(k) at step k.
    """
    w = heat_step_weights(grid.dx, grid.dt)
    mode = _conv_mode(grid.boundary)
    for k in range(k0, k1):
        for i, (ks, iy) in enumerate(starts):
            if ks == k:
                fields[i, iy] = 1.0 / grid.dx
        fields = convolve1d(fields, w, axis=1, mode=mode, cval=0.0)
        fields *= factors(k)[None, :]
    return fields


def _adjoint(grid, v, factors, k0, k1):
    """Apply the transposed steps k1 - 1 down to k0 to the row v.

    The forward propagator over those steps is M = prod_k (N_k C) with C
    the symmetric heat convolution and N_k the diagonal noise factors, so
    M^T v is one backward sweep: multiply by N_k, then convolve.
    """
    w = heat_step_weights(grid.dx, grid.dt)
    mode = _conv_mode(grid.boundary)
    for k in range(k1 - 1, k0 - 1, -1):
        v = v * factors(k)
        v = convolve1d(v, w, mode=mode, cval=0.0)
    return v


def evolve_shared(grid: GridSpec, stream, sources, t_final: float) -> list[GreenField]:
    """Evolve every source through the same noise to t_final.

    sources is a list of (s, y) pairs with s on the dt lattice, s < t_final,
    and y on the dx lattice.  A source at (0, 0) reproduces sim.evolve
    bit-for-bit (identical operations on identical noise).
    """
    k_final = grid.step_of(t_final)
    starts = []
    for (s, y) in sources:
        ks = grid.step_of(s)
        if not 0 <= ks < k_final:
            raise ValueError(f"source time {s} not in [0, t_final)")
        starts.append((ks, grid.index_of(y)))
    fields = _forward(grid, np.zeros((len(sources), grid.cell_count)), starts,
                      _stream_factors(grid, stream), 0, k_final)
    t_final = k_final * grid.dt
    return [
        GreenField(source_time=s, source_position=y,
                   field=Field(grid=grid, time=t_final, values=fields[i].copy()))
        for i, (s, y) in enumerate(sources)
    ]


def green_row_adjoint(grid: GridSpec, stream, x_probe: float,
                      s: float, t: float) -> np.ndarray:
    """G(t, x_probe; s, z) for every grid cell z, via one backward pass.

    The requested values form the x_probe row of the forward propagator M
    over [s, t], divided by dx, i.e. M^T e / dx.
    """
    ks, kt = grid.step_of(s), grid.step_of(t)
    if not 0 <= ks < kt:
        raise ValueError("need s < t on the dt lattice")
    v = np.zeros(grid.cell_count)
    v[grid.index_of(x_probe)] = 1.0
    return _adjoint(grid, v, _stream_factors(grid, stream), ks, kt) / grid.dx


def gbar_value(gf: GreenField, x: float) -> float:
    """Normalized Green value G(t,x;s,y) / p_{t-s}(x-y) for one replicate."""
    dtv = gf.field.time - gf.source_time
    p = heat_kernel(dtv, x - gf.source_position)
    if p == 0.0:
        raise ValueError("p_{t-s}(x-y) underflows at this probe")
    return float(gf.field.values[gf.field.grid.index_of(x)]) / p


def estimate_gbar_moment(ensemble, x: float, k: int) -> MomentEstimate:
    """Monte Carlo estimate of E[(G(t,x;s,y)/p_{t-s}(x-y))^k] with SE.

    `ensemble` is a sequence of GreenField replicates from one source.  An
    estimate whose relative SE exceeds 1 (or with a single replicate) is
    flagged unreliable rather than raising.
    """
    if k < 1:
        raise ValueError("moment order k must be a positive integer")
    vals = np.array([gbar_value(gf, x) ** k for gf in ensemble])
    m = int(vals.size)
    mean = float(vals.mean())
    if m < 2:
        return MomentEstimate(value=mean, se=float("nan"), n=m, reliable=False)
    se = float(vals.std(ddof=1) / np.sqrt(m))
    reliable = se <= abs(mean) if mean != 0.0 else False
    return MomentEstimate(value=mean, se=se, n=m, reliable=reliable)


def _shift_cells(arr, cells):
    """Translate so that out[i] = arr[i + cells], zero-filled."""
    out = np.zeros_like(arr)
    if cells == 0:
        out[:] = arr
    elif cells > 0:
        out[:-cells] = arr[cells:]
    else:
        out[-cells:] = arr[:cells]
    return out


def shift_identity_samples(grid: GridSpec, replicate_ids, t: float, s: float,
                           x: float, y: float, master_seed: int = 0):
    """Per-replicate (lhs, rhs) samples of the shift identity.

    Returns (lhs array, rhs array, n_dropped); replicates where any required
    value underflows are dropped and counted.  Shardable over replicate_ids:
    disjoint id sets concatenate to the full-sample result.

    One merged forward pass carries both sources (0,0) and (s,y) and
    checkpoints the (0,0) field at time s; one adjoint pass supplies the
    whole G(t,0;s,.) family.  Identical noise coordinates throughout.
    """
    kt, ks = grid.step_of(t), grid.step_of(s)
    if not 0 < ks < kt:
        raise ValueError("need 0 < s < t on the dt lattice")
    n = grid.cell_count
    ix = grid.index_of(x)
    iy = grid.index_of(y)
    i0 = grid.origin_index
    shift = iy - i0
    z = grid.positions()
    w_gauss = heat_kernel(s * (t - s) / t, z + y - (s / t) * x)
    keep = w_gauss > w_gauss.max() * _WEIGHT_CUT

    p_ts_xy = heat_kernel(t - s, x - y)
    p_t_x = heat_kernel(t, x)
    p_ts_0 = heat_kernel(t - s, 0.0)
    p_ts_z = heat_kernel(t - s, z[keep])      # |0 - z| symmetric
    p_s_zy = heat_kernel(s, z[keep] + y)
    if min(p_ts_xy, p_t_x) == 0.0 or np.any(p_ts_z == 0.0) or np.any(p_s_zy == 0.0):
        raise ValueError("probe configuration reaches heat-kernel underflow")

    rng = _FastNormals(master_seed)
    starts = [(0, i0), (ks, iy)]        # row 0: source (0,0); row 1: (s,y)
    lhs_vals, rhs_vals = [], []
    dropped = 0
    for rep in replicate_ids:
        factors = noise_factors(
            grid, np.vstack([rng.normals_block([rep], k, n) for k in range(kt)]))
        F = _forward(grid, np.zeros((2, n)), starts, factors.__getitem__, 0, ks)
        z_field = F[0].copy()
        F = _forward(grid, F, starts, factors.__getitem__, ks, kt)
        den = F[0, ix]
        num = F[1, ix]
        v = np.zeros(n)
        v[i0] = 1.0
        row = _adjoint(grid, v, factors.__getitem__, ks, kt) / grid.dx
        zs = _shift_cells(z_field, shift)[keep]          # Z_s(z + y)
        gb_t = row[keep] / p_ts_z
        gb_s = zs / p_s_zy
        denom = float((w_gauss[keep] * gb_t * gb_s).sum() * grid.dx)
        if den <= 0.0 or denom <= 0.0 or row[i0] <= 0.0:
            dropped += 1
            continue
        lhs_vals.append((num / p_ts_xy) / (den / p_t_x))
        rhs_vals.append((row[i0] / p_ts_0) / denom)
    return np.array(lhs_vals), np.array(rhs_vals), dropped


def verify_shift_identity(grid: GridSpec, m_replicates: int, t: float, s: float,
                          x: float, y: float, master_seed: int = 0) -> ShiftIdentityCheck:
    """Estimate both sides of the Green-function shift identity.

    lhs:  E[ Gbar(t,x;s,y) / Gbar(t,x;0,0) ], shared-noise sources (s,y), (0,0).
    rhs:  E[ Gbar(t,0;s,0) / integral dz p_{s(t-s)/t}(z + y - (s/t)x)
             * Gbar(t,0;s,z) * Gbar(s,z+y;0,0) ],
    with the z-integral realized as a dx-weighted grid sum; the Gbar(t,0;s,z)
    family comes from one adjoint pass per replicate.
    """
    lhs_vals, rhs_vals, dropped = shift_identity_samples(
        grid, range(m_replicates), t, s, x, y, master_seed)
    m = lhs_vals.size
    return ShiftIdentityCheck(
        lhs=float(lhs_vals.mean()),
        lhs_se=float(lhs_vals.std(ddof=1) / np.sqrt(m)),
        rhs=float(rhs_vals.mean()),
        rhs_se=float(rhs_vals.std(ddof=1) / np.sqrt(m)),
        n_used=int(m),
        n_dropped=dropped,
    )


def estimate_g(grid: GridSpec, m_replicates: int, t: float, x: float, y: float,
               master_seed: int = 0) -> MomentEstimate:
    """Estimate g_t(x,y) = E[Gbar(t,x;0,y) / Gbar(t,x;0,0)].

    Per-replicate ratios under shared noise.  For y = 0 numerator and
    denominator are the same evolved array, so every ratio is exactly 1.
    """
    p_num = heat_kernel(t, x - y)
    p_den = heat_kernel(t, x)
    if p_num == 0.0 or p_den == 0.0:
        raise ValueError("probe configuration reaches heat-kernel underflow")
    ix = grid.index_of(x)
    vals = []
    dropped = 0
    for rep in range(m_replicates):
        stream = NoiseStream(master_seed, rep)
        if y == 0.0:
            gf = evolve_shared(grid, stream, [(0.0, 0.0)], t)[0]
            num = den = gf.field.values[ix]
        else:
            gf_y, gf_0 = evolve_shared(grid, stream, [(0.0, y), (0.0, 0.0)], t)
            num, den = gf_y.field.values[ix], gf_0.field.values[ix]
        if den <= 0.0 or num <= 0.0:
            dropped += 1
            continue
        vals.append((num / p_num) / (den / p_den))
    vals = np.array(vals)
    m = vals.size
    se = float(vals.std(ddof=1) / np.sqrt(m)) if m > 1 else float("nan")
    return MomentEstimate(value=float(vals.mean()), se=se, n=int(m),
                          reliable=bool(m > 1 and se <= abs(vals.mean())))
