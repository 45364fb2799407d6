import hashlib
import math
import re

import numpy as np
import pytest

from shelab.experiments import _gbar
from shelab.green import _adjoint, _forward, shift_identity_samples
from shelab.kernels import heat_kernel
from shelab.noise import NoiseStream, ZeroNoise
from shelab.sim import GridSpec, default_grid, evolve, heat_step, noise_factors
from shelab.stats import mean_se


@pytest.fixture
def grid():
    return GridSpec(dx=0.1, half_width=5.0, dt=0.005)


def _factor_table(grid, stream, kt):
    """Row k: the noise factors of step k drawn from `stream`."""
    n = grid.cell_count
    return np.stack([noise_factors(grid, stream.normals(k, n)) for k in range(kt)])


def _source_row(grid, factors, ks, iy, kt):
    """G(t_kt, .; s_ks, y) from a one-row sweep over steps [ks, kt)."""
    F = np.zeros((1, grid.cell_count))
    F[0, iy] = 1.0 / grid.dx
    return _forward(grid, F, factors, ks, kt)[0]


def test_origin_source_reproduces_sim_evolve(grid):
    stream = NoiseStream(6, 2)
    kt = grid.step_of(0.25)
    g = _source_row(grid, _factor_table(grid, stream, kt), 0, grid.origin_index, kt)
    ref = evolve(grid, stream, [0.25])[0]
    assert g.shape == (grid.cell_count,)
    assert np.array_equal(g, ref)


@pytest.mark.parametrize("ks", [20, 21])
def test_one_row_sweep_before_the_second_source(grid, ks):
    # the sweep of row 0 alone over [0, ks) gives it the two-row sweep's
    # bits and leaves row 1 at +0.0, for either parity of ks (the result
    # buffer alternates with it)
    i0, n = grid.origin_index, grid.cell_count
    factors = _factor_table(grid, NoiseStream(13, 1), ks)
    both = np.zeros((2, n))
    both[0, i0] = 1.0 / grid.dx
    both = _forward(grid, both, factors, 0, ks)
    F = np.zeros((2, n))
    F[0, i0] = 1.0 / grid.dx
    F[:1] = _forward(grid, F[:1], factors, 0, ks)
    assert np.array_equal(F[0], both[0])
    assert (F[1] == 0.0).all() and not np.signbit(F[1]).any()


def test_joint_vs_separate_evolution_identical(grid):
    # the shift driver's sweeps: row 0 alone from (0, 0) over [0, ks), row 1
    # written at step ks, then both rows; each row equals its one-row sweep
    kt, i0, iy = grid.step_of(0.3), grid.origin_index, grid.index_of(0.5)
    factors = _factor_table(grid, NoiseStream(13, 1), kt)
    solo0 = _source_row(grid, factors, 0, i0, kt)
    for ks in (20, 21):             # source step even and odd
        F = np.zeros((2, grid.cell_count))
        F[0, i0] = 1.0 / grid.dx
        F[:1] = _forward(grid, F[:1], factors, 0, ks)
        F[1, iy] = 1.0 / grid.dx
        F = _forward(grid, F, factors, ks, kt)
        solo1 = _source_row(grid, factors, ks, iy, kt)
        assert np.array_equal(F, np.vstack([solo0, solo1]))


def test_noise_free_source_matches_heat_flow(grid):
    s, y, t = 0.1, 0.5, 0.3
    ks, kt = grid.step_of(s), grid.step_of(t)
    g = _source_row(grid, _factor_table(grid, ZeroNoise(), kt), ks,
                    grid.index_of(y), kt)
    Z = np.zeros(grid.cell_count)
    Z[grid.index_of(y)] = 1.0 / grid.dx
    ksteps = kt - ks
    for _ in range(ksteps):
        Z = heat_step(grid, Z)
    oracle = Z * np.exp(-ksteps * grid.dt / (2 * grid.dx))
    nz = oracle > 0
    assert np.max(np.abs(g[nz] - oracle[nz]) / oracle[nz]) <= 1e-12


def test_adjoint_row_equals_forward_probes(grid):
    ks, kt = grid.step_of(0.1), grid.step_of(0.35)
    factors = _factor_table(grid, NoiseStream(21, 3), kt)
    ip = grid.index_of(0.7)
    e = np.zeros(grid.cell_count)
    e[ip] = 1.0
    row = _adjoint(grid, e, factors, ks, kt) / grid.dx
    for y in (-0.4, 0.0, 0.7, 1.2):
        fwd = _source_row(grid, factors, ks, grid.index_of(y), kt)
        assert row[grid.index_of(y)] == pytest.approx(fwd[ip], rel=1e-12)


def test_passes_leave_callers_arrays_unchanged(grid):
    # the passes work in their own buffers: neither the adjoint's input row
    # nor the noise-factor table is written, and repeated calls agree
    rng = np.random.default_rng(0)
    table = rng.uniform(0.5, 1.5, (grid.step_of(0.2), grid.cell_count))
    table_copy = table.copy()
    v = rng.uniform(0.0, 1.0, grid.cell_count)
    v_copy = v.copy()
    out = _adjoint(grid, v, table, 3, len(table))
    assert np.array_equal(v, v_copy) and not np.shares_memory(out, v)
    assert np.array_equal(_adjoint(grid, v, table, 3, len(table)), out)
    F = np.zeros((2, grid.cell_count))
    F[:, grid.origin_index] = 1.0 / grid.dx
    _forward(grid, F, table, 0, len(table))
    assert np.array_equal(table, table_copy)


def test_gbar_per_replicate_matches_she_ratio(grid):
    # the drivers' normalization of the Dirac-data field is Z(t, x) / p_t(x)
    t = 0.3
    z = evolve(grid, NoiseStream(4, 7), [t])[0]
    x = grid.positions()
    assert np.allclose(_gbar(z, t, x), z / heat_kernel(t, x),
                       rtol=1e-13, atol=0.0)


def test_estimate_gbar_moment_mean_one():
    # the diagnostics driver's path: mean_se of _gbar at the probe
    grid = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    t, x = 0.25, 0.5
    ix = grid.index_of(x)
    vals = [_gbar(evolve(grid, NoiseStream(3, r), [t])[0, ix], t, x)
            for r in range(400)]
    mean, se = mean_se(vals)
    assert 0.0 < se <= abs(mean)
    assert abs(mean - 1.0) <= 3 * se


def test_shift_identity_lattice_exact_at_origin():
    # at (x, y) = (0, 0) the rhs z-sum telescopes through the lattice
    # Chapman-Kolmogorov identity, so lhs == rhs replicate by replicate
    grid = GridSpec(dx=0.1, half_width=5.5, dt=0.005)     # 8 sqrt(0.4) = 5.06
    lhs, rhs, dropped = shift_identity_samples(grid, range(6), 0.4, 0.2, 0.0, 0.0,
                                               master_seed=17)
    assert dropped == 0
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_shift_samples_pinned():
    # bit-for-bit pin of the forward and adjoint passes of the shift driver
    lhs, rhs, dropped = shift_identity_samples(
        default_grid(0.1, 7.0), range(6), t=0.5, s=0.25, x=0.5, y=0.5,
        master_seed=5)
    assert lhs.shape == rhs.shape == (6,)
    h = hashlib.sha256(lhs.tobytes())
    h.update(rhs.tobytes())
    h.update(str(dropped).encode())
    assert h.hexdigest() == (
        "9965c3eb38f83a223e367c1e8fab1ef3ef28bb39821ee093d81a2e27465716ec")


def test_shift_identity_check_small():
    grid = GridSpec(dx=0.1, half_width=6.5, dt=0.005)     # 1 + 8 sqrt(0.4) = 6.06
    lhs, rhs, dropped = shift_identity_samples(grid, range(250), 0.4, 0.2, 1.0, 0.5,
                                               master_seed=17)
    assert lhs.size == 250
    (lhs_m, lhs_se), (rhs_m, rhs_se) = mean_se(lhs), mean_se(rhs)
    assert abs(lhs_m - rhs_m) <= 3 * math.hypot(lhs_se, rhs_se) + 0.05 * lhs_m


def test_shift_identity_degenerates_to_one_at_small_s():
    # as s drops to the first lattice time both normalized Green ratios
    # approach 1; tolerance from the s^(1/4) short-time bound
    grid = GridSpec(dx=0.1, half_width=5.5, dt=0.005)
    s = grid.dt
    lhs, rhs, _ = shift_identity_samples(grid, range(300), 0.4, s, 0.0, 0.0,
                                         master_seed=23)
    se = lhs.std(ddof=1) / np.sqrt(lhs.size)
    assert abs(lhs.mean() - 1.0) <= 3 * se + s ** 0.25
    assert abs(rhs.mean() - 1.0) <= 3 * se + s ** 0.25


def test_shift_identity_sharding_concatenates():
    grid = GridSpec(dx=0.1, half_width=5.0, dt=0.005)     # 0.5 + 8 sqrt(0.3) = 4.88
    full = shift_identity_samples(grid, range(8), 0.3, 0.1, 0.5, 0.0, master_seed=2)
    a = shift_identity_samples(grid, range(4), 0.3, 0.1, 0.5, 0.0, master_seed=2)
    b = shift_identity_samples(grid, range(4, 8), 0.3, 0.1, 0.5, 0.0, master_seed=2)
    assert np.array_equal(np.concatenate([a[0], b[0]]), full[0])
    assert np.array_equal(np.concatenate([a[1], b[1]]), full[1])


def test_shift_samples_reject_z_plus_y_outside_grid():
    # the Gaussian z-window is centred at (s/t) x - y, so its z + y cells
    # reach (s/t) x + 2.3 sqrt(s (t - s) / t) = 3.3 > half_width here
    grid = GridSpec(dx=0.1, half_width=3.0, dt=0.005)
    with pytest.raises(ValueError, match="leaves the grid"):
        shift_identity_samples(grid, range(2), 0.4, 0.2, 2.0, 0.5, master_seed=1)


def test_shift_samples_refuse_a_probe_past_the_truncation_rule():
    # validate() refuses these probes by the truncation rule; the sampler
    # refuses them too, with the same reason, for |x| and for |y|
    with pytest.raises(ValueError, match=re.escape(
            "half_width 7 < 1.5 + 8 sqrt(0.5) = 7.157 (truncation control)")):
        shift_identity_samples(default_grid(0.05, 7.0), range(4), 0.5, 0.25, 1.5, 0.5)
    with pytest.raises(ValueError, match="truncation control"):
        shift_identity_samples(default_grid(0.05, 7.0), range(4), 0.5, 0.25, 0.0, -1.5)


def test_shift_samples_reject_a_cut_z_window():
    # the z-window is centred at z = (s/t) x - y = 7.5, past the edge at 7:
    # z + y stays on the grid, but only 0.089 of the window's mass does
    grid = default_grid(0.05, 7.0)
    with pytest.raises(ValueError, match="z-window"):
        shift_identity_samples(grid, range(20), 0.5, 0.25, 4.0, -5.5, master_seed=1)


def test_shift_samples_match_public_passes():
    # both sides rebuilt from one-row forward sweeps and an adjoint pass on a
    # factor table of NoiseStream draws: the shift driver must be those
    # passes, bit for bit
    grid = GridSpec(dx=0.1, half_width=6.5, dt=0.005)     # 1 + 8 sqrt(0.4) = 6.06
    t, s, x, y, seed = 0.4, 0.2, 1.0, 0.5, 17
    lhs, rhs, dropped = shift_identity_samples(grid, range(5), t, s, x, y,
                                               master_seed=seed)
    assert dropped == 0
    z = grid.positions()
    w = heat_kernel(s * (t - s) / t, z + y - (s / t) * x)
    keep = w > w.max() * 1e-12
    ix, i0 = grid.index_of(x), grid.origin_index
    zy = np.nonzero(keep)[0] + grid.index_of(y) - i0    # cells of z + y
    ks, kt = grid.step_of(s), grid.step_of(t)
    e0 = np.zeros(grid.cell_count)
    e0[i0] = 1.0
    for rep in range(5):
        factors = _factor_table(grid, NoiseStream(seed, rep), kt)
        g0 = _source_row(grid, factors, 0, i0, kt)[ix]
        gy = _source_row(grid, factors, ks, grid.index_of(y), kt)[ix]
        z_s = _source_row(grid, factors, 0, i0, ks)
        row = _adjoint(grid, e0, factors, ks, kt) / grid.dx
        lhs_ref = (gy / heat_kernel(t - s, x - y)) / (g0 / heat_kernel(t, x))
        gb_t = row[keep] / heat_kernel(t - s, z[keep])
        gb_s = z_s[zy] / heat_kernel(s, z[keep] + y)
        denom = float((w[keep] * gb_t * gb_s).sum() * grid.dx)
        rhs_ref = (row[i0] / heat_kernel(t - s, 0.0)) / denom
        assert lhs[rep] == lhs_ref
        assert rhs[rep] == rhs_ref
