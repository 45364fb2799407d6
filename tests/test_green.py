import numpy as np
import pytest

from shelab.green import (estimate_g, estimate_gbar_moment, evolve_shared,
                          gbar_value, green_row_adjoint,
                          shift_identity_samples, verify_shift_identity)
from shelab.kernels import heat_kernel
from shelab.noise import NoiseStream, ZeroNoise
from shelab.sim import GridSpec, evolve, heat_step, init_dirac


@pytest.fixture
def grid():
    return GridSpec(dx=0.1, half_width=5.0, dt=0.005)


def test_origin_source_reproduces_sim_evolve(grid):
    stream = NoiseStream(6, 2)
    gf = evolve_shared(grid, stream, [(0.0, 0.0)], 0.25)[0]
    ref = evolve(grid, stream, [0.25])[0]
    assert np.array_equal(gf.field.values, ref.values)


def test_duplicate_sources_bit_identical(grid):
    a, b = evolve_shared(grid, NoiseStream(6, 0), [(0.0, 0.0), (0.0, 0.0)], 0.2)
    assert np.array_equal(a.field.values, b.field.values)


def test_joint_vs_separate_evolution_identical(grid):
    stream = NoiseStream(13, 1)
    joint = evolve_shared(grid, stream, [(0.0, 0.0), (0.1, 0.5)], 0.3)
    solo0 = evolve_shared(grid, stream, [(0.0, 0.0)], 0.3)[0]
    solo1 = evolve_shared(grid, stream, [(0.1, 0.5)], 0.3)[0]
    assert np.array_equal(joint[0].field.values, solo0.field.values)
    assert np.array_equal(joint[1].field.values, solo1.field.values)


def test_source_validation(grid):
    with pytest.raises(ValueError):
        evolve_shared(grid, NoiseStream(1, 0), [(0.303, 0.0)], 0.4)  # off lattice
    with pytest.raises(ValueError):
        evolve_shared(grid, NoiseStream(1, 0), [(0.4, 0.0)], 0.4)    # s == t_final


def test_noise_free_source_matches_heat_flow(grid):
    s, y, t = 0.1, 0.5, 0.3
    gf = evolve_shared(grid, ZeroNoise(), [(s, y)], t)[0]
    f = init_dirac(grid)
    f.values[:] = 0.0
    f.values[grid.index_of(y)] = 1.0 / grid.dx
    ksteps = grid.step_of(t) - grid.step_of(s)
    for _ in range(ksteps):
        f = heat_step(f)
    oracle = f.values * np.exp(-ksteps * grid.dt / (2 * grid.dx))
    nz = oracle > 0
    assert np.max(np.abs(gf.field.values[nz] - oracle[nz]) / oracle[nz]) <= 1e-12


def test_adjoint_row_equals_forward_probes(grid):
    stream = NoiseStream(21, 3)
    s, t = 0.1, 0.35
    row = green_row_adjoint(grid, stream, 0.7, s, t)
    for y in (-0.4, 0.0, 0.7, 1.2):
        fwd = evolve_shared(grid, stream, [(s, y)], t)[0]
        a = row[grid.index_of(y)]
        b = fwd.field.values[grid.index_of(0.7)]
        assert a == pytest.approx(b, rel=1e-12)


def test_gbar_per_replicate_matches_she_ratio(grid):
    stream = NoiseStream(4, 7)
    t = 0.3
    gf = evolve_shared(grid, stream, [(0.0, 0.0)], t)[0]
    z = evolve(grid, stream, [t])[0]
    i0 = grid.origin_index
    assert gbar_value(gf, 0.0) == z.values[i0] / heat_kernel(t, 0.0)


def test_estimate_gbar_moment_mean_one():
    grid = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    t = 0.25
    ens = [evolve_shared(grid, NoiseStream(3, r), [(0.0, 0.0)], t)[0]
           for r in range(400)]
    est = estimate_gbar_moment(ens, x=0.5, k=1)
    assert est.reliable
    assert abs(est.value - 1.0) <= 3 * est.se


def test_estimate_gbar_moment_degenerate():
    grid = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    ens = [evolve_shared(grid, NoiseStream(3, 0), [(0.0, 0.0)], 0.1)[0]]
    est = estimate_gbar_moment(ens, x=0.0, k=2)
    assert not est.reliable and np.isnan(est.se)
    with pytest.raises(ValueError):
        estimate_gbar_moment(ens, x=0.0, k=0)
    early = [evolve_shared(grid, NoiseStream(3, 0), [(0.0, 0.0)], grid.dt)[0]]
    with pytest.raises(ValueError):
        # p_t(x) underflows at one step out at this distance
        estimate_gbar_moment(early, x=3.9, k=1)


def test_estimate_g_identity_at_y_zero():
    grid = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    est = estimate_g(grid, 8, 0.2, 1.0, 0.0, master_seed=5)
    assert est.value == 1.0 and est.se == 0.0


def test_estimate_g_continuity_at_small_y():
    grid = GridSpec(dx=0.05, half_width=5.0, dt=0.00125)
    est = estimate_g(grid, 300, 0.5, 0.0, 0.05, master_seed=8)
    # one cell away from the definitional point g_t(0,0) = 1
    assert abs(est.value - 1.0) <= max(3 * est.se, 0.1)


def test_estimate_g_far_x_small_y():
    grid = GridSpec(dx=0.05, half_width=8.0, dt=0.00125)
    est = estimate_g(grid, 300, 1.0, 4.0, 0.05, master_seed=8)
    assert abs(est.value - 1.0) <= 3 * est.se + 0.05


def test_shift_identity_lattice_exact_at_origin(grid):
    # at (x, y) = (0, 0) the rhs z-sum telescopes through the lattice
    # Chapman-Kolmogorov identity, so lhs == rhs replicate by replicate
    lhs, rhs, dropped = shift_identity_samples(grid, range(6), 0.4, 0.2, 0.0, 0.0,
                                               master_seed=17)
    assert dropped == 0
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_shift_identity_check_small():
    grid = GridSpec(dx=0.1, half_width=5.0, dt=0.005)
    chk = verify_shift_identity(grid, 250, 0.4, 0.2, 1.0, 0.5, master_seed=17)
    assert chk.n_used == 250
    assert abs(chk.lhs - chk.rhs) <= 3 * chk.combined_se + 0.05 * chk.lhs


def test_shift_identity_degenerates_to_one_at_small_s():
    # as s drops to the first lattice time both normalized Green ratios
    # approach 1; tolerance from the s^(1/4) short-time bound
    grid = GridSpec(dx=0.1, half_width=5.0, dt=0.005)
    s = grid.dt
    lhs, rhs, _ = shift_identity_samples(grid, range(300), 0.4, s, 0.0, 0.0,
                                         master_seed=23)
    se = lhs.std(ddof=1) / np.sqrt(lhs.size)
    assert abs(lhs.mean() - 1.0) <= 3 * se + s ** 0.25
    assert abs(rhs.mean() - 1.0) <= 3 * se + s ** 0.25


def test_shift_identity_sharding_concatenates():
    grid = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    full = shift_identity_samples(grid, range(8), 0.3, 0.1, 0.5, 0.0, master_seed=2)
    a = shift_identity_samples(grid, range(4), 0.3, 0.1, 0.5, 0.0, master_seed=2)
    b = shift_identity_samples(grid, range(4, 8), 0.3, 0.1, 0.5, 0.0, master_seed=2)
    assert np.array_equal(np.concatenate([a[0], b[0]]), full[0])
    assert np.array_equal(np.concatenate([a[1], b[1]]), full[1])


def test_shift_samples_match_public_passes(grid):
    # both sides rebuilt from evolve_shared and green_row_adjoint on the same
    # noise: the shift driver must be those passes, bit for bit
    t, s, x, y, seed = 0.4, 0.2, 1.0, 0.5, 17
    lhs, rhs, dropped = shift_identity_samples(grid, range(5), t, s, x, y,
                                               master_seed=seed)
    assert dropped == 0
    z = grid.positions()
    w = heat_kernel(s * (t - s) / t, z + y - (s / t) * x)
    keep = w > w.max() * 1e-12
    ix, i0 = grid.index_of(x), grid.origin_index
    zy = np.nonzero(keep)[0] + grid.index_of(y) - i0    # cells of z + y
    for rep in range(5):
        stream = NoiseStream(seed, rep)
        g0, gy = evolve_shared(grid, stream, [(0.0, 0.0), (s, y)], t)
        z_s = evolve_shared(grid, stream, [(0.0, 0.0)], s)[0].field.values
        row = green_row_adjoint(grid, stream, 0.0, s, t)
        lhs_ref = ((gy.field.values[ix] / heat_kernel(t - s, x - y))
                   / (g0.field.values[ix] / heat_kernel(t, x)))
        gb_t = row[keep] / heat_kernel(t - s, z[keep])
        gb_s = z_s[zy] / heat_kernel(s, z[keep] + y)
        denom = float((w[keep] * gb_t * gb_s).sum() * grid.dx)
        rhs_ref = (row[i0] / heat_kernel(t - s, 0.0)) / denom
        assert lhs[rep] == lhs_ref
        assert rhs[rep] == rhs_ref
