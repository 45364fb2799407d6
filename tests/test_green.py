import hashlib

import numpy as np
import pytest

from shelab.experiments import _gbar
from shelab.green import (ShiftIdentityCheck, _adjoint, _forward, evolve_shared,
                          green_row_adjoint, shift_identity_samples)
from shelab.kernels import heat_kernel
from shelab.noise import NoiseStream, ZeroNoise
from shelab.sim import GridSpec, default_grid, evolve, heat_step
from shelab.stats import mean_se


@pytest.fixture
def grid():
    return GridSpec(dx=0.1, half_width=5.0, dt=0.005)


def test_origin_source_reproduces_sim_evolve(grid):
    stream = NoiseStream(6, 2)
    g = evolve_shared(grid, stream, [(0.0, 0.0)], 0.25)
    ref = evolve(grid, stream, [0.25])[0]
    assert g.shape == (1, grid.cell_count)
    assert np.array_equal(g[0], ref)


def test_duplicate_sources_bit_identical(grid):
    a, b = evolve_shared(grid, NoiseStream(6, 0), [(0.0, 0.0), (0.0, 0.0)], 0.2)
    assert np.array_equal(a, b)


def test_joint_vs_separate_evolution_identical(grid):
    stream = NoiseStream(13, 1)
    solo0 = evolve_shared(grid, stream, [(0.0, 0.0)], 0.3)
    for s in (0.1, 0.105):          # source step even and odd
        joint = evolve_shared(grid, stream, [(0.0, 0.0), (s, 0.5)], 0.3)
        solo1 = evolve_shared(grid, stream, [(s, 0.5)], 0.3)
        assert np.array_equal(joint, np.vstack([solo0, solo1]))


def test_source_validation(grid):
    with pytest.raises(ValueError):
        evolve_shared(grid, NoiseStream(1, 0), [(0.303, 0.0)], 0.4)  # off lattice
    with pytest.raises(ValueError):
        evolve_shared(grid, NoiseStream(1, 0), [(0.4, 0.0)], 0.4)    # s == t_final


def test_noise_free_source_matches_heat_flow(grid):
    s, y, t = 0.1, 0.5, 0.3
    g = evolve_shared(grid, ZeroNoise(), [(s, y)], t)[0]
    Z = np.zeros(grid.cell_count)
    Z[grid.index_of(y)] = 1.0 / grid.dx
    ksteps = grid.step_of(t) - grid.step_of(s)
    for _ in range(ksteps):
        Z = heat_step(grid, Z)
    oracle = Z * np.exp(-ksteps * grid.dt / (2 * grid.dx))
    nz = oracle > 0
    assert np.max(np.abs(g[nz] - oracle[nz]) / oracle[nz]) <= 1e-12


def test_adjoint_row_equals_forward_probes(grid):
    stream = NoiseStream(21, 3)
    s, t = 0.1, 0.35
    row = green_row_adjoint(grid, stream, 0.7, s, t)
    for y in (-0.4, 0.0, 0.7, 1.2):
        fwd = evolve_shared(grid, stream, [(s, y)], t)[0]
        a = row[grid.index_of(y)]
        b = fwd[grid.index_of(0.7)]
        assert a == pytest.approx(b, rel=1e-12)


def test_passes_leave_callers_arrays_unchanged(grid):
    # the passes work in their own buffers: neither the adjoint's input row
    # nor the noise-factor table is written, and repeated calls agree
    rng = np.random.default_rng(0)
    table = rng.uniform(0.5, 1.5, (grid.step_of(0.2), grid.cell_count))
    table_copy = table.copy()
    v = rng.uniform(0.0, 1.0, grid.cell_count)
    v_copy = v.copy()
    out = _adjoint(grid, v, table.__getitem__, 3, len(table))
    assert np.array_equal(v, v_copy) and not np.shares_memory(out, v)
    assert np.array_equal(_adjoint(grid, v, table.__getitem__, 3, len(table)), out)
    _forward(grid, np.zeros((2, grid.cell_count)),
             [(0, grid.origin_index), (5, grid.index_of(0.5))],
             table.__getitem__, 0, len(table))
    assert np.array_equal(table, table_copy)
    stream = NoiseStream(21, 3)
    row = green_row_adjoint(grid, stream, 0.7, 0.1, 0.35)
    assert np.array_equal(green_row_adjoint(grid, stream, 0.7, 0.1, 0.35), row)


def test_gbar_per_replicate_matches_she_ratio(grid):
    # the drivers' normalization of the (0, 0) source row is Z(t, x) / p_t(x)
    stream = NoiseStream(4, 7)
    t = 0.3
    g = evolve_shared(grid, stream, [(0.0, 0.0)], t)[0]
    z = evolve(grid, stream, [t])[0]
    x = grid.positions()
    assert np.allclose(_gbar(g, t, x), z / heat_kernel(t, x),
                       rtol=1e-13, atol=0.0)


def test_estimate_gbar_moment_mean_one():
    # the diagnostics driver's path: mean_se of _gbar at the probe
    grid = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    t, x = 0.25, 0.5
    ix = grid.index_of(x)
    vals = [_gbar(evolve_shared(grid, NoiseStream(3, r), [(0.0, 0.0)], t)[0, ix], t, x)
            for r in range(400)]
    mean, se = mean_se(vals)
    assert 0.0 < se <= abs(mean)
    assert abs(mean - 1.0) <= 3 * se


def test_shift_identity_lattice_exact_at_origin(grid):
    # at (x, y) = (0, 0) the rhs z-sum telescopes through the lattice
    # Chapman-Kolmogorov identity, so lhs == rhs replicate by replicate
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
    grid = GridSpec(dx=0.1, half_width=5.0, dt=0.005)
    chk = ShiftIdentityCheck.from_samples(*shift_identity_samples(
        grid, range(250), 0.4, 0.2, 1.0, 0.5, master_seed=17))
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


def test_shift_samples_reject_z_plus_y_outside_grid():
    # the Gaussian z-window is centred at (s/t) x - y, so its z + y cells
    # reach (s/t) x + 2.3 sqrt(s (t - s) / t) = 3.3 > half_width here
    grid = GridSpec(dx=0.1, half_width=3.0, dt=0.005)
    with pytest.raises(ValueError, match="leaves the grid"):
        shift_identity_samples(grid, range(2), 0.4, 0.2, 2.0, 0.5, master_seed=1)


def test_shift_samples_reject_a_cut_z_window():
    # the z-window is centred at z = (s/t) x - y = 7.5, past the edge at 7:
    # z + y stays on the grid, but only 0.089 of the window's mass does
    grid = default_grid(0.05, 7.0)
    with pytest.raises(ValueError, match="z-window"):
        shift_identity_samples(grid, range(20), 0.5, 0.25, 4.0, -5.5, master_seed=1)


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
        g0, gy = evolve_shared(grid, stream, [(0.0, 0.0), (s, y)], t)[:, ix]
        z_s = evolve_shared(grid, stream, [(0.0, 0.0)], s)[0]
        row = green_row_adjoint(grid, stream, 0.0, s, t)
        lhs_ref = (gy / heat_kernel(t - s, x - y)) / (g0 / heat_kernel(t, x))
        gb_t = row[keep] / heat_kernel(t - s, z[keep])
        gb_s = z_s[zy] / heat_kernel(s, z[keep] + y)
        denom = float((w[keep] * gb_t * gb_s).sum() * grid.dx)
        rhs_ref = (row[i0] / heat_kernel(t - s, 0.0)) / denom
        assert lhs[rep] == lhs_ref
        assert rhs[rep] == rhs_ref
