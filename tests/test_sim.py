import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import shelab.sim as sim
from shelab.kernels import heat_kernel, log_heat_kernel
from shelab.noise import NoiseStream, ZeroNoise, _FastNormals
from shelab.sim import (GridSpec, _BatchEngine, _brentq, default_grid,
                        discrete_kernel_log, evolve, heat_step, heat_step_weights,
                        log_residual, noise_step, read_radius,
                        tilted_variance_ratio, underflow_radius)


def _dirac(g):
    """Dirac data: 1/dx at the origin cell, zero elsewhere."""
    Z = np.zeros(g.cell_count)
    Z[g.origin_index] = 1.0 / g.dx
    return Z


# grids whose half_width is not a multiple of dx: they would have no cell
# at x = 0, and GridSpec refuses them
_NO_ZERO_CELL = {(0.1, 0.15), (0.1, 5.05), (0.03, 2.0), (0.07, 3.3)}


@pytest.mark.parametrize("dx, half_width", [
    (0.1, 1.0), (0.1, 0.15), (0.05, 7.0), (0.1, 5.05), (0.03, 2.0), (0.07, 3.3),
])
def test_origin_index_is_the_cell_nearest_zero(dx, half_width):
    if (dx, half_width) in _NO_ZERO_CELL:
        with pytest.raises(ValueError, match="not a positive multiple of dx"):
            GridSpec(dx=dx, half_width=half_width, dt=dx * dx / 2)
        return
    g = GridSpec(dx=dx, half_width=half_width, dt=dx * dx / 2)
    x = g.positions()
    assert g.origin_index == int(np.argmin(np.abs(x)))
    assert x[g.origin_index] == 0.0


@pytest.mark.parametrize("dx, half_width", [
    (0.1, 4.95), (0.1, 1.05), (0.1, 5.05), (0.03, 2.0), (0.07, 3.3),
    (0.1, 1e-8),    # within 1e-6 of the zero multiple: one cell, at x = 0
])
def test_gridspec_refuses_a_half_width_off_the_dx_lattice(dx, half_width):
    with pytest.raises(ValueError) as err:
        GridSpec(dx=dx, half_width=half_width, dt=dx * dx / 2)
    assert f"half_width={half_width:g}" in str(err.value)
    assert f"dx={dx:g}" in str(err.value)


@pytest.mark.parametrize("dx, half_width", [
    (0.1, 1.0), (0.05, 7.0), (0.015, 3.0), (0.03, 2.01), (0.07, 3.5), (0.1, 208.0),
    (0.1, 0.1), (0.1, 3.00000001),  # within the 1e-6 slack of 30 cells
])
def test_allowed_grids_are_symmetric_about_the_zero_cell(dx, half_width):
    g = GridSpec(dx=dx, half_width=half_width, dt=dx * dx / 2)
    x = g.positions()
    assert g.cell_count % 2 == 1
    assert x[g.origin_index] == 0.0
    assert np.array_equal(x, -x[::-1])
    assert g.index_of(0.0) == g.origin_index


@pytest.mark.parametrize("dx, half_width, dt, field", [
    (0.1, 1.0, float("nan"), "dt"),       # NaN passes every comparison
    (0.1, float("inf"), 0.005, "half_width"),
    (float("nan"), 1.0, 0.005, "dx"),
])
def test_gridspec_refuses_non_finite_inputs(dx, half_width, dt, field):
    with pytest.raises(ValueError, match=f"^{field}=.* must be finite"):
        GridSpec(dx=dx, half_width=half_width, dt=dt)


def test_discrete_kernel_log_rows_are_the_k_step_kernels():
    # row k is k heat steps of the unit delta at x = 0: row 0 the delta,
    # each row's mass 1 while the cone stays on the grid, and every row equal
    # to the row of a longer table
    g = default_grid(0.1, 4.0)
    table = discrete_kernel_log(g, 12)
    assert table.shape == (13, g.cell_count)
    assert table[0, g.origin_index] == 0.0
    assert (np.delete(table[0], g.origin_index) == -1.0e30).all()
    assert np.allclose(np.exp(table[:4]).sum(axis=1), 1.0, rtol=0, atol=1e-13)
    assert np.array_equal(discrete_kernel_log(g, 5), table[:6])
    Z = _dirac(g) * g.dx
    for _ in range(3):
        Z = heat_step(g, Z)
    assert np.allclose(np.exp(table[3]), Z, rtol=1e-12, atol=1e-300)


def test_gridspec_basics():
    g = GridSpec(dx=0.1, half_width=1.0, dt=0.005)
    assert g.cell_count == 21
    assert g.origin_index == 10
    assert g.positions()[10] == 0.0
    with pytest.raises(ValueError):
        GridSpec(dx=0.1, half_width=1.0, dt=0.02)   # dt > dx^2
    with pytest.raises(ValueError):
        GridSpec(dx=0.1, half_width=0.05, dt=0.005)  # < 3 cells


def test_heat_weights_are_positive_mass_one_variance_exact():
    for dx, dt in [(0.1, 0.005), (0.05, 0.00125), (0.2, 0.04)]:
        w = heat_step_weights(dx, dt)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        j = np.arange(len(w)) - len(w) // 2
        disc_var = (w * (j * dx) ** 2).sum()
        assert disc_var == pytest.approx(dt, rel=1e-12)


def test_heat_step_zero_and_constant_fields():
    g = GridSpec(dx=0.1, half_width=2.0, dt=0.005)
    assert np.all(heat_step(g, np.zeros(g.cell_count)) == 0.0)
    out = heat_step(g, np.full(g.cell_count, 2.5))
    # cells at least `half` taps from the Dirichlet-zero edge see no edge
    half = len(heat_step_weights(g.dx, g.dt)) // 2
    assert 0 < half < g.cell_count // 2
    assert np.allclose(out[half:-half], 2.5, rtol=1e-14)
    assert out[0] < 2.5 and out[-1] < 2.5


def test_truncation_half_width_sets_the_covers_rule():
    # reads out to |x| = 1 by t = 0.0625 need L >= 1 + 8 sqrt(0.0625) = 3
    g = GridSpec(dx=0.1, half_width=3.0, dt=0.005)
    assert g.truncation_half_width(0.0625, 1.0) == 3.0
    assert g.truncation_half_width(0.0625) == 2.0
    assert g.covers(0.0625, 1.0) and not g.covers(0.0625, 1.01)


def test_heat_step_mass_conservation_and_positivity():
    # wide enough for the truncation rule at t = 50 dt: no mass reaches the edge
    gw = GridSpec(dx=0.1, half_width=4.0, dt=0.005)
    assert gw.covers(50 * gw.dt, 0.0)
    Z = _dirac(gw)
    for _ in range(50):
        Z = heat_step(gw, Z)
    assert Z.min() >= 0.0
    assert Z.sum() * gw.dx == pytest.approx(1.0, rel=1e-12)
    gd = GridSpec(dx=0.1, half_width=2.0, dt=0.005)
    Z = _dirac(gd)
    masses = [Z.sum() * gd.dx]
    for _ in range(400):
        Z = heat_step(gd, Z)
        masses.append(Z.sum() * gd.dx)
    assert all(b <= a + 1e-15 for a, b in zip(masses, masses[1:]))
    assert Z.min() >= 0.0


def test_heat_step_dirac_matches_gaussian_with_refinement_order():
    errs = {}
    for dx in (0.05, 0.025):
        g = default_grid(dx, 20.0)
        Z = _dirac(g)
        for _ in range(g.step_of(1.0)):
            Z = heat_step(g, Z)
        x = g.positions()
        m = np.abs(x) <= 4.0
        p = heat_kernel(1.0, x[m])
        errs[dx] = np.max(np.abs(Z[m] - p) / p)
    assert errs[0.05] < 1e-3
    order = np.log2(errs[0.05] / errs[0.025])
    assert order >= 1.0


def test_noise_step_formula_and_errors():
    g = GridSpec(dx=0.1, half_width=1.0, dt=0.005)
    Z = _dirac(g)
    out = noise_step(g, Z, ZeroNoise().normals(0, g.cell_count))
    factor = np.exp(-g.dt / (2 * g.dx))
    assert factor < 1.0
    assert np.allclose(out, Z * factor, rtol=1e-15)
    zero = np.zeros(g.cell_count)
    assert np.all(noise_step(g, zero, NoiseStream(1, 0).normals(0, g.cell_count)) == 0.0)
    with pytest.raises(ValueError):
        noise_step(g, Z, NoiseStream(1, 0).normals(0, g.cell_count - 1))


def test_noise_factor_mean_one():
    g = GridSpec(dx=0.1, half_width=0.2, dt=0.005)
    n = 100_000
    sig = np.sqrt(g.dt / g.dx)
    xi = np.concatenate([NoiseStream(9, r).normals(0, 5000) for r in range(20)])
    factors = np.exp(sig * xi - g.dt / (2 * g.dx))
    se = np.sqrt(np.expm1(g.dt / g.dx)) / np.sqrt(n)
    assert abs(factors.mean() - 1.0) <= 3 * se


def test_evolve_zero_noise_matches_heat_flow_times_splitting_factor():
    g = default_grid(0.1, 5.0)
    k = g.step_of(0.5)
    got = evolve(g, ZeroNoise(), [0.5])[0]
    Z = _dirac(g)
    for _ in range(k):
        Z = heat_step(g, Z)
    oracle = Z * np.exp(-k * g.dt / (2 * g.dx))
    nz = oracle > 0
    assert np.max(np.abs(got[nz] - oracle[nz]) / oracle[nz]) <= 1e-12
    assert np.array_equal(got == 0.0, oracle == 0.0)


def test_evolve_deterministic_and_validates_checkpoints():
    g = default_grid(0.1, 2.0)
    a = evolve(g, NoiseStream(3, 1), [0.05, 0.1])
    b = evolve(g, NoiseStream(3, 1), [0.05, 0.1])
    assert a.shape == (2, g.cell_count)
    assert np.array_equal(a, b)
    assert np.array_equal(evolve(g, NoiseStream(3, 1), [0.1])[0], a[1])
    with pytest.raises(ValueError):
        evolve(g, NoiseStream(3, 1), [0.0501])
    with pytest.raises(ValueError):
        evolve(g, NoiseStream(3, 1), [0.1, 0.05])
    with pytest.raises(ValueError):
        evolve(g, NoiseStream(3, 1), [0.0])


def test_positivity_from_dirac_data():
    g = default_grid(0.1, 3.0)
    assert evolve(g, NoiseStream(17, 5), [0.2, 0.45]).min() >= 0.0


def test_log_residual_contracts():
    # 0 on p_t itself, -inf where Z = 0, NaN where Z < 0, and no warning
    x = default_grid(0.1, 3.0).positions()
    Z = heat_kernel(0.5, x)
    Z[0], Z[1] = 0.0, -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = log_residual(Z, 0.5, x)
    assert np.allclose(r[2:], 0.0, atol=1e-12)
    assert r[0] == -np.inf
    assert np.isnan(r[1])


def test_noise_free_residual_is_flat():
    g = default_grid(0.05, 8.0)
    k = g.step_of(1.0)
    r = log_residual(evolve(g, ZeroNoise(), [1.0])[0], 1.0, g.positions())
    m = np.abs(g.positions()) <= 4.0
    expected = -k * g.dt / (2 * g.dx)
    assert np.max(np.abs(r[m] - expected)) <= 1e-3


def test_batch_engine_absolute_matches_public_evolve():
    g = default_grid(0.1, 3.0)
    seen = {}
    eng = _BatchEngine(g, master_seed=12, mode="absolute")
    eng.run([4, 9], [g.step_of(0.3)], lambda k, reps, Z: seen.update({r: Z[i].copy() for i, r in enumerate(reps)}))
    for rep in (4, 9):
        ref = evolve(g, NoiseStream(12, rep), [0.3])[0]
        assert np.array_equal(seen[rep], ref)


def test_batch_engine_relative_agrees_with_absolute():
    g = default_grid(0.1, 4.0)
    k = g.step_of(0.4)
    outa, outr = {}, {}
    _BatchEngine(g, 5, mode="absolute").run(
        [0, 1], [k], lambda kk, reps, Z: outa.update({r: Z[i].copy() for i, r in enumerate(reps)}))
    _BatchEngine(g, 5, mode="relative").run(
        [0, 1], [k], lambda kk, reps, LZ: outr.update({r: LZ[i].copy() for i, r in enumerate(reps)}))
    for rep in (0, 1):
        za = outa[rep]
        lz = outr[rep]
        both = za > 0
        assert np.allclose(np.log(za[both]), lz[both], rtol=0, atol=1e-9)
        # relative mode reaches at least as far as the absolute representation
        assert np.all(np.isfinite(lz[both]))


def test_relative_engine_log_z_pinned():
    # bit-for-bit pin of the kernel-relative step, the log-kernel step and
    # the CSR product, edge cells included
    # (the noise cone covers the whole grid by t = 0.5)
    g = default_grid(0.1, 6.0)
    k = g.step_of(0.5)
    out = {}
    _BatchEngine(g, 5, mode="relative").run(
        [0, 1, 2], [k], lambda kk, reps, LZ: out.setdefault(kk, LZ.copy()))
    lz = out[k]
    assert lz.shape == (3, g.cell_count) and np.isfinite(lz).all()
    assert hashlib.sha256(lz.tobytes()).hexdigest() == (
        "d3d7f4949df53f623a5b857508936c4830d17479e94d77b7720c452efb995705")


def test_windowed_relative_run_pinned():
    # bit-for-bit pin of a windowed relative run: two checkpoints, a
    # backward cone that shrinks towards the last one, and a domain that
    # reaches both grid edges on the middle steps; the digest was taken with
    # the earlier row-major tap loop and holds for the CSR product
    g = default_grid(0.1, 6.0)
    n, w, steps = g.cell_count, g.window(0.0, 4.0), [20, 50]
    eng = _BatchEngine(g, 5, mode="relative", window=w)
    domains = [eng._domain(k, steps[-1]) for k in range(steps[-1])]
    assert (0, n) in domains and domains[-1] == (w[0], w[-1] + 1)
    digest = hashlib.sha256()

    def consume(k, reps, block):
        assert block.shape == (3, n) and block.flags.c_contiguous
        assert np.isfinite(block[:, w]).all()
        digest.update(block[:, w].tobytes())

    eng.run([0, 1, 2], steps, consume)
    assert digest.hexdigest() == (
        "36f7578dd8ac88a7751a1b6acc57b9c562f76d44c9ecd22c1b02d09b57e0b765")


def test_relative_heat_step_sums_taps_in_order():
    # every written cell is the sum of w_idx V[src] over the taps idx = 0..22
    # whose source src = i + half - idx lies on the grid, taken in tap order
    # from 0.0, bit for bit; cells outside [c0, c1) are not written
    g = default_grid(0.1, 2.0)
    eng = _BatchEngine(g, 0, mode="relative")
    n, h, B = g.cell_count, eng.half, 3
    assert n == 41 and n < 4 * h
    logK = np.full(n, -1.0e30)
    logK[g.origin_index] = 0.0
    for _ in range(3):                   # the noise cone covers the grid
        logK, _ = eng._advance_logK(logK)
    V = np.random.default_rng(1).uniform(0.5, 2.0, (n, B))
    for c0, c1 in [(0, n), (0, 17), (30, n), (h + 1, n - h - 1)]:
        logK1, stack = eng._advance_logK(logK, c0, c1)
        tw = np.exp(stack - logK1[c0:c1])
        out = np.full((n, B), 7.0)
        got = eng._relative_heat_step(V, logK, out, c0, c1)
        assert np.array_equal(got, logK1)
        for i in range(c0, c1):
            for b in range(B):
                acc = 0.0
                for idx in range(len(eng.w)):
                    src = i + h - idx
                    if 0 <= src < n:
                        acc += float(tw[idx, i - c0]) * float(V[src, b])
                assert out[i, b] == acc, (c0, c1, i, b)
        assert (np.delete(out, np.arange(c0, c1), axis=0) == 7.0).all()


def test_tilted_variance_ratio():
    # the tilted walk's variance over dt/dx^2; at dx = 0.1 the 23-tap step
    # keeps it within 2e-3 at 9 cells/step, and it falls to 0.919 at 10 and
    # to 0 at the cone edge, 11; between integer speeds it ripples by 0.4%
    g = default_grid(0.1, 6.0)
    assert tilted_variance_ratio(g, 0.0) == 1.0
    assert abs(tilted_variance_ratio(g, 9.0) - 1.0) < 2e-3
    assert abs(tilted_variance_ratio(g, 10.0) - 0.919) < 1e-3
    assert tilted_variance_ratio(g, -10.0) == tilted_variance_ratio(g, 10.0)
    assert all(abs(tilted_variance_ratio(g, s) - 1.0) < 5e-3
               for s in np.linspace(0.0, 9.0, 37))
    tail = [tilted_variance_ratio(g, s) for s in (9.0, 10.0, 10.5, 11.0)]
    assert all(a > b for a, b in zip(tail, tail[1:])) and tail[-1] == 0.0
    with pytest.raises(ValueError, match="noise cone"):
        tilted_variance_ratio(g, 11.5)


@pytest.mark.parametrize("dt, between", [(0.005, 1.0040198), (0.0025, 1.2077977)])
def test_tilted_variance_ratio_has_period_one_cell_per_step(dt, between):
    # the step weights are a sampled Gaussian, and tilted to a whole speed m
    # they are the same Gaussian moved m cells: inside the cone the ratio is
    # 1 to rounding at whole speeds and above 1 between them, more so for
    # the narrower step of dt = dx^2/4 than for dt = dx^2/2
    g = GridSpec(dx=0.1, half_width=6.0, dt=dt)
    for m in range(5):
        assert tilted_variance_ratio(g, m) == pytest.approx(1.0, rel=0, abs=1e-14)
        assert tilted_variance_ratio(g, m + 0.5) == pytest.approx(between, rel=0, abs=5e-8)


def _record_solves(monkeypatch):
    """Route sim's root solves through _brentq and scipy.optimize.brentq
    alike; returns one (port, scipy) pair per solve, each the root followed
    by every point the solver evaluated f at, in order."""
    solves = []

    def traced(solve, f, a, b, tols):
        xs = []
        root = solve(lambda x: xs.append(x) or f(x), a, b, **tols)
        return [root] + xs

    def both(f, a, b, **tols):
        port = traced(_brentq, f, a, b, tols)
        solves.append((port, traced(scipy_brentq, f, a, b, tols)))
        return port[0]

    monkeypatch.setattr(sim, "_brentq", both)
    return solves


@pytest.mark.parametrize("dx", [0.2, 0.1, 0.05, 0.025, 1 / 30, 0.1 / 3, 0.1 / 9, 0.1 / 27])
def test_brentq_port_gives_scipys_tap_width(dx, monkeypatch):
    # the solve of heat_step_weights' alpha, uncached, at dt/dx^2 = 1, 1/2,
    # 1/4: the same root and the same iterates, bit for bit
    solves = _record_solves(monkeypatch)
    for ratio in (1.0, 0.5, 0.25):
        heat_step_weights.__wrapped__(dx, ratio * dx * dx)
    assert len(solves) == 3
    assert all(port == ref for port, ref in solves), solves


@pytest.mark.parametrize("dx", [0.1, 0.05])
def test_brentq_port_gives_scipys_tilt(dx, monkeypatch):
    # tilted_variance_ratio's theta at 24 speeds inside the noise cone
    g = default_grid(dx, 6.0)
    half = len(heat_step_weights(g.dx, g.dt)) // 2   # cached: only theta is solved below
    solves = _record_solves(monkeypatch)
    for speed in np.linspace(0.05, half - 0.05, 24):
        tilted_variance_ratio(g, speed)
    assert len(solves) == 24
    assert all(port == ref for port, ref in solves), solves


@pytest.mark.parametrize("solve", [_brentq, scipy_brentq], ids=["port", "scipy"])
def test_brentq_error_paths(solve):
    # the port raises what scipy raises, on a bracket of one sign, on a NaN
    # inside the bracket and when it runs out of iterations
    with pytest.raises(ValueError, match="different signs"):
        solve(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        solve(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(RuntimeError, match="converge"):
        solve(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15, maxiter=2)
    assert solve(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15) == pytest.approx(2 ** (1 / 3))


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_batch_engine_rows_do_not_depend_on_run_split(mode):
    # rows 0..39 in one run, and in runs of 1 and of 17 rows (the last run
    # holds 6); the reused state buffers must neither leak between steps
    # nor alias the stored copies
    g = default_grid(0.1, 6.0)
    early, late = 2, g.step_of(0.1)      # the noise cone is partial at `early`
    ids = list(range(40))

    def rows_of(size):
        out = {early: {}, late: {}}

        def consume(k, reps, block):
            out[k].update({r: block[i].copy() for i, r in enumerate(reps)})

        for i in range(0, len(ids), size):
            _BatchEngine(g, 8, mode=mode).run(ids[i:i + size], [early, late], consume)
        return {k: np.stack([rows[r] for r in ids]) for k, rows in out.items()}

    whole = rows_of(len(ids))
    for size in (1, 17):
        split = rows_of(size)
        for k in (early, late):
            assert np.array_equal(split[k], whole[k])
    assert not np.array_equal(whole[early], whole[late])
    cone = discrete_kernel_log(g, early)[early] > -1.0e30 / 2
    assert 0 < cone.sum() < g.cell_count
    outside = -np.inf if mode == "relative" else 0.0
    assert np.all(whole[early][:, ~cone] == outside)
    assert np.all(np.isfinite(whole[early][:, cone]))
    if mode == "absolute":
        assert np.all(whole[early][:, cone] > 0.0)


def test_relative_mode_mean_one_far_field():
    # E[Z] equals the discrete heat kernel cell-wise (noise factors have mean
    # one), so E[Z / (K_k/dx)] = 1 even far outside the float64 underflow
    # radius of the absolute representation (|x| ~ 37 sqrt(t) here).
    g = default_grid(0.2, 60.0)
    k = g.step_of(0.8)
    eng = _BatchEngine(g, 31, mode="relative")
    logK = np.full(g.cell_count, -1.0e30)
    logK[g.origin_index] = 0.0
    for _ in range(k):
        logK, _ = eng._advance_logK(logK)
    rows = {}
    eng.run(range(400), [k],
            lambda kk, reps, LZ: rows.update(
                {r: LZ[i].copy() for i, r in enumerate(reps)}))
    lz = np.stack([rows[r] for r in sorted(rows)])
    x = g.positions()
    probe = np.abs(np.abs(x) - 40.0) < 1.0   # |x| ~ 40 >> 37 sqrt(t)
    assert np.isfinite(lz[:, probe]).all()
    v = np.exp(lz[:, probe] - (logK[probe] - np.log(g.dx)))
    vm = v.mean(axis=0)
    se = v.std(axis=0, ddof=1) / np.sqrt(v.shape[0])
    assert np.all(np.abs(vm - 1.0) <= 5 * se)


def _checkpoint_rows(g, mode, ids, steps, window=None):
    """{step: (B, n) copy of the block} from one engine run."""
    out = {}
    _BatchEngine(g, 8, mode=mode, window=window).run(
        ids, steps, lambda k, reps, block: out.setdefault(k, block.copy()))
    return out


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_window_cells_keep_their_bits(mode):
    # the engine evolves only the domain of dependence of the window; every
    # window cell equals the windowless engine's cell bit for bit.  The
    # early checkpoint sees a partial noise cone, and the edge windows lie
    # outside it at the early checkpoint
    g = default_grid(0.1, 20.0)
    n, i0 = g.cell_count, g.origin_index
    steps = [8, 30]
    ids = list(range(19))
    whole = _checkpoint_rows(g, mode, ids, steps)
    windows = {"interior": np.arange(250, 262), "left edge": np.arange(0, 6),
               "right edge": np.arange(n - 6, n), "origin": np.array([i0]),
               "gaps": np.array([150, 181, 260])}
    for name, w in windows.items():
        part = _checkpoint_rows(g, mode, ids, steps, window=w)
        for k in steps:
            assert np.array_equal(part[k][:, w], whole[k][:, w]), (name, k)
    # the edge windows lie outside the noise cone at step 8 and inside at 30
    assert (discrete_kernel_log(g, 8)[8, :6] == -1.0e30).all()
    assert (discrete_kernel_log(g, 30)[30] > -1.0e30 / 2).all()


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_domain_only_draw_keeps_the_window_bits(mode, monkeypatch):
    # the engine draws Philox words only on its domain [c0, c1); its window
    # cells equal those of an engine that draws full rows, bit for bit.  c0
    # moves by 11 cells a step, so it takes every residue mod 4, and the
    # second run reuses the engine
    g = default_grid(0.1, 20.0)
    w, steps = np.arange(250, 262), [8, 30]
    eng = _BatchEngine(g, 8, mode=mode, window=w)
    assert {eng._domain(k, 30)[0] % 4 for k in range(30)} == {0, 1, 2, 3}
    runs = [list(range(7)), list(range(40, 47))]

    def window_rows(engine):
        out = []
        for ids in runs:
            rows = {}
            engine.run(ids, steps, lambda k, reps, block: rows.setdefault(k, block[:, w].copy()))
            out.append(rows)
        return out

    calls = []
    fill = _FastNormals.fill_u53
    monkeypatch.setattr(_FastNormals, "fill_u53",
                        lambda self, out, *a: calls.append(out.size) or fill(self, out, *a))
    shipped = window_rows(eng)
    # one fill per (replicate, step) row, on the domain only
    assert len(calls) == 2 * 7 * 30 and max(calls) < g.cell_count

    def full_row(self, out, rid, k, first=0):
        # draw the whole row and copy its cells [first, first + out.size)
        row = np.empty(g.cell_count, dtype=np.uint64)
        fill(self, row, rid, k)
        out[...] = row[first:first + out.size]

    monkeypatch.setattr(_FastNormals, "fill_u53", full_row)
    reference = window_rows(_BatchEngine(g, 8, mode=mode, window=w))
    for got, ref in zip(shipped, reference):
        for k in steps:
            assert np.array_equal(got[k], ref[k]), k


def test_underflow_radius_is_conservative():
    # on the moment grid, every cell where the noise-free field K_k/dx is
    # above exp(40) x the smallest normal float64 lies inside the cells the
    # absolute engine computes for state k, at every step of an 800-step run
    g = default_grid(0.05, 20.0)
    eng = _BatchEngine(g, 0, mode="absolute")
    relative = _BatchEngine(g, 0, mode="relative")
    i0, n = g.origin_index, g.cell_count
    floor = np.log(np.finfo(float).tiny) + 40.0
    logK = np.full(n, -1.0e30)
    logK[i0] = 0.0
    bound = []
    for k in range(1, 801):
        logK, _ = relative._advance_logK(logK)
        c0, c1 = eng._domain(k - 1, k)
        above = np.flatnonzero(logK - np.log(g.dx) >= floor)
        assert c0 <= above.min() and above.max() < c1, k
        bound.append(c1 - c0 < n)
        assert c1 - c0 - 1 <= 2 * underflow_radius(g, k * g.dt) / g.dx
    # the noise cone cuts the grid for the first 5 steps, R for the rest of
    # the first 237; R(t) is close to its Gaussian value sqrt(2 t (668 - log dx))
    assert sum(bound) == 237 and bound[236] and not bound[237]
    assert eng._domain(4, 5)[1] - eng._domain(4, 5)[0] == 2 * 5 * eng.half + 1
    assert eng._domain(5, 6)[1] - eng._domain(5, 6)[0] < 2 * 6 * eng.half + 1
    gauss = np.sqrt(2.0 * (668.0 - np.log(g.dx)))
    assert gauss < underflow_radius(g, 1.0) < 1.01 * gauss
    assert read_radius(g, 1.0) < underflow_radius(g, 1.0)


def test_absolute_engine_holds_no_subnormals():
    # Z is +0.0 beyond the underflow radius, and every other cell is a
    # normal float64, while R still cuts the grid (up to step 237 here)
    g = default_grid(0.05, 20.0)
    dist = np.abs(np.arange(g.cell_count) - g.origin_index)
    steps = [20, 50, 100, 200, 300]
    rows = _checkpoint_rows(g, "absolute", list(range(8)), steps)
    tiny = np.finfo(float).tiny
    for k in steps:
        Z = rows[k]
        assert not ((Z != 0.0) & (np.abs(Z) < tiny)).any(), k
        r = int(underflow_radius(g, k * g.dt) / g.dx)
        assert (Z[:, dist > r] == 0.0).all() and (Z[:, dist <= r] > 0.0).all(), k


def test_absolute_engine_keeps_the_bits_of_evolve_inside_the_read_radius():
    # the flush changes no bit of a window cell inside the read radius,
    # while R cuts the grid (up to step 59 here); sim.evolve never flushes
    g = default_grid(0.1, 20.0)
    times = [0.01, 0.05, 0.1, 0.2, 0.29]
    steps = [g.step_of(t) for t in times]
    x = g.positions()
    window = g.window(-read_radius(g, times[-1]), read_radius(g, times[-1]))
    ids = [0, 3, 7]
    rows = _checkpoint_rows(g, "absolute", ids, steps, window=window)
    for r, rep in enumerate(ids):
        for t, k, Z in zip(times, steps, evolve(g, NoiseStream(8, rep), times)):
            inside = window[np.abs(x[window]) <= read_radius(g, t)]
            assert np.array_equal(rows[k][r, inside], Z[inside]), (rep, t)
            if k > 5:      # past the first 5 steps, R cuts the noise cone
                assert np.any(Z[np.abs(x) > underflow_radius(g, t)] > 0.0)
    assert underflow_radius(g, times[-1]) < g.half_width


def test_window_is_checked():
    g = default_grid(0.1, 2.0)
    for bad in (np.array([], dtype=int), np.array([-1, 3]), np.array([0, g.cell_count])):
        with pytest.raises(ValueError, match="window"):
            _BatchEngine(g, 1, window=bad)


def test_advance_logK_on_a_cell_range_matches_full_call():
    # every one-cell range included: numpy would sum a one-column stack
    # pairwise, and on this grid that changes the bits of a few cells
    g = default_grid(0.1, 6.0)
    eng = _BatchEngine(g, 0, mode="relative")
    n = g.cell_count
    logK = np.full(n, -1.0e30)
    logK[g.origin_index] = 0.0
    ranges = [(0, n), (5, 40), (25, 36), (40, n)] + [(c, c + 1) for c in range(n)]
    for _ in range(5):                     # partial cones: live and dead cells
        full, full_stack = eng._advance_logK(logK)
        for c0, c1 in ranges:
            part, stack = eng._advance_logK(logK, c0, c1)
            assert np.array_equal(part[c0:c1], full[c0:c1]), (c0, c1)
            assert np.array_equal(stack, full_stack[:, c0:c1]), (c0, c1)
            assert np.all(np.delete(part, np.arange(c0, c1)) == -1.0e30)
        logK = full
    assert 0 < (logK > -1.0e30 / 2).sum() < n


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_run_leaves_the_ufunc_buffer_size_as_it_found_it(mode):
    # the engine shrinks numpy's ufunc buffer only for the noise factors
    # (both modes) and the absolute mode's noise multiply; the consumer runs
    # with the caller's size, and the size is restored after a normal return
    # and after a consume that raises
    g = default_grid(0.1, 2.0)
    old = np.setbufsize(4096)
    try:
        seen = []
        _BatchEngine(g, 3, mode=mode).run(
            [0, 1], [2, 5], lambda k, reps, block: seen.append(np.getbufsize()))
        assert seen == [4096, 4096] and np.getbufsize() == 4096

        def fail(k, reps, block):
            raise KeyError("consumer failed")

        with pytest.raises(KeyError, match="consumer failed"):
            _BatchEngine(g, 3, mode=mode).run([0, 1], [2, 5], fail)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
