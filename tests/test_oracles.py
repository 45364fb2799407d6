import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, exp1

from shelab.oracles import (_chaos_weights, _cos_gauss_primitive,
                            _first_chaos_weights, _twotime_inner,
                            _twotime_inner_numeric,
                            continuum_first_chaos, lattice_first_chaos,
                            lattice_first_chaos_covariance,
                            lemma_2, lemma_s0, lemma_twotime, lemma_y,
                            limiting_constant, reduced_cov_integral,
                            second_moment_volterra)
from shelab.sim import default_grid, discrete_kernel_log


def test_limiting_constant_is_two_for_all_t():
    for t in (0.1, 1.0, 10.0):
        res = limiting_constant(t)
        assert abs(res.value - 2.0) <= 1e-6
        assert res.abs_error_estimate < 1e-6
    with pytest.raises(ValueError):
        limiting_constant(0.0)


def test_reduced_cov_integral_at_zero():
    value = reduced_cov_integral(1.0, 0.0)
    # int_0^1 p_{2s(1-s)}(0) ds = sqrt(pi)/2, and a brute-force midpoint
    # Riemann sum over 10^6 nodes of the regularized form agrees
    assert value == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-10)
    n = 1_000_000
    theta = (np.arange(n) + 0.5) * (math.pi / 2 / n)
    riemann = math.sqrt(1 / math.pi) * np.sum(
        np.exp(-0.0 * np.tan(theta) ** 2)) * (math.pi / 2 / n)
    assert value == pytest.approx(riemann, abs=1e-6)


def test_reduced_cov_integral_closed_form_cross_check():
    # independent route: adaptive quadrature of the theta form of the
    # integral, s = t sin^2(theta), sqrt(t/pi) e^{-q^2 tan^2(theta)} on
    # [0, pi/2], q = x / (2 sqrt t).  It is written in phi = pi/2 - theta,
    # tan(theta) = 1/tan(phi), which keeps full precision near theta = pi/2.
    # It falls off where tan(theta) ~ 1/q (a spike at theta = 0 for large x,
    # a drop at pi/2 with a q^2/phi^2 tail for small x), so the pieces break
    # on a decade ladder of tan(phi) / q
    xs = (0.0, 1e-6, 0.5, 2.0, 4.0, 10.0, 100.0, 1e3, 1e4)
    for t, x in itertools.product((0.1, 1.0, 10.0), xs):
        q = x / (2 * math.sqrt(t))

        def f(phi):
            return math.sqrt(t / math.pi) * math.exp(-(q / math.tan(phi)) ** 2)

        edges = [0.0, *(math.atan(q * 10.0 ** k) for k in range(-1, 8)), math.pi / 2]
        ref = sum(quad(f, a, b, epsabs=1e-17, epsrel=1e-11, limit=200)[0]
                  for a, b in zip(edges, edges[1:]))
        assert reduced_cov_integral(t, x) == pytest.approx(ref, rel=1e-9)
    with pytest.raises(ValueError):
        reduced_cov_integral(0.0, 1.0)
    with pytest.raises(ValueError):
        reduced_cov_integral(1.0, -1.0)


def test_reduced_cov_integral_ladder_tends_to_two():
    vals = [2 * x * reduced_cov_integral(1.0, x) for x in (10, 100, 1000, 10000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 2.0) <= 1e-2


def test_reduced_cov_integral_node_doubling_stability():
    # fixed-node midpoint evaluations at doubling resolution
    t, x = 1.0, 3.0
    def midpoint(n):
        th = (np.arange(n) + 0.5) * (math.pi / 2 / n)
        f = math.sqrt(t / math.pi) * np.exp(-(x * x / (4 * t)) * np.tan(th) ** 2)
        return float(f.sum() * (math.pi / 2 / n))
    a, b = midpoint(40_000), midpoint(80_000)
    assert abs(a - b) <= 1e-8
    assert reduced_cov_integral(t, x) == pytest.approx(b, abs=1e-8)


def test_cos_gauss_primitive_against_quadrature():
    for u, c in [(1.0, 1.0), (0.5, 0.01), (2.0, 0.2)]:
        ref = quad(lambda z: (1 - np.cos(u * z)) / z ** 2 * np.exp(-c * z * z),
                   0, np.inf, limit=400)[0]
        assert _cos_gauss_primitive(u, c) == pytest.approx(ref, rel=1e-8)
    assert _cos_gauss_primitive(1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-14)


def test_twotime_inner_closed_form_vs_brute_force():
    for (t1, t2, c) in [(1.0, 2.0, 0.01), (1.0, 1.0, 0.3), (3.0, 0.5, 0.05)]:
        a = _twotime_inner(t1, t2, c)
        b = _twotime_inner_numeric(t1, t2, c)
        assert a == pytest.approx(b, rel=1e-5)


def test_lemma_twotime_ladder_and_extrapolation():
    # the integral is exact but approaches its 2(t1^t2) limit only at
    # O(1/log N); the ladder must increase monotonically and extrapolate
    # to the limit in 1/log N
    ns = [1e2, 1e4, 1e8, 1e16]
    vals = [lemma_twotime(1.0, 2.0, n).value for n in ns]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    x = 1.0 / np.log(ns)
    slope, icept = np.polyfit(x, vals, 1)
    assert icept == pytest.approx(2.0, abs=0.01)
    # reference values computed by this implementation and cross-checked
    # against an independent rectangle-overlap evaluation of the same
    # triple integral (agreement < 1e-6)
    assert lemma_twotime(1.0, 2.0, 1e4).value == pytest.approx(1.785128, abs=2e-5)
    assert lemma_twotime(3.0, 0.5, 1e4).value == pytest.approx(0.871067, abs=2e-5)


def test_lemma_twotime_direct_rectangle_cross_check():
    # independent route: do the (x1, x2) rectangle integral in closed form
    # (Gaussian overlap) and quadrature only in tau
    from scipy.special import ndtr

    def direct(t1, t2, N):
        A, B = N / t1, N / t2
        def rect(sig):
            s = math.sqrt(sig)
            def psi(u):
                return u * ndtr(u / s) + s * math.exp(-u * u / (2 * sig)) / math.sqrt(2 * math.pi)
            return psi(B) - psi(B - A) - psi(0.0) + psi(-A)
        f = lambda tau: rect(2 * N ** tau / min(t1, t2) - 1 / t1 - 1 / t2)
        val = quad(f, 0, 2, limit=400, points=[2 - 3 / math.log(N)])[0]
        return t1 * t2 / N * val

    for (t1, t2) in [(1.0, 2.0), (1.0, 1.0), (3.0, 0.5)]:
        a = lemma_twotime(t1, t2, 1e4).value
        b = direct(t1, t2, 1e4)
        assert a == pytest.approx(b, abs=1e-6)


def test_lemma_s0_ladder_and_log_scaling():
    vals = [lemma_s0(1.0, 1.0, n).value for n in (1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    scaled = [v * math.log(n) for v, n in zip(vals, (1e2, 1e3, 1e4))]
    assert max(scaled) / min(scaled) < 1.2
    v12 = lemma_s0(1.0, 2.0, 1e4).value
    assert 0 < v12 < lemma_s0(1.0, 2.0, 1e2).value


def test_one_minus_cos_over_z2_limit():
    # the naive expression cancels catastrophically near 0; the guarded
    # indicator transform gives (1-cos z)/z^2 = |ind_1(z)|^2 / 2 correctly
    from shelab.kernels import fourier_indicator
    for z in (1e-9, 1e-6, 1e-3):
        guarded = abs(fourier_indicator(z, 1.0)) ** 2 / 2
        assert guarded == pytest.approx(0.5, abs=1e-6)
    naive = (1 - math.cos(1e-9)) / 1e-18
    assert naive == 0.0               # why the guard exists


def test_lemma_2_ladder_and_inner_bound():
    vals = [lemma_2(1.0, 1.0, n).value for n in (1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # consistent with O(1/log N): value * log N drifts by < 1%
    scaled = [v * math.log(n) for v, n in zip(vals, (1e2, 1e3, 1e4))]
    assert max(scaled) / min(scaled) < 1.01
    # the proof's inner bound: int_0^1 e^{-a(1-r)/r} dr/r = e^a E_1(a)
    #                           <= e log(e + e/a)
    for a in (0.01, 1.0, 100.0):
        exact = quad(lambda r: math.exp(-a * (1 - r) / r) / r, 0, 1, limit=200)[0]
        assert exact == pytest.approx(math.exp(a) * exp1(a), rel=1e-8)
        assert exact <= math.e * math.log(math.e + math.e / a)


def test_lemma_2_dominating_integral_finite():
    f = lambda z: min(1.0, z * z) / (z * z) * math.log(math.e + math.e / (z * z))
    def total(pts, lim):
        head = quad(f, 0, 10, limit=lim, points=pts)[0]
        tail = quad(f, 10, np.inf, limit=lim)[0]
        return head + tail
    a = total([1.0], 400)
    b = total([0.5, 1.0, 2.0], 800)
    assert np.isfinite(a) and a > 0
    assert abs(a - b) < 1e-6          # stable under re-subdivision


def test_lemma_y_ladder():
    vals = [lemma_y(1.0, 2.0, n).value for n in (1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert lemma_y(1.0, 2.0, 1e8).value < 0.1


def _lemma_y_nested(t1, t2, N):
    # the nested form of lemma_y: a y-quadrature, split at the kink of
    # (1 ^ .) and cut at y = 12, inside the tau-quadrature
    def inner(tau):
        lam = N ** tau / min(t1, t2) - 1.0 / t2
        scale = N ** -tau * math.sqrt(max(lam, 0.0))

        def g(y):
            return math.exp(-y * y / 2) / math.sqrt(2 * math.pi) * min(1.0, math.sqrt(scale * y))

        pts = [1.0 / scale] if scale > 1.0 / 12.0 else None
        return 2.0 * quad(g, 0.0, 12.0, points=pts, epsabs=1e-12, epsrel=1e-10)[0]

    val, _, info = quad(inner, 0.0, 2.0, epsabs=1e-10, epsrel=1e-10, full_output=True)[:3]
    return val / t2, info["neval"]


@pytest.mark.parametrize("t1, t2, N", [(1.0, 2.0, 1e2), (1.0, 2.0, 1e4), (1.0, 2.0, 1e8),
                                       (0.5, 3.0, 1e3)])
def test_lemma_y_closed_inner_integral_matches_the_nested_quadrature(t1, t2, N):
    # the incomplete-gamma y-integral against a y-quadrature of p_1(y) (1 ^ .)
    ref, neval = _lemma_y_nested(t1, t2, N)
    res = lemma_y(t1, t2, N)
    assert res.value == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert res.evaluations == neval


def test_oracle_preconditions():
    for fn in (lemma_twotime, lemma_s0, lemma_2, lemma_y):
        with pytest.raises(ValueError):
            fn(1.0, 1.0, 5.0)        # N too small
        with pytest.raises(ValueError):
            fn(0.0, 1.0, 100.0)


def _delta_bose_pair_moment(t, x, y):
    # the delta-interaction pair propagator (Bertini & Cancrini 1995)
    # E[Z(t,x) Z(t,y)] = p_{t/2}((x+y)/2) [ p_{2t}(x-y)
    #     + (1/4) e^{t/4 - |x-y|/2} erfc((|x-y| - t)/(2 sqrt t)) ]
    u = abs(x - y)
    v = (x + y) / 2
    K = (math.exp(-u * u / (4 * t)) / math.sqrt(4 * math.pi * t)
         + 0.25 * math.exp(t / 4 - u / 2) * erfc((u - t) / (2 * math.sqrt(t))))
    return math.exp(-v * v / t) / math.sqrt(math.pi * t) * K


def test_volterra_matches_closed_form_pair_moment():
    def p(t, x):
        return math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)

    for t in (0.05, 0.5, 1.0, 3.0):
        for (x, y) in [(0.0, 0.0), (0.5, 0.0), (0.5, -0.5), (1.0, 0.3), (-2.0, 1.0)]:
            ref = _delta_bose_pair_moment(t, x, y) / (p(t, x) * p(t, y))
            assert second_moment_volterra(t, x, y) == pytest.approx(ref, rel=1e-12)


def test_volterra_symmetry_and_small_t_limit():
    assert second_moment_volterra(0.5, 0.4, -0.1) == second_moment_volterra(0.5, -0.1, 0.4)
    ratios = [second_moment_volterra(t, 0.0, 0.0) for t in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=0.35)


@pytest.mark.parametrize("t, x, y", [
    (0.5, 0.0, 0.0), (0.5, 0.5, -0.5), (1.0, 1.0, 0.3), (2.0, 3.0, -1.0),
    (0.1, 0.2, 0.0), (4.0, 0.0, 0.0), (1.0, 10.0, 0.0),
])
def test_volterra_solves_the_mild_form_equation(t, x, y):
    # ratio(t,x,y) = 1 + int_0^t p_{2s(t-s)/t}((s/t)|x-y|) ratio(s,0,0) ds,
    # with the s^{-1/2} (t-s)^{-1/2} endpoint factors of the kernel handed to
    # quad as its algebraic weight
    u = abs(x - y)

    def f(s):
        ratio_s = second_moment_volterra(s, 0.0, 0.0) if s > 0 else 1.0
        gauss = math.exp(-s * u * u / (4 * t * (t - s))) if s < t else float(u == 0)
        return math.sqrt(t / (4 * math.pi)) * gauss * ratio_s

    integral = quad(f, 0.0, t, weight="alg", wvar=(-0.5, -0.5),
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    assert second_moment_volterra(t, x, y) == pytest.approx(1.0 + integral, rel=1e-10)


def test_volterra_rejects_nonpositive_t():
    for t in (0.0, -0.5):
        with pytest.raises(ValueError):
            second_moment_volterra(t, 0.0, 0.0)


@pytest.mark.parametrize("t1, t2, N, ratio", [
    (1.0, 1.0, 50.0, 0.8271),
    (1.0, 1.0, 100.0, 0.8494),
    (1.0, 1.0, 200.0, 0.8674),
    (1.0, 2.0, 100.0, 0.8490),
    (2.0, 1.0, 100.0, 0.8490),
])
def test_continuum_first_chaos_ratio_to_two_t(t1, t2, N, ratio):
    # over 2 (t1 ^ t2) it rises towards 1 with N, above lemma_twotime/2
    res = continuum_first_chaos(t1, t2, N)
    assert res.value / (2.0 * min(t1, t2)) == pytest.approx(ratio, abs=5e-5)
    assert res.abs_error_estimate < 1e-8


def test_continuum_first_chaos_equals_the_covariance_integral_at_one_time():
    # at t1 = t2 = t: 2 int_0^N (N - x) R(x) dx / (N log N), R the first-chaos
    # height covariance reduced_cov_integral(t, x)
    N, t = 50.0, 1.0
    inner = quad(lambda x: (N - x) * reduced_cov_integral(t, x), 0.0, N,
                 epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    assert continuum_first_chaos(t, t, N).value == pytest.approx(
        2.0 * inner / (N * math.log(N)), rel=1e-12)


def test_continuum_first_chaos_preconditions():
    for args in ((0.0, 1.0, 50.0), (1.0, -1.0, 50.0), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            continuum_first_chaos(*args)


@pytest.mark.parametrize("dx, half_width, N, ratio", [
    (0.1, 58.0, 50.0, 0.6537),
    (0.1, 208.0, 200.0, 0.5367),
    (0.05, 58.0, 50.0, 0.7355),
])
def test_lattice_first_chaos_ratio_to_two_t(dx, half_width, N, ratio):
    # Var/2t at t = 1: below the continuum's 0.827 (N = 50) and 0.867
    # (N = 200), with a gap first order in dx, since the lattice drops the
    # noise at source times below dt
    cov = lattice_first_chaos(default_grid(dx, half_width), [1.0], N)
    assert cov.shape == (1, 1)
    assert cov[0, 0] / 2.0 == pytest.approx(ratio, abs=5e-5)


def test_lattice_first_chaos_two_times_on_the_fdd_grid():
    # the fdd acceptance grid: Cov/2(t_i ^ t_j) at times (1, 2), N = 100
    grid = default_grid(0.1, 112.0)
    cov = lattice_first_chaos(grid, [1.0, 2.0], 100.0)
    ratio = cov / (2.0 * np.minimum.outer([1.0, 2.0], [1.0, 2.0]))
    assert ratio == pytest.approx(np.array([[0.5966, 0.5963], [0.5963, 0.6283]]),
                                  abs=5e-5)
    assert cov[0, 1] == cov[1, 0]
    assert lattice_first_chaos(grid, [2.0, 1.0], 100.0)[0, 1] == cov[0, 1]


def test_lattice_first_chaos_weights_keep_the_bridge_identity():
    # C is symmetric, so sum_j a_k(j) = sum_j q_j = N at every step k
    grid = default_grid(0.1, 112.0)
    for kt, a in zip((100, 200), _first_chaos_weights(grid, [100, 200], 100.0)):
        assert a.shape == (kt, grid.cell_count)
        assert np.all(a >= 0.0)
        assert np.abs(a.sum(axis=1) - 100.0).max() <= 1e-10
    # the weights of h(t, x), a unit mass at x, are the lattice bridge from 0
    # to x, which sums to 1 at every k
    grid = default_grid(0.1, 38.0)
    kt = grid.step_of(1.0)
    logK = discrete_kernel_log(grid, kt)
    for x in (0.0, 3.0, 10.0, 30.0, -20.0):
        a = _chaos_weights(grid, logK, kt, [grid.index_of(x)], 0.0)
        assert a.shape == (kt, grid.cell_count)
        assert np.all(a >= 0.0)
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-12


def test_lattice_first_chaos_preconditions():
    grid = default_grid(0.1, 12.0)
    with pytest.raises(ValueError):
        lattice_first_chaos(grid, [1.0], 1.0)
    with pytest.raises(ValueError):
        lattice_first_chaos(grid, [0.0, 1.0], 5.0)
    with pytest.raises(ValueError, match="noise cone"):
        lattice_first_chaos(grid, [0.01], 5.0)       # 2 steps reach 2.2


def test_lattice_first_chaos_richardson_step_meets_the_continuum():
    # Var/2t is first order in dx, so one Richardson step of the dx = 0.05
    # and 0.025 values lands within 0.5% of the continuum's 0.8271 (N = 50)
    fine, finer = (lattice_first_chaos(default_grid(dx, 60.0), [1.0], 50.0)[0, 0] / 2.0
                   for dx in (0.05, 0.025))
    assert (fine, finer) == pytest.approx((0.7355, 0.7804), abs=5e-5)
    continuum = continuum_first_chaos(1.0, 1.0, 50.0).value / 2.0
    assert 2.0 * finer - fine == pytest.approx(continuum, rel=5e-3)


@pytest.mark.parametrize("half_width, xs, ratios", [
    (38.0, [3.0, 5.0, 10.0, 20.0, 30.0], [0.8991, 0.8462, 0.7085, 0.4506, 0.2541]),
    (20.0, [4.0, 6.0, 8.0], [0.8730, 0.8189, 0.7638]),   # the covariance grid
])
def test_lattice_first_chaos_covariance_ratio_to_the_continuum(half_width, xs, ratios):
    # C_lat(x) over reduced_cov_integral(1, x) at dx = 0.1: the lattice cuts
    # off the t/x tail, which comes from source times s ~ 4 t^2 / x^2 < dt
    grid = default_grid(0.1, half_width)
    cov = lattice_first_chaos_covariance(grid, 1.0, xs)
    cont = [reduced_cov_integral(1.0, x) for x in xs]
    assert cov / np.array(cont) == pytest.approx(np.array(ratios), abs=5e-5)
    assert lattice_first_chaos_covariance(grid, 1.0, [-x for x in xs]) == pytest.approx(
        cov, rel=1e-12)


def test_lattice_first_chaos_covariance_widens_a_narrow_grid():
    # the first chaos belongs to the infinite lattice: an x past the grid's
    # truncation margin, or past its edge, gets the grid that keeps it
    wide = lattice_first_chaos_covariance(default_grid(0.1, 38.0), 1.0, [30.0])
    assert lattice_first_chaos_covariance(default_grid(0.1, 20.0), 1.0, [30.0]) == wide
    assert lattice_first_chaos_covariance(default_grid(0.1, 20.0), 1.0, [8.0]) == (
        pytest.approx(lattice_first_chaos_covariance(default_grid(0.1, 38.0), 1.0, [8.0]),
                      rel=1e-12))


def test_lattice_first_chaos_covariance_preconditions():
    grid = default_grid(0.1, 12.0)
    with pytest.raises(ValueError):
        lattice_first_chaos_covariance(grid, 0.0, [1.0])
    with pytest.raises(ValueError, match="lattice"):
        lattice_first_chaos_covariance(grid, 1.0, [1.05])
    assert math.isnan(lattice_first_chaos_covariance(grid, 0.01, [3.0])[0])  # 2 steps reach 2.2
