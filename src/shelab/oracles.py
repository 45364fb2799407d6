"""Deterministic oracles, independent of the simulator.

Each closed-form identity and appendix-style bound is evaluated on its
reduced form: endpoint singularities are removed by substitution
(s = u^2, s = v^4, r = 1/u), and the inner integrals are collapsed with
exact primitives: Gaussian against cosine,

    int_0^inf (1 - cos(u z)) / z^2 * exp(-c z^2) dz
        = (pi u / 2) erf(u / (2 sqrt(c))) + sqrt(pi c) (e^{-u^2/(4c)} - 1),

the exponential integral, int_0^1 exp(-q / r) dr / r = E_1(q), and, in
lemma_y, an incomplete gamma function plus a normal tail.  So each
continuum oracle is a closed form or one benign 1-d adaptive quadrature,
and no quadrature runs inside another.  Two need no quadrature:
reduced_cov_integral is an erfcx, and the second-moment Volterra system
has the closed-form delta-Bose solution.  Nothing here consumes simulator
output; the two lattice oracles, lattice_first_chaos and
lattice_first_chaos_covariance, take the engine's heat step and no noise.
Both read the weights of _chaos_weights, which one log-space sweep,
sim.discrete_kernel_log, computes for any linear functional of h: forward
from x = 0 for the kernel, backward from the functional for the rest.  A
lag past the noise cone reads nan in lattice_first_chaos_covariance, and
null in a covariance report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx, exp1, gammainc, ndtr

from .kernels import fourier_indicator
from .sim import _LOG_FLOOR, GridSpec, discrete_kernel_log

__all__ = [
    "QuadratureResult",
    "limiting_constant",
    "reduced_cov_integral",
    "lemma_twotime",
    "lemma_s0",
    "lemma_2",
    "lemma_y",
    "continuum_first_chaos",
    "lattice_first_chaos",
    "lattice_first_chaos_covariance",
    "second_moment_volterra",
]

_QUAD_TOL = 1e-10


@dataclass
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _quad(f, a, b, **kw):
    # only the quadrature oracles need scipy.integrate; after import shelab it
    # costs about 0.17 s and 22 MB with the scipy.optimize and scipy.linalg it
    # loads (2-vCPU VM)
    from scipy.integrate import quad
    val, err, info = quad(f, a, b, full_output=True,
                          epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, **kw)[:3]
    return QuadratureResult(value=float(val), abs_error_estimate=float(err),
                            evaluations=int(info["neval"]))


def _scaled(res: QuadratureResult, pref: float) -> QuadratureResult:
    """res with value and error estimate multiplied by pref."""
    return QuadratureResult(value=pref * res.value,
                            abs_error_estimate=pref * res.abs_error_estimate,
                            evaluations=res.evaluations)


def _lemma_min_time(t1: float, t2: float, N: float) -> float:
    """t1 ^ t2, after checking the lemma integrals' common domain."""
    if min(t1, t2) <= 0 or N < 10:
        raise ValueError("need t1, t2 > 0 and N >= 10")
    return min(t1, t2)


def limiting_constant(t: float) -> QuadratureResult:
    """integral_0^inf (pi s t^2)^(-1/2) e^{-s/(4 t^2)} ds, exactly 2 for all t.

    The substitution s = u^2 removes the endpoint singularity; the remaining
    integrand is a half Gaussian.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    c = 2.0 / (t * math.sqrt(math.pi))
    return _quad(lambda u: c * math.exp(-u * u / (4 * t * t)), 0.0, np.inf)


def reduced_cov_integral(t: float, x: float) -> float:
    """integral_0^t p_{2s(t-s)/t}((s/t) x) ds, in closed form.

    With s = t sin^2(theta) and u = tan(theta) the integrand becomes
    sqrt(t/pi) e^{-(x^2/4t) u^2} / (1 + u^2), whose integral over u > 0 is

        (sqrt(pi t)/2) erfcx(x / (2 sqrt t)) = (t/x) (1 - 2t/x^2 + O(x^-4)),

    so (2x/t) times the value tends to 2 as x -> infinity.
    """
    if t <= 0 or x < 0:
        raise ValueError("need t > 0 and x >= 0")
    return 0.5 * math.sqrt(math.pi * t) * float(erfcx(x / (2.0 * math.sqrt(t))))


def _cos_gauss_primitive(u: float, c: float) -> float:
    """int_0^inf (1 - cos(uz))/z^2 e^{-c z^2} dz for u, c >= 0."""
    if u == 0.0:
        return 0.0
    if c <= 0.0:
        return math.pi * u / 2.0
    r = u / (2.0 * math.sqrt(c))
    return (math.pi * u / 2.0) * erf(r) + math.sqrt(math.pi * c) * (math.expm1(-r * r))


def _twotime_inner(t1: float, t2: float, c: float) -> float:
    """int_R Re[ind_{1/t1}(z) conj(ind_{1/t2}(z))] e^{-c z^2} dz.

    The real part of the indicator-transform product decomposes into three
    (1 - cos)/z^2 terms, each with an exact Gaussian primitive.
    """
    a, b = 1.0 / t1, 1.0 / t2
    return 2.0 * (_cos_gauss_primitive(a, c) + _cos_gauss_primitive(b, c)
                  - _cos_gauss_primitive(abs(a - b), c))


def _twotime_inner_numeric(t1: float, t2: float, c: float,
                           z_max: float = 400.0, nodes: int = 200001) -> float:
    """Brute-force validation twin of _twotime_inner (midpoint rule on the
    guarded fourier_indicator product); used by the test suite."""
    z = (np.arange(nodes) + 0.5) * (z_max / nodes)
    f = fourier_indicator(z, 1.0 / t1) * np.conj(fourier_indicator(z, 1.0 / t2))
    return 2.0 * float((f.real * np.exp(-c * z * z)).sum() * (z_max / nodes))


def lemma_twotime(t1: float, t2: float, N: float) -> QuadratureResult:
    """(t1 t2 / N) int_0^{N/t1} int_0^{N/t2} int_0^2
           p_{2 N^tau/(t1^t2 min) - 1/t1 - 1/t2}(x2 - x1) dtau dx2 dx1.

    Evaluated through the Parseval reduction: the (x1, x2) rectangle becomes
    indicator transforms, the z integral collapses via the cosine-Gaussian
    primitive, and tau remains as a 1-d adaptive quadrature.  The limit for
    N -> infinity is 2 (t1 ^ t2); the approach is O(1/log N) slow, driven by
    the tau ~ 2 boundary layer where the Gaussian is as wide as the domain.
    """
    tm = _lemma_min_time(t1, t2, N)
    lnN = math.log(N)

    def integrand(tau):
        c = (math.exp(tau * lnN) / tm - 0.5 / t1 - 0.5 / t2) / (N * N)
        return _twotime_inner(t1, t2, max(c, 0.0))

    res = _quad(integrand, 0.0, 2.0, points=[2.0 - 3.0 / lnN], limit=400)
    return _scaled(res, t1 * t2 / (2.0 * math.pi))


def lemma_s0(t1: float, t2: float, N: float) -> QuadratureResult:
    """Reduced bound of the small-s error term:

    (t1 t2 / (pi (t1^t2) log N)) int_0^{t1^t2} s^{-3/4}
        int_R (1-cos z)/z^2 exp[-(1/s - 1/(2t1) - 1/(2t2)) z^2/((t1^t2)^2 N^2)] dz ds.

    Decays to 0 like O(1/log N).  s = v^4 removes the endpoint singularity.
    """
    tm = _lemma_min_time(t1, t2, N)
    scale = (tm * N) ** 2

    def f(v):
        s = v ** 4
        c = (1.0 / s - 0.5 / t1 - 0.5 / t2) / scale
        return 4.0 * 2.0 * _cos_gauss_primitive(1.0, max(c, 0.0))

    res = _quad(f, 0.0, tm ** 0.25)
    return _scaled(res, t1 * t2 / (math.pi * tm * math.log(N)))


def lemma_2(t1: float, t2: float, N: float) -> QuadratureResult:
    """Fourier-domain bound of the ultrashort-time error term:

    (t1 t2 / log N) int_0^1 dr/r int_R |ind_{1/t1}(z) ind_{1/t2}(z)|
        exp[-(1/r - 1/N^2) z^2 / (t1^t2)] dz.

    The r integral is exactly e^{q/N^2} E_1(q) with q = z^2/(t1^t2) (the
    proof bounds it by e log(e + e/q)); the remaining z integral has the
    integrable log singularity of E_1 at 0 and a Gaussian tail.
    """
    tm = _lemma_min_time(t1, t2, N)
    a, b = 1.0 / t1, 1.0 / t2

    def f(z):
        q = z * z / tm
        if q == 0.0:
            return 0.0
        mod = abs(fourier_indicator(z, a) * fourier_indicator(z, b))
        return mod * math.exp(q / (N * N)) * exp1(q)

    # E_1 kills the integrand beyond z^2/tm ~ 700; stay clear of overflow
    z_hi = math.sqrt(700.0 * tm)
    res = _quad(f, 0.0, z_hi, points=[min(1.0, z_hi / 2)], limit=400)
    return _scaled(res, 2.0 * t1 * t2 / math.log(N))


def lemma_y(t1: float, t2: float, N: float) -> QuadratureResult:
    """Spatial-offset error bound:

    t2^{-1} int_0^2 int_R p_1(y) (1 ^ |N^{-tau} y sqrt(N^tau/(t1^t2) - 1/t2)|^{1/2}) dy dtau.

    Decays to 0 along an N ladder; the dominant contribution shrinks like a
    power of N^{-tau/4} inside the tau integral.  The y integral is closed:
    with scale = N^{-tau} sqrt(N^tau/(t1^t2) - 1/t2), the kink of (1 ^ .)
    sits at y = k = 1/scale, and u = y^2/2 turns the part below k into an
    incomplete gamma function and leaves a normal tail,

        2 [sqrt(scale) 2^{-1/4} Gamma(3/4) (2 pi)^{-1/2} P(3/4, k^2/2) + Phi(-k)],

    0 at scale = 0; tau remains as a 1-d adaptive quadrature.
    """
    tm = _lemma_min_time(t1, t2, N)
    lnN = math.log(N)
    c = 2.0 ** -0.25 * math.gamma(0.75) / math.sqrt(2.0 * math.pi)

    def inner(tau):
        lam = math.exp(tau * lnN) / tm - 1.0 / t2
        scale = math.exp(-tau * lnN) * math.sqrt(max(lam, 0.0))
        if scale == 0.0:
            return 0.0
        k = 1.0 / scale
        return 2.0 * (math.sqrt(scale) * c * gammainc(0.75, 0.5 * k * k) + ndtr(-k))

    return _scaled(_quad(inner, 0.0, 2.0), 1.0 / t2)


def continuum_first_chaos(t1: float, t2: float, N: float) -> QuadratureResult:
    """The continuum first chaos of Cov[X_N(t1), X_N(t2)]:

    (N log N)^-1 int_0^{t1^t2} (t1 t2 / s^2) [I(A) - I(0) - I(A-B) + I(-B)] ds,

    with A = sN/t1, B = sN/t2, sigma^2 = s(t1-s)/t1 + s(t2-s)/t2 and
    I(c) = c Phi(c/sigma) + sigma phi(c/sigma).  I'' is the normal density
    of variance sigma^2, so the bracket is its double integral over
    [0, A] x [0, B] at the difference of the two points.  At t1 = t2 = t it
    equals 2 int_0^N (N - x) R(x) dx / (N log N), R = reduced_cov_integral.
    Over 2 (t1^t2) it tends to 1 as N grows (0.827 at N = 50, t = 1), faster
    than lemma_twotime/2.  The integrand goes like s^{-1/2} at s = 0, which
    s = u^2 removes.
    """
    if min(t1, t2) <= 0 or N <= 1:
        raise ValueError("need t1, t2 > 0 and N > 1")

    def I(c, sigma):
        return (c * ndtr(c / sigma)
                + sigma * math.exp(-0.5 * (c / sigma) ** 2) / math.sqrt(2 * math.pi))

    def f(u):
        s = u * u
        a, b = s * N / t1, s * N / t2
        sigma = math.sqrt(s * (t1 - s) / t1 + s * (t2 - s) / t2)
        bracket = I(a, sigma) - I(0.0, sigma) - I(a - b, sigma) + I(-b, sigma)
        return 2.0 * u * t1 * t2 / (s * s) * bracket

    res = _quad(f, 0.0, math.sqrt(min(t1, t2)), limit=200)
    return _scaled(res, 1.0 / (N * math.log(N)))


def _chaos_weights(grid: GridSpec, logK: np.ndarray, kt: int, cells, logq):
    """The weights a_k(j) = K_{k+1}(y_j) (C^{kt-1-k} u_0)(y_j) of the noise of
    step k < kt in the first chaos of the linear functional sum_i q_i h(t, x_i)
    after kt steps, a (kt, cell_count) array; None when a cell of `cells` lies
    past the noise cone.

    q is given on the grid indices `cells` by its logs logq, logK is the
    table of sim.discrete_kernel_log with at least kt + 1 rows, C is the heat
    step and u_0 = q / K_kt.  u is swept in log space by the same
    sim.discrete_kernel_log, since K_kt underflows far from the origin where
    u_0 does not.  C is symmetric, so sum_j a_k(j) = sum_i q_i at every k.
    """
    if np.any(logK[kt][cells] <= _LOG_FLOOR / 2):
        return None
    logu0 = np.full(grid.cell_count, _LOG_FLOOR)
    logu0[cells] = logq - logK[kt][cells]
    return np.exp(logK[1:kt + 1] + discrete_kernel_log(grid, kt - 1, logu0)[::-1])


def _first_chaos_weights(grid: GridSpec, steps, N: float):
    """_chaos_weights of X_N after each step count kt of `steps`: q holds
    the trapezoid weights of the cells 0 <= x <= N that
    stats.spatial_averages uses (they sum to N)."""
    cells = grid.window(0.0, N)
    logq = np.full(cells.size, math.log(grid.dx))
    logq[[0, -1]] = math.log(grid.dx / 2)
    logK = discrete_kernel_log(grid, max(steps))
    weights = []
    for kt in steps:
        a = _chaos_weights(grid, logK, kt, cells, logq)
        if a is None:
            raise ValueError(f"[0, {N:g}] reaches past the noise cone after {kt} steps")
        weights.append(a)
    return weights


def lattice_first_chaos(grid: GridSpec, times, N: float) -> np.ndarray:
    """The first chaos of Cov[X_N(t_i), X_N(t_j)] on the lattice of `grid`, as
    a len(times) x len(times) matrix:

    (dt/dx) sum_{k < k_min} sum_j a_k^(t_i)(j) a_k^(t_j)(j) / (N log N),

    k_min the step count of t_i ^ t_j and a_k the weights of
    _first_chaos_weights.  The lattice resolves only noise at source times
    s >~ dt, which cuts off the covariance tail that the continuum first
    chaos (continuum_first_chaos) keeps; over 2 (t_i ^ t_j) it reads 0.654
    at dx = 0.1, N = 50, t = 1, against the continuum's 0.827.
    """
    if N <= 1:
        raise ValueError("need N > 1")
    steps = [grid.step_of(t) for t in times]
    if min(steps) <= 0:
        raise ValueError("times must be positive")
    a = _first_chaos_weights(grid, steps, N)
    cov = np.array([[np.vdot(ai[:min(ki, kj)], aj[:min(ki, kj)])
                     for aj, kj in zip(a, steps)] for ai, ki in zip(a, steps)])
    return cov * (grid.dt / grid.dx) / (N * math.log(N))


def lattice_first_chaos_covariance(grid: GridSpec, t: float, xs) -> np.ndarray:
    """The first chaos of Cov[h(t, x), h(t, 0)] on the infinite lattice of
    grid's dx and dt, at each lattice position x of xs:

    (dt/dx) sum_{k < kt} sum_j a_k^x(j) a_k^0(j),

    kt the step count of t and a^x the _chaos_weights of a unit mass at x:
    a_k^x(j) = K_{k+1}(y_j) K_{kt-k-1}(x - y_j) / K_kt(x), the lattice
    bridge from 0 to x at step k + 1.  The grid is widened (same dx and dt)
    until its half-width keeps the truncation rule, L >= max |x| + 8 sqrt(t).
    nan for an x past the noise cone, where h(t, x) = -inf.  The continuum
    limit is reduced_cov_integral(t, x); at dx = 0.1, t = 1 the ratio falls
    from 0.899 at x = 3 to 0.254 at x = 30, because the lattice resolves
    only noise at source times s >~ dt, and the t/x tail comes from
    s ~ 4 t^2 / x^2.
    """
    kt = grid.step_of(t)
    if kt <= 0:
        raise ValueError("t must be positive")
    x_max = max(abs(float(x)) for x in xs)
    if not grid.covers(t, x_max):
        cells = math.ceil(grid.truncation_half_width(t, x_max) / grid.dx - 1e-9)
        grid = GridSpec(grid.dx, cells * grid.dx, grid.dt)
    logK = discrete_kernel_log(grid, kt)

    def bridge(x):
        return _chaos_weights(grid, logK, kt, [grid.index_of(float(x))], 0.0)

    b0 = bridge(0.0)
    cov = [math.nan if b is None else np.vdot(b, b0) for b in map(bridge, xs)]
    return np.array(cov) * (grid.dt / grid.dx)


# ---------------------------------------------------------------------------
# second-moment oracle
# ---------------------------------------------------------------------------

def second_moment_volterra(t: float, x: float, y: float) -> float:
    """E[Z(t,x) Z(t,y)] / (p_t(x) p_t(y)) for narrow-wedge data, in closed form.

    The mild-form Ito isometry gives a Volterra system for the pair moment;
    with the kernel-product identity its ratio to p_t(x) p_t(y) satisfies

        ratio(t,x,y) = 1 + int_0^t p_{2s(t-s)/t}((s/t)|x-y|) ratio(s,0,0) ds,

    whose solution is the delta-Bose-gas two-point function (Bertini and
    Cancrini, J. Stat. Phys. 78, 1995)

        ratio(t,x,y) = 1 + (sqrt(pi t)/2) erfcx((|x-y| - t) / (2 sqrt t)).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a = (abs(x - y) - t) / (2.0 * math.sqrt(t))
    return 1.0 + 0.5 * math.sqrt(math.pi * t) * float(erfcx(a))
