"""Deterministic quadrature oracles, independent of the simulator.

Each closed-form identity and appendix-style bound is evaluated on its
reduced form: endpoint singularities are removed by substitution
(s = u^2, s = v^4, r = 1/u), and Gaussian-vs-cosine inner integrals are
collapsed with the exact primitives

    int_0^inf (1 - cos(u z)) / z^2 * exp(-c z^2) dz
        = (pi u / 2) erf(u / (2 sqrt(c))) + sqrt(pi c) (e^{-u^2/(4c)} - 1)

    int_0^1 exp(-q / r) dr / r = E_1(q)

so every driver is a benign 1-2 dimensional adaptive quadrature.  Nothing
here consumes simulator output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, exp1

from .kernels import fourier_indicator, heat_kernel, log_heat_kernel

__all__ = [
    "QuadratureResult",
    "limiting_constant",
    "reduced_cov_integral",
    "lemma_twotime",
    "lemma_s0",
    "lemma_2",
    "lemma_y",
    "VolterraSecondMoment",
    "second_moment_volterra",
]

_QUAD_TOL = 1e-10


@dataclass
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def _quad(f, a, b, **kw):
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


def reduced_cov_integral(t: float, x: float) -> QuadratureResult:
    """integral_0^t p_{2s(t-s)/t}((s/t) x) ds.

    With s = t sin^2(theta) and u = tan(theta) the integrand becomes
    sqrt(t/pi) e^{-(x^2/4t) u^2} / (1 + u^2); for x > 0 a further rescaling
    w = x u / (2 sqrt(t)) keeps the Gaussian spike resolved at any x.
    (2x/t) times the value tends to 2 as x -> infinity.
    """
    if t <= 0 or x < 0:
        raise ValueError("need t > 0 and x >= 0")
    pref = math.sqrt(t / math.pi)
    if x == 0.0:
        return _quad(lambda u: pref / (1.0 + u * u), 0.0, np.inf)
    q = x / (2.0 * math.sqrt(t))

    def f(w):
        u = w / q
        return (pref / q) * math.exp(-w * w) / (1.0 + u * u)

    return _quad(f, 0.0, np.inf)


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
    power of N^{-tau/4} inside the tau integral.
    """
    tm = _lemma_min_time(t1, t2, N)
    lnN = math.log(N)

    def inner(tau):
        lam = math.exp(tau * lnN) / tm - 1.0 / t2
        scale = math.exp(-tau * lnN) * math.sqrt(max(lam, 0.0))

        def g(y):
            return heat_kernel(1.0, y) * min(1.0, math.sqrt(scale * y))

        # the (1 ^ .) kink sits at y = 1/scale; split there so quad sees
        # smooth pieces
        kink = 1.0 / scale if scale > 1.0 / 12.0 else None
        pts = [kink] if kink else None
        return quad(g, 0.0, 12.0, points=pts, epsabs=1e-12, epsrel=1e-10)[0] * 2.0

    res = _quad(inner, 0.0, 2.0)
    return QuadratureResult(value=res.value / t2,
                            abs_error_estimate=res.abs_error_estimate / t2,
                            evaluations=res.evaluations)


# ---------------------------------------------------------------------------
# Volterra second-moment oracle
# ---------------------------------------------------------------------------

class ResolutionError(RuntimeError):
    """Raised when the marching grid cannot certify the requested tolerance."""


def _simpson_theta(n_theta: int):
    """Nodes on [0, pi/2] and composite Simpson weights (n_theta odd)."""
    thetas = np.linspace(0.0, math.pi / 2, n_theta)
    simp = np.ones(n_theta)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    simp *= (thetas[1] - thetas[0]) / 3.0
    return thetas, simp


class VolterraSecondMoment:
    """Second moments of Z from the mild-form Ito isometry, by time marching.

    The Volterra system  g(t,z) = p_t(z)^2 + int_0^t int p_{t-s}(z-w)^2 g(s,w) dw ds
    is marched in the bounded ratio G2(s,w) = g(s,w)/p_s(w)^2, for which the
    kernel-product identity collapses the equation to

        G2(t,z) = 1 + sqrt(t/pi) int_0^{pi/2} M[G2](t sin^2 theta, z) dtheta,
        M[G2](s, z) = int p_{s(t-s)/(2t)}(w - (s/t) z) G2(s, w) dw,

    i.e. Gaussian-weighted averages of earlier levels; theta quadrature is a
    composite Simpson rule and the (weak) implicit endpoint is solved exactly
    since it enters linearly.  The pair function follows the same reduction:

        f(t,x,y) = p_t(x) p_t(y) [1 + int_0^t p_{2s(t-s)/t}((s/t)(x-y))
                                       M'[G2](s, (x+y)/2 ...) ds].
    """

    def __init__(self, t: float, time_levels: int, w_halfwidth: float, dw: float):
        self.t = t
        self.K = time_levels
        self.wgrid = np.arange(-w_halfwidth, w_halfwidth + dw / 2, dw)
        self.dw = dw
        self.slevels = np.linspace(0.0, t, time_levels + 1)
        self.G2 = None
        self._march()

    # Gaussian-weighted average of a level against p_var(w - mu), normalized
    # on the grid so that averaging the constant 1 returns exactly 1.
    def _gauss_avg(self, level_vals, mu, var):
        if var < 1e-14:
            idx = np.clip(np.round((mu - self.wgrid[0]) / self.dw).astype(int),
                          0, self.wgrid.size - 1)
            return level_vals[idx]
        logw = -((self.wgrid[None, :] - np.asarray(mu)[:, None]) ** 2) / (2.0 * var)
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        return (w * level_vals[None, :]).sum(axis=1) / w.sum(axis=1)

    def _interp_level(self, s):
        """Linear-in-s interpolation of G2(s, .) between marched levels."""
        if s <= 0.0:
            return np.ones_like(self.wgrid)
        k = s / (self.t / self.K)
        k0 = min(int(math.floor(k)), self.K - 1)
        frac = k - k0
        return (1 - frac) * self.G2[k0] + frac * self.G2[k0 + 1]

    def _march(self, n_theta: int = 33):
        K = self.K
        self.G2 = np.ones((K + 1, self.wgrid.size))
        thetas, simp = _simpson_theta(n_theta)
        for k in range(1, K + 1):
            tk = self.slevels[k]
            pref = math.sqrt(tk / math.pi)
            acc = np.zeros(self.wgrid.size)
            w_implicit = 0.0
            for th, wq in zip(thetas, simp):
                s = tk * math.sin(th) ** 2
                var = s * (tk - s) / (2.0 * tk)
                if s >= self.slevels[k] - 1e-15:
                    # endpoint touches the unknown level; it enters linearly
                    w_implicit += wq
                    continue
                mu = (s / tk) * self.wgrid
                acc += wq * self._gauss_avg(self._interp_level(s), mu, var)
            self.G2[k] = (1.0 + pref * acc) / (1.0 - pref * w_implicit)

    def second_moment_ratio(self, z: float) -> float:
        """G2(t, z) = E[Z(t,z)^2] / p_t(z)^2."""
        return float(np.interp(z, self.wgrid, self.G2[-1]))

    def pair_ratio(self, x: float, y: float) -> float:
        """f(t,x,y) / (p_t(x) p_t(y)), symmetric in (x, y) by construction."""
        t = self.t
        half = (x + y) / 2.0
        diff = abs(x - y)
        thetas, simp = _simpson_theta(129)
        total = 0.0
        for th, wq in zip(thetas, simp):
            s = t * math.sin(th) ** 2
            # ds p_{2s(t-s)/t}((s/t) diff) = sqrt(t/pi) e^{-(diff^2/4t) tan^2} dtheta
            expo = -(diff * diff / (4.0 * t)) * math.tan(th) ** 2
            gauss = math.sqrt(t / math.pi) * (math.exp(expo) if expo > -745.0 else 0.0)
            if gauss == 0.0:
                continue
            var = s * (t - s) / (2.0 * t)
            mu = np.array([(s / t) * half])
            avg = float(self._gauss_avg(self._interp_level(min(s, t)), mu, var)[0])
            total += wq * gauss * avg
        return 1.0 + total

    def pair_moment(self, x: float, y: float) -> float:
        """E[Z(t,x) Z(t,y)]."""
        return float(np.exp(log_heat_kernel(self.t, x) + log_heat_kernel(self.t, y))
                     * self.pair_ratio(x, y))

    __call__ = pair_moment


def second_moment_volterra(t: float, time_levels: int = 96,
                           rel_tol: float = 0.01) -> VolterraSecondMoment:
    """Build the Volterra oracle and certify it by grid self-convergence.

    Marches at `time_levels` and at half resolution; if the relative change
    of E[Z(t,0)^2]/p_t(0)^2 exceeds rel_tol, refuses with diagnostics.
    Restricted to t <= 1 (cost grows with t).
    """
    if not 0 < t <= 1.0:
        raise ValueError("oracle supports 0 < t <= 1")
    if time_levels < 16:
        raise ValueError("need at least 16 time levels")
    # the diagonal ratio is flat in w (the reduced equation preserves the
    # shear invariance of the ratio field), so a modest w grid suffices
    w_half = 6.0 * math.sqrt(t)
    dw = math.sqrt(t) / 16.0
    fine = VolterraSecondMoment(t, time_levels, w_half, dw)
    coarse = VolterraSecondMoment(t, time_levels // 2, w_half, dw * 2)
    a, b = fine.second_moment_ratio(0.0), coarse.second_moment_ratio(0.0)
    drift = abs(a - b) / abs(a)
    if drift > rel_tol:
        raise ResolutionError(
            f"self-convergence {drift:.3%} exceeds {rel_tol:.1%} at "
            f"time_levels={time_levels} (fine {a:.6f} vs coarse {b:.6f}); "
            "increase time_levels")
    fine.self_convergence = drift
    return fine
