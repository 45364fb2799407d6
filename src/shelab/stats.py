"""Statistics on height-residual ensembles.

The covariance estimator averages lagged products over spatial translates
within each replicate (valid because the residual law is translation
invariant in the bulk) and over replicates.  Standard errors come from the
per-replicate block means only: translates inside one replicate carry the
very long-range correlation under study, so per-translate errors would be
badly anticonservative.  n_effective counts replicates times the number
of decorrelation lengths in the translate span, with the decorrelation
length fixed at 1.0 (_DECORRELATION_LENGTH).

Each replicate contributes an immutable record keyed by replicate_id, and
finalize reduces the records in replicate_id order, so the estimate does not
depend on the order of add() calls.  The drivers concatenate worker chunks
in id order and add every row to one accumulator; merge() (a disjoint union
of partial accumulators) is a library convenience that no driver uses.

ks_normality takes its p-value from _kstwo_sf, a port of
scipy.stats.kstwo.sf that returns scipy's bits, so this module needs only
scipy.special, which every run loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, smirnov

__all__ = [
    "CovarianceEstimate",
    "TestReport",
    "CovarianceAccumulator",
    "mean_se",
    "spatial_averages",
    "ks_normality",
    "fdd_covariance",
]

_DECORRELATION_LENGTH = 1.0

# fewest samples ks_normality accepts: below it the test is underpowered
KS_MIN_SAMPLES = 50


def mean_se(values):
    """Mean and standard error std(ddof=1)/sqrt(m) over the m rows (axis 0)."""
    v = np.asarray(values, dtype=float)
    return v.mean(axis=0), v.std(axis=0, ddof=1) / math.sqrt(v.shape[0])


@dataclass
class CovarianceEstimate:
    t: float
    lags: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    n_effective: np.ndarray

    def __post_init__(self):
        if not (len(self.lags) == len(self.cov) == len(self.se) == len(self.n_effective)):
            raise ValueError("lags, cov, se, n_effective must share length")


@dataclass
class TestReport:
    name: str
    statistic: float
    p_value: float
    sample_size: int
    significance: float

    @property
    def reject(self) -> bool:
        return self.p_value < self.significance


class CovarianceAccumulator:
    """Accumulator of residual rows over a common bulk window.

    add() stores one replicate's residual values on the window (its finite
    cells are the valid ones); merge() unions disjoint replicate sets;
    finalize() computes the translate-averaged covariance at the requested
    lags.
    Centering uses the per-cell ensemble mean, which makes the estimate
    exactly invariant to adding any deterministic profile f(x).
    """

    def __init__(self, window_positions: np.ndarray):
        self.positions = np.asarray(window_positions, dtype=float)
        self._rows = {}

    def add(self, replicate_id: int, values: np.ndarray):
        if replicate_id in self._rows:
            raise ValueError(f"duplicate replicate_id {replicate_id}")
        values = np.asarray(values, dtype=float)
        if values.shape != self.positions.shape:
            raise ValueError("row length does not match the window")
        self._rows[replicate_id] = (values, np.isfinite(values))

    def merge(self, other: "CovarianceAccumulator") -> "CovarianceAccumulator":
        if not np.array_equal(self.positions, other.positions):
            raise ValueError("cannot merge accumulators over different windows")
        dup = set(self._rows) & set(other._rows)
        if dup:
            raise ValueError(f"replicate ids present in both partials: {sorted(dup)[:4]}")
        out = CovarianceAccumulator(self.positions)
        out._rows = {**self._rows, **other._rows}
        return out

    def matrix(self):
        """(replicates x window) values and mask in replicate_id order."""
        ids = sorted(self._rows)
        vals = np.stack([self._rows[i][0] for i in ids])
        ok = np.stack([self._rows[i][1] for i in ids])
        return ids, vals, ok

    def finalize(self, t: float, lags) -> CovarianceEstimate:
        ids, vals, ok = self.matrix()
        m = len(ids)
        if m < 2:
            raise ValueError("need at least 2 replicates")
        dx = self.positions[1] - self.positions[0]
        nwin = vals.shape[1]
        work = np.where(ok, vals, 0.0)
        counts = ok.sum(axis=0)
        if np.any(counts == 0):
            raise ValueError("window contains cells with no valid replicate")
        mu = work.sum(axis=0) / counts
        dev = np.where(ok, vals - mu, 0.0)

        span = self.positions[-1] - self.positions[0]
        lags = np.asarray(lags, dtype=float)
        cov = np.empty(lags.size)
        se = np.empty(lags.size)
        neff = np.empty(lags.size)
        bessel = m / (m - 1)
        for i, lag in enumerate(lags):
            lc = round(lag / dx)
            if abs(lag / dx - lc) > 1e-6:
                raise ValueError(f"lag {lag} is not a multiple of dx={dx}")
            if lc >= nwin:
                raise ValueError(f"lag {lag} exceeds the window span")
            a = dev[:, lc:] if lc else dev
            b = dev[:, : nwin - lc] if lc else dev
            pair_ok = ok[:, lc:] & ok[:, : nwin - lc] if lc else ok
            n_tr = pair_ok.sum(axis=1)
            if np.any(n_tr == 0):
                raise ValueError("a replicate has no valid translate at some lag")
            per_rep = (a * b * pair_ok).sum(axis=1) / n_tr
            cov[i], se[i] = (v * bessel for v in mean_se(per_rep))
            neff[i] = m * max(1.0, (span - lag) / _DECORRELATION_LENGTH)
        return CovarianceEstimate(t=t, lags=lags, cov=cov, se=se, n_effective=neff)


def spatial_averages(rows, positions, dx: float, N: float) -> np.ndarray:
    """(N log N)^(-1/2) int_0^N r dx of each row r, trapezoid rule over the
    cells of `positions` (the rows' cell positions, starting at 0) with
    x <= N."""
    m = positions <= N + 1e-9
    return (np.array([np.trapezoid(row[m], dx=dx) for row in rows])
            / math.sqrt(N * math.log(N)))


def ks_normality(samples, significance: float = 0.001) -> TestReport:
    """Kolmogorov-Smirnov test of standardized samples against N(0,1).

    Standardization uses the sample mean/SD.  Fewer than KS_MIN_SAMPLES raises
    (underpowered); constant input reports a degenerate rejection with
    statistic 0.5.  The statistic and p-value are the bits of
    scipy.stats.kstest(z, "norm") (two-sided, method "auto", which is
    always exact): the statistic as its _compute_d takes it, the p-value
    from _kstwo_sf.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < KS_MIN_SAMPLES:
        raise ValueError(f"ks_normality needs at least {KS_MIN_SAMPLES} samples")
    sd = x.std(ddof=1)
    if sd == 0.0:
        return TestReport(name="ks_normality", statistic=0.5, p_value=0.0,
                          sample_size=int(x.size), significance=significance)
    n = int(x.size)
    cdfvals = ndtr(np.sort((x - x.mean()) / sd))
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    return TestReport(name="ks_normality", statistic=float(d),
                      p_value=_kstwo_sf(n, d), sample_size=n,
                      significance=significance)


def fdd_covariance(samples_t1, samples_t2):
    """Sample covariance of paired spatial-average samples, jackknife SE.

    Pairs must come from the same replicate.  Returns (cov, se).  For
    identical inputs this equals the sample variance exactly.
    """
    a = np.asarray(samples_t1, dtype=float)
    b = np.asarray(samples_t2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired sample arrays must have equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    cov = float(np.cov(a, b, ddof=1)[0, 1])
    if n < 3:
        return cov, float("nan")
    # leave-one-out covariances
    ma = (a.sum() - a) / (n - 1)
    mb = (b.sum() - b) / (n - 1)
    loo = ((a * b).sum() - a * b - (n - 1) * ma * mb) / (n - 2)
    se = math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())
    return cov, se


# The null law of the two-sided one-sample KS statistic D_n (_kstwo_sf and
# its helpers below).  The long double scaling constants are scipy's: NumPy
# promotes the float64 values they scale to long double, as in scipy, and
# float64 stand-ins would change bits.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _kstwo_sf(n, d):
    """P(D_n >= d) for the two-sided KS statistic of n samples: the bits of
    scipy.stats.kstwo.sf(d, n), as a float.

    A line-for-line port of the sf path of scipy/stats/_ksstats.py (scipy
    1.17.1; BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. 2003,
    SciPy Developers).  kstwo.sf gives NaN at NaN, and elsewhere
    _kolmogn(n, d, cdf=False), whose own gates agree with kstwo's support.
    _kolmogn picks among exact corner formulas, Durbin's matrix in
    Marsaglia, Tsang & Wang's form (*J. Stat. Softw.* 8(18), 2003),
    Pomeranz's recursion, Pelz & Good's series and 2 x
    scipy.special.smirnov by Simard & L'Ecuyer's rule (*J. Stat. Softw.*
    39(11), 2011).  The same operations on the same NumPy types; this path
    calls the CDF helpers with cdf=True only, so their cdf flag and the
    branches it never reaches are left out.  The float cast is kstwo.sf's
    store into a float64 array.  Importing scipy.stats for this one number
    cost a clt run about 0.27 s and 18.5 MB.
    """
    if np.isnan(d):
        return math.nan
    return float(_kolmogn_sf(n, d))


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling, with n log n removed up front
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_DMTW(n, d):
    """P(D_n <= d) by Durbin's matrix (MTW), for 0.5 < n d and d < 1: the
    k-th diagonal entry of (n!/n^n) H^n, d = (k - h)/n, scaled by 2^128 as
    it grows."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and last row) of H, w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return np.clip(p, 0.0, 1.0)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """P(D_n <= x) by Pomeranz's recursion (*Comm. ACM* 17(12), 1974): n!
    times the last entry of 2n + 1 convolutions with (almost) Poisson
    weights, two rows kept, scaled by 2^128 as they shrink."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)    # most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first index to use from conv
            conv_len = j2 - j1 + 1  # number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _kolmogn_PelzGood(n, x):
    """Pelz & Good's approximation (*J. R. Stat. Soc. B* 38(2), 1976) to
    P(D_n <= x), 0 < x < 1: the Li-Chien/Korolyuk series K0 + K1/sqrt(n) +
    K2/n + K3/n^1.5 in z = x sqrt(n), each K_i rewritten by the Jacobi theta
    functional equation for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner's scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the other sum, over all integers k:
    # K_2: (pi^2 k^2) q^(k^2), K_3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    Ksum = sum(K0to3)
    return Ksum


def _kolmogn_sf(n, x):
    """_kolmogn(n, x, cdf=False): Simard & L'Ecuyer's choice of method."""
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return np.clip(1.0 - prob, 0.0, 1.0)
    if t >= n - 1:  # Ruben-Gambino
        prob = 2 * (1.0 - x)**n
        return np.clip(prob, 0.0, 1.0)
    if x >= 0.5:  # exact: 2 * smirnov
        prob = 2 * smirnov(n, x)
        return np.clip(prob, 0.0, 1.0)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            prob = _kolmogn_DMTW(n, x)
            return np.clip(1.0 - prob, 0.0, 1.0)
        if nxsquared <= 4:
            prob = _kolmogn_Pomeranz(n, x)
            return np.clip(1.0 - prob, 0.0, 1.0)
        # Miller's approximation, 2 * smirnov
        prob = 2 * smirnov(n, x)
        return np.clip(prob, 0.0, 1.0)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        prob = 2 * smirnov(n, x)
        return np.clip(prob, 0.0, 1.0)
    # the SF as 1 - CDF (the CDF's nxsquared >= 18 branch is unreachable here)
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return np.clip(1.0 - cdfprob, 0.0, 1.0)
