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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    statistic 0.5.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < KS_MIN_SAMPLES:
        raise ValueError(f"ks_normality needs at least {KS_MIN_SAMPLES} samples")
    sd = x.std(ddof=1)
    if sd == 0.0:
        return TestReport(name="ks_normality", statistic=0.5, p_value=0.0,
                          sample_size=int(x.size), significance=significance)
    # only the KS verdicts need scipy.stats; its import costs 0.29 s, 19 MB (2-vCPU VM)
    from scipy import stats as sps
    res = sps.kstest((x - x.mean()) / sd, "norm")
    return TestReport(name="ks_normality", statistic=float(res.statistic),
                      p_value=float(res.pvalue), sample_size=int(x.size),
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
