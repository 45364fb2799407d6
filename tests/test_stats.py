import math

import numpy as np
import pytest
from scipy import stats as sps

from shelab.sim import GridSpec
from shelab.stats import (CovarianceAccumulator, _kstwo_sf, fdd_covariance,
                          ks_normality, spatial_averages)


def _accumulate(rows, window, t=1.0, lags=(0.0, 0.5, 1.0, 2.0)):
    acc = CovarianceAccumulator(window)
    for i, row in enumerate(rows):
        acc.add(i, row)
    return acc.finalize(t, np.array(lags))


def test_iid_ensemble_covariance():
    rng = np.random.default_rng(0)
    window = np.arange(-5, 5.01, 0.5)
    rows = rng.standard_normal((4000, window.size))
    est = _accumulate(rows, window)
    assert abs(est.cov[0] - 1.0) <= 3 * est.se[0]
    for i in range(1, est.lags.size):
        assert abs(est.cov[i]) <= 3 * est.se[i]
    assert est.cov[0] >= 0
    assert np.all(est.se[est.n_effective > 1] > 0)


def test_exponential_covariance_recovered():
    # synthetic Gaussian field with cov exp(-|x|), built by Cholesky
    rng = np.random.default_rng(1)
    window = np.arange(-4, 4.01, 0.5)
    C = np.exp(-np.abs(window[:, None] - window[None, :]))
    L = np.linalg.cholesky(C)
    rows = rng.standard_normal((6000, window.size)) @ L.T
    est = _accumulate(rows, window, lags=(0.0, 0.5, 1.0, 2.0))
    for lag, c, s in zip(est.lags, est.cov, est.se):
        assert abs(c - np.exp(-lag)) <= 3.5 * s, (lag, c, s)


def test_merge_bit_identical_on_random_splits():
    rng = np.random.default_rng(2)
    window = np.arange(0, 3.01, 0.5)
    rows = rng.standard_normal((40, window.size))
    full = CovarianceAccumulator(window)
    for i, r in enumerate(rows):
        full.add(i, r)
    ref = full.finalize(1.0, [0.0, 1.0])
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(40)
        cut = 13 + seed
        a = CovarianceAccumulator(window)
        b = CovarianceAccumulator(window)
        for i in perm[:cut]:
            a.add(int(i), rows[i])
        for i in perm[cut:]:
            b.add(int(i), rows[i])
        merged = a.merge(b).finalize(1.0, [0.0, 1.0])
        assert np.array_equal(merged.cov, ref.cov)
        assert np.array_equal(merged.se, ref.se)


def test_merge_rejects_duplicates_and_mismatched_windows():
    w = np.arange(0, 1.01, 0.5)
    a = CovarianceAccumulator(w)
    a.add(0, np.zeros(3))
    b = CovarianceAccumulator(w)
    b.add(0, np.ones(3))
    with pytest.raises(ValueError):
        a.merge(b)
    c = CovarianceAccumulator(np.arange(0, 2.01, 0.5))
    with pytest.raises(ValueError):
        a.merge(c)
    with pytest.raises(ValueError):
        a.add(0, np.zeros(3))


def test_centering_invariance():
    rng = np.random.default_rng(3)
    window = np.arange(-2, 2.01, 0.5)
    rows = rng.standard_normal((100, window.size))
    est1 = _accumulate(rows, window, lags=(0.0, 1.0))
    drift = np.sin(window) + 3.0 * window ** 2
    est2 = _accumulate(rows + drift[None, :], window, lags=(0.0, 1.0))
    assert np.allclose(est1.cov, est2.cov, rtol=0, atol=1e-12)
    assert np.allclose(est1.se, est2.se, rtol=0, atol=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(4)
    window = np.arange(-2, 2.01, 0.5)
    rows = rng.standard_normal((50, window.size))
    est1 = _accumulate(rows, window, lags=(0.0, 1.0))
    est2 = _accumulate(3.0 * rows, window, lags=(0.0, 1.0))
    assert np.allclose(est2.cov, 9.0 * est1.cov, rtol=1e-12)


def test_finalize_checks_lags_and_masks_non_finite_cells():
    window = np.arange(-2, 2.01, 0.5)
    rows = np.random.default_rng(5).standard_normal((20, window.size)) * 0.1
    acc = CovarianceAccumulator(window)
    for i, row in enumerate(rows):
        acc.add(i, row)
    est = acc.finalize(1.0, [0.0, 1.0])
    assert est.cov.shape == (2,)
    with pytest.raises(ValueError, match="not a multiple"):
        acc.finalize(1.0, [0.7])                      # off-lattice lag
    with pytest.raises(ValueError, match="exceeds"):
        acc.finalize(1.0, [window.size * 0.5])        # lag past the window
    # a non-finite cell (log Z of an underflowed Z) is masked, not averaged
    rows[0, 3] = -np.inf
    assert np.isfinite(_accumulate(rows, window, lags=(0.0, 1.0)).cov).all()


def test_spatial_average_exact_cases():
    grid = GridSpec(dx=0.5, half_width=30.0, dt=0.2)
    window = grid.window(0.0, 20.0)
    positions = grid.positions()[window]
    rows = np.zeros((2, window.size))
    rows[1] = 0.3          # constant row c: integral is exactly c N
    vals = spatial_averages(rows, positions, grid.dx, 20.0)
    assert vals[0] == 0.0
    expected = 0.3 * 20.0 / np.sqrt(20.0 * np.log(20.0))
    assert vals[1] == pytest.approx(expected, rel=1e-12)


def test_ks_normality_null_and_power():
    from shelab.noise import NoiseStream
    z = NoiseStream(31, 0).normals(0, 10_000)
    rep = ks_normality(z)
    assert rep.p_value > 1e-3 and not rep.reject
    u = np.random.default_rng(0).uniform(size=10_000)
    rep2 = ks_normality(u)
    assert rep2.p_value < 1e-6 and rep2.reject
    rep3 = ks_normality(np.full(100, 2.0))
    assert rep3.reject and rep3.statistic == 0.5 and rep3.p_value == 0.0
    with pytest.raises(ValueError):
        ks_normality(np.zeros(49))


# (n, d) points on each branch of scipy's kstwo.sf path (_kolmogn with
# cdf=False), in the order it tests them; x = n d^2
_KSTWO_BRANCHES = {
    "d <= 0": [(60, 0.0), (60, -0.25), (4161, 0.0)],
    "d >= 1": [(60, 1.0), (4161, 1.5)],
    "n d <= 0.5": [(60, 0.5 / 60), (60, 0.2 / 60), (4161, 0.5 / 4161)],
    "0.5 < n d <= 1, n <= 140": [(60, 0.7 / 60), (140, 1.0 / 140)],
    "0.5 < n d <= 1, n > 140": [(141, 0.7 / 141), (4161, 0.9 / 4161)],
    "n d >= n - 1": [(60, 59 / 60), (4161, 0.9999)],
    "d >= 0.5": [(60, 0.5), (4161, 0.75)],
    "n <= 140, x <= 0.754693: DMTW": [(50, 0.1), (60, 0.05), (140, 0.07)],
    "n <= 140, x <= 4: Pomeranz": [(50, 0.2), (77, 0.15), (140, 0.16)],
    "n <= 140, x > 4: smirnov": [(50, 0.3), (140, 0.2)],
    "n > 140, x >= 370": [(4161, 0.3), (10_000, 0.2)],
    "n > 140, x >= 2.2": [(141, 0.13), (4161, 0.05)],
    "n > 140, n d^1.5 <= 1.4: DMTW": [(150, 0.03), (200, 0.02), (4161, 0.003),
                                      (100_000, 0.0001)],
    "n > 140, PelzGood": [(200, 0.05), (4161, 0.01), (4161, 0.02)],
    "n > 100000": [(100_001, 0.0001), (200_000, 0.001), (200_000, 0.005),
                   (1_000_000, 2e-6)],
}


@pytest.mark.parametrize("branch", list(_KSTWO_BRANCHES))
def test_ks_port_gives_scipys_kstwo_sf(branch):
    for n, d in _KSTWO_BRANCHES[branch]:
        for dd in (d, np.nextafter(d, -1.0), np.nextafter(d, 2.0)):
            dd = np.float64(dd)
            assert _kstwo_sf(n, dd) == sps.kstwo.sf(dd, n), (n, float(dd))


def test_ks_port_gives_scipys_kstwo_sf_on_a_dense_grid():
    # every n that ks_normality's branches turn on, and d across (0, 1)
    for n in (50, 51, 99, 139, 140, 141, 160, 1000, 4161):
        ds = np.concatenate([np.linspace(0.0, 1.0, 41),
                             np.sqrt(np.geomspace(0.3, 400.0, 40) / n)])
        for d in ds[ds < 1.2]:
            assert _kstwo_sf(n, d) == sps.kstwo.sf(d, n), (n, float(d))
    assert math.isnan(_kstwo_sf(60, np.float64(math.nan)))


@pytest.mark.parametrize("law", ["normal", "t3", "exponential", "shifted"])
def test_ks_normality_gives_scipys_kstest(law):
    draw = {"normal": lambda g, n: g.standard_normal(n),
            "t3": lambda g, n: g.standard_t(3, n),
            "exponential": lambda g, n: g.exponential(size=n),
            "shifted": lambda g, n: g.standard_normal(n) + 3.0}
    for n in [*range(50, 161), 1000, 4161]:
        x = draw[law](np.random.default_rng(n), n)
        rep = ks_normality(x)
        ref = sps.kstest((x - x.mean()) / x.std(ddof=1), "norm")
        assert (rep.statistic, rep.p_value) == (float(ref.statistic),
                                                float(ref.pvalue)), n


def test_fdd_covariance_contracts():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(500)
    cov, se = fdd_covariance(a, a)
    assert cov == pytest.approx(a.var(ddof=1), rel=1e-12)
    b = rng.standard_normal(500)
    cov2, se2 = fdd_covariance(a, b)  # independent pairing
    assert abs(cov2) <= 3 * se2
    with pytest.raises(ValueError):
        fdd_covariance(a, b[:-1])


def test_fdd_covariance_detects_dependence():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(2000)
    b = 0.6 * a + 0.8 * rng.standard_normal(2000)
    cov, se = fdd_covariance(a, b)
    assert abs(cov - 0.6) <= 4 * se
