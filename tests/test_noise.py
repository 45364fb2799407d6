import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtri

from shelab.green import shift_identity_samples
from shelab.noise import NoiseStream, ZeroNoise, _FastNormals, _uniforms_to_normals
from shelab.sim import default_grid, noise_factors


def test_normals_deterministic():
    s = NoiseStream(master_seed=1, replicate_id=0)
    a = s.normals(5, 100)
    b = NoiseStream(master_seed=1, replicate_id=0).normals(5, 100)
    assert a.shape == (100,)
    assert np.array_equal(a, b)
    assert np.array_equal(a, s.normals(5, 100))


def test_replicates_differ():
    a = NoiseStream(1, 0).normals(3, 64)
    b = NoiseStream(1, 1).normals(3, 64)
    assert not np.array_equal(a, b)


def test_steps_and_seeds_differ():
    s = NoiseStream(7, 2)
    assert not np.array_equal(s.normals(0, 32), s.normals(1, 32))
    assert not np.array_equal(s.normals(0, 32), NoiseStream(8, 2).normals(0, 32))


def test_prefix_stability():
    # the draw at a given cell does not depend on how many cells are drawn
    s = NoiseStream(11, 4)
    long = s.normals(9, 500)
    short = s.normals(9, 60)
    assert np.array_equal(long[:60], short)


def test_pooled_moments():
    pool = np.concatenate([NoiseStream(123, r).normals(0, 10_000) for r in range(100)])
    assert pool.size == 1_000_000
    assert abs(pool.mean()) <= 0.01
    assert 0.99 <= pool.var() <= 1.01


def test_ks_against_standard_normal():
    x = np.concatenate([NoiseStream(2024, r).normals(0, 10_000) for r in range(10)])
    res = sps.kstest(x, "norm")
    assert res.pvalue > 1e-3


def test_slice_mean_diagnostic():
    # diagnostic bound: |mean of a slice of length n| <= 6/sqrt(n) holds for
    # every slice in a large sample (violation probability ~ 2e-9 each)
    n = 10_000
    for rep in range(200):
        m = abs(NoiseStream(55, rep).normals(0, n).mean())
        assert m <= 6.0 / np.sqrt(n)


def test_no_infinite_values_possible():
    # extremes of the 53-bit lattice stay strictly inside (0, 1)
    x = NoiseStream(99, 0).normals(0, 200_000)
    assert np.isfinite(x).all()
    assert np.abs(x).max() < 9.0


def test_fast_normals_bit_identical_to_public_path():
    fast = _FastNormals(master_seed=77)
    for rep, step in [(0, 0), (3, 17), (12, 999), (5, 2)]:
        ref = NoiseStream(77, rep).normals(step, 257)
        out = np.empty((1, 257), dtype=np.uint64)
        fast.fill_u53(out[0], rep, step)
        got = fast.normals_block([rep], step, 257)[0]
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("seed, rep, step, n", [
    (0, 0, 0, 1), (77, 3, 17, 257), (2 ** 64 - 1, 12, 999, 1000), (5, 2 ** 40, 2, 3),
])
def test_normals_match_the_documented_map(seed, rep, step, n):
    # the variate map written out independently: 53-bit integers from numpy's
    # Generator on the same Philox key and counter, then the inverse CDF
    bg = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64),
                          counter=np.array([0, 0, 0, step], dtype=np.uint64))
    k = np.random.Generator(bg).integers(0, 2 ** 53, size=n, dtype=np.uint64)
    ref = ndtri((k + 0.5) * 2.0 ** -53)
    assert np.array_equal(NoiseStream(seed, rep).normals(step, n), ref)
    assert np.array_equal(_FastNormals(seed).normals_block([rep], step, n)[0], ref)


def test_out_paths_match_the_allocating_forms():
    u = np.random.Philox(key=np.array([3, 1], dtype=np.uint64)).random_raw((4, 301)) >> 11
    u[0, :2] = [0, 2 ** 53 - 1]              # both ends of the 53-bit lattice
    buf = np.empty(u.shape)
    got = _uniforms_to_normals(u, out=buf)
    assert got is buf
    assert np.array_equal(buf, ndtri((u.astype(np.float64) + 0.5) * 2.0 ** -53))
    g = default_grid(0.05, 7.0)
    ref = np.exp(np.sqrt(g.dt / g.dx) * buf - g.dt / (2 * g.dx))
    assert np.array_equal(noise_factors(g, buf.copy()), ref)
    assert noise_factors(g, buf, out=buf) is buf
    assert np.array_equal(buf, ref)


def test_shift_draw_matches_the_public_stream(monkeypatch):
    # shift_identity_samples draws one replicate's (kt, n) block at once;
    # each of its rows is that replicate's NoiseStream row of the same step
    import shelab.noise
    g = default_grid(0.05, 7.0)
    kt = g.step_of(0.05)
    refs = [np.stack([NoiseStream(21, rep).normals(k, g.cell_count) for k in range(kt)])
            for rep in (4, 9)]
    seen = []
    real = shelab.noise._uniforms_to_normals

    def spy(u53, out=None):
        seen.append(real(u53, out=out).copy())
        return out

    monkeypatch.setattr(shelab.noise, "_uniforms_to_normals", spy)
    shift_identity_samples(g, [4, 9], 0.05, 0.025, 0.0, 0.0, master_seed=21)
    assert len(seen) == 2
    for block, ref in zip(seen, refs):
        assert block.shape == (kt, g.cell_count)
        assert np.array_equal(block, ref)


def test_zero_noise_hook():
    z = ZeroNoise()
    assert np.all(z.normals(4, 16) == 0.0)


def test_validation():
    with pytest.raises(ValueError):
        NoiseStream(-1, 0)
    with pytest.raises(ValueError):
        NoiseStream(1, -2)
    with pytest.raises(ValueError):
        NoiseStream(1, 0).normals(0, 0)
    with pytest.raises(ValueError):
        NoiseStream(1, 0).normals(-1, 5)
