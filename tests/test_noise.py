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


def test_top_word_gives_a_finite_normal():
    # k + 1/2 rounds to 2^53 at k = 2^53 - 1; that word maps to 1 - 2^-53,
    # and the words below it keep the uniform (k + 1/2) 2^-53
    words = np.array([0, 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1], dtype=np.uint64)
    got = _uniforms_to_normals(words)
    assert np.isfinite(got).all()
    assert got[4] == ndtri(1.0 - 2.0 ** -53)
    assert got[4] == pytest.approx(8.2095361516)
    assert np.array_equal(got[:4], ndtri((words[:4] + 0.5) * 2.0 ** -53))
    assert got[:4] == pytest.approx([-8.2923610758, -8.1607078411, 0.0, 8.1258906647])


def test_fast_normals_bit_identical_to_public_path():
    fast = _FastNormals(master_seed=77)
    for rep, step in [(0, 0), (3, 17), (12, 999), (5, 2)]:
        ref = NoiseStream(77, rep).normals(step, 257)
        out = np.empty(257, dtype=np.uint64)
        fast.fill_u53(out, rep, step)
        assert np.array_equal(_uniforms_to_normals(out), ref)


@pytest.mark.parametrize("seed, rep, step, n", [
    (0, 0, 0, 1), (77, 3, 17, 257), (2 ** 64 - 1, 12, 999, 1000), (5, 2 ** 40, 2, 3),
])
def test_normals_match_the_documented_map(seed, rep, step, n):
    # the variate map written out independently: 53-bit integers from numpy's
    # Generator on the same Philox key and counter, then the inverse CDF
    bg = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64),
                          counter=np.array([0, 0, 0, step], dtype=np.uint64))
    k = np.random.Generator(bg).integers(0, 2 ** 53, size=n, dtype=np.uint64)
    ref = ndtri(np.minimum(k + 0.5, 2.0 ** 53 - 1) * 2.0 ** -53)
    assert np.array_equal(NoiseStream(seed, rep).normals(step, n), ref)
    u = np.empty(n, dtype=np.uint64)
    _FastNormals(seed).fill_u53(u, rep, step)
    assert np.array_equal(_uniforms_to_normals(u), ref)


def test_out_paths_match_the_allocating_forms():
    u = np.random.Philox(key=np.array([3, 1], dtype=np.uint64)).random_raw((4, 301)) >> 11
    u[0, :2] = [0, 2 ** 53 - 1]              # both ends of the 53-bit lattice
    buf = np.empty(u.shape)
    got = _uniforms_to_normals(u, out=buf)
    assert got is buf
    uniform = np.minimum(u.astype(np.float64) + 0.5, 2.0 ** 53 - 1) * 2.0 ** -53
    assert np.array_equal(buf, ndtri(uniform))
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


@pytest.mark.parametrize("first", [0, 1, 2, 3, 4, 5, 6, 7, 249, 250])
def test_fill_from_a_cell_matches_the_full_row(first):
    # the fill from cell `first` equals the full-row fill's slice
    # [first, first + len), for every residue of first mod 4
    fast = _FastNormals(master_seed=31)
    n = 257
    full = np.empty(n, dtype=np.uint64)
    fast.fill_u53(full, 6, 40)
    for length in (1, 3, 4, 5, n - first):      # the last one ends the row
        part = np.empty(length, dtype=np.uint64)
        fast.fill_u53(part, 6, 40, first)
        assert np.array_equal(part, full[first:first + length]), length


def test_fill_sequence_matches_fresh_philox():
    # one instance carries its state lists from call to call; in a scrambled
    # order of replicates and steps (both past 2^32), start cells of every
    # residue mod 4 and lengths, each fill equals a fresh Philox's slice
    seed = 2 ** 63 + 5
    fast = _FastNormals(seed)
    calls = [(2 ** 33 + 1, 7, 5, 1), (0, 0, 0, 281), (3, 2 ** 32, 2, 4),
             (2 ** 33 + 1, 7, 0, 281), (3, 5, 11, 9), (0, 2 ** 40 + 3, 4, 1),
             (3, 5, 1, 280), (2 ** 33 + 1, 2 ** 32, 7, 3), (0, 0, 3, 16)]
    for rep, step, first, length in calls:
        out = np.empty(length, dtype=np.uint64)
        fast.fill_u53(out, rep, step, first)
        bg = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64),
                              counter=np.array([0, 0, 0, step], dtype=np.uint64))
        ref = bg.random_raw(first + length)[first:] >> 11
        assert np.array_equal(out, ref), (rep, step, first, length)


def test_fast_normals_state_follows_numpy_schema():
    # the list-held state dict has numpy's Philox state keys, and assigning
    # it sets the generator's counter and key
    fast = _FastNormals(9)
    ref = np.random.Philox(0).state
    assert fast._state.keys() == ref.keys()
    assert fast._state["state"].keys() == ref["state"].keys()
    fast._counter[:] = [1, 0, 0, 2 ** 40]
    fast._key[1] = 2 ** 35
    fast._bg.state = fast._state
    got = fast._bg.state["state"]
    assert got["counter"].tolist() == [1, 0, 0, 2 ** 40]
    assert got["key"].tolist() == [9, 2 ** 35]


@pytest.mark.parametrize("lo, hi", [(0, 301), (0, 1), (5, 6), (6, 138),
                                    (117, 301), (300, 301), (42, 42)])
def test_normals_block_on_a_range_matches_the_public_rows(lo, hi):
    # the batch engine's normals block: a word table that starts at 2^52,
    # filled on [lo, hi) only, gives the NoiseStream rows there and exactly
    # +0.0 elsewhere
    n, ids = 301, [0, 3, 11]
    fast = _FastNormals(master_seed=19)
    words = np.full((3, n), 1 << 52, dtype=np.uint64)
    for row, rep in zip(words, ids):
        fast.fill_u53(row[lo:hi], rep, 8, lo)
    got = _uniforms_to_normals(words)
    for row, rep in zip(got, ids):
        assert np.array_equal(row[lo:hi], NoiseStream(19, rep).normals(8, n)[lo:hi])
    outside = np.concatenate([got[:, :lo], got[:, hi:]], axis=1)
    assert (outside == 0.0).all() and not np.signbit(outside).any()
