import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.codes import random_code, rs_code
from cosetlab.decode import (BerlekampWelchDecoder, BruteForceNearestDecoder,
                             TableDecoder, berlekamp_welch,
                             berlekamp_welch_batch, brute_force_list,
                             brute_force_nearest, gs_list_radius,
                             per_message_success, success_probability)
from cosetlab.galois import all_vectors, radix_weights
from cosetlab.noise import build_profile, interval_profile


def _distances(code, y):
    return np.sum(code.codewords() != np.asarray(y)[None, :], axis=1)


# ---- Berlekamp-Welch ------------------------------------------------------------


@pytest.mark.parametrize("q,k", [(5, 1), (5, 2), (7, 3)])
def test_bw_decodes_clean_codewords(q, k):
    code = rs_code(q, k)
    for msg in code.messages():
        got = berlekamp_welch(code, code.encode(msg))
        assert got is not None and np.array_equal(got, msg)


def test_bw_corrects_up_to_half_distance():
    code = rs_code(7, 3)
    radius = (code.n - code.k) // 2
    rng = np.random.default_rng(4)
    for _ in range(100):
        msg = rng.integers(0, 7, size=3)
        word = code.encode(msg)
        weight = int(rng.integers(0, radius + 1))
        pos = rng.choice(7, size=weight, replace=False)
        noisy = word.copy()
        for i in pos:
            noisy[i] = (noisy[i] + rng.integers(1, 7)) % 7
        got = berlekamp_welch(code, noisy)
        assert got is not None and np.array_equal(got, msg)


def test_bw_returns_none_when_no_codeword_close():
    code = rs_code(5, 2)
    radius = (code.n - code.k) // 2
    found_far = 0
    for y in all_vectors(5, 5):
        if _distances(code, y).min() > radius:
            assert berlekamp_welch(code, y) is None
            found_far += 1
    assert found_far > 0  # the deep-hole case is actually exercised


def test_bw_matches_nearest_within_radius_exhaustive():
    # oracle: brute-force nearest codeword; agreement inside half distance
    code = rs_code(5, 2)
    radius = (code.n - code.k) // 2
    for y in all_vectors(5, 5):
        dists = _distances(code, y)
        got = berlekamp_welch(code, y)
        if dists.min() <= radius:
            nearest = brute_force_nearest(code, y)
            assert got is not None and np.array_equal(got, nearest)
        else:
            assert got is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 4)]))
def test_bw_batch_equals_scalar(seed, qk):
    # half the words sit near a codeword, half are uniform: many of those lie
    # outside the radius, where both forms must report no codeword
    q, k = qk
    code = rs_code(q, k)
    rng = np.random.default_rng(seed)
    words = rng.integers(0, q, size=(40, q))
    near = (rng.integers(0, q, size=(20, k)) @ code.G) % q
    flips = rng.integers(0, q, size=near.shape) * (rng.random(near.shape) < 0.3)
    words[:20] = (near + flips) % q
    messages, hits = berlekamp_welch_batch(code, words)
    dists = (words[:, None, :] != code.codewords()[None, :, :]).sum(axis=2)
    assert np.array_equal(hits, dists.min(axis=1) <= (q - k) // 2)
    for y, message, hit in zip(words, messages, hits):
        want = berlekamp_welch(code, y)
        assert hit == (want is not None)
        if hit:
            assert np.array_equal(message, want)


@pytest.mark.parametrize("q", [3, 5])
def test_bw_table_equals_nearest_within_radius_oracle(q):
    for k in range(1, q):
        code = rs_code(q, k)
        radius = (code.n - code.k) // 2
        words = all_vectors(q, code.n)
        dists = (words[:, None, :] != code.codewords()[None, :, :]).sum(axis=2)
        want = np.where(dists.min(axis=1) <= radius, dists.argmin(axis=1), 0)
        assert np.array_equal(BerlekampWelchDecoder(code).table(), want), k


def test_nearest_table_equals_scalar_search_on_tie_heavy_code():
    # a [4,2]_3 code has minimum distance at most 3, so ties are common
    code = random_code(3, 4, 2, seed=0)
    table = BruteForceNearestDecoder(code).table()
    radix = radix_weights(code.q, code.k)
    dists = (all_vectors(3, 4)[:, None, :] != code.codewords()[None, :, :]).sum(axis=2)
    assert np.sum((dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1) > 20
    for idx, y in enumerate(all_vectors(3, 4)):
        assert table[idx] == int(brute_force_nearest(code, y) @ radix)


def test_bw_requires_full_support_rs():
    with pytest.raises(ValueError):
        BerlekampWelchDecoder(random_code(5, 5, 2, seed=1))


# ---- brute-force oracles ----------------------------------------------------------


def test_brute_force_list_complete_and_sorted():
    code = rs_code(5, 2)
    y = np.array([1, 1, 2, 0, 3])
    dists = _distances(code, y)
    radix = 5 ** np.arange(code.k - 1, -1, -1)
    for radius in range(6):
        got = brute_force_list(code, y, radius)
        want = {i for i in range(len(dists)) if dists[i] <= radius}
        got_ids = [int(m @ radix) for m in got]
        assert set(got_ids) == want
        got_d = [int(dists[i]) for i in got_ids]
        assert got_d == sorted(got_d)  # ordered by distance


def test_brute_force_nearest_ties_deterministic():
    code = rs_code(5, 2)
    y = np.array([0, 1, 2, 3, 4])  # equidistant from several codewords
    first = brute_force_nearest(code, y)
    dists = _distances(code, y)
    tied = np.flatnonzero(dists == dists.min())
    assert np.array_equal(first, code.messages()[tied[0]])


def test_gs_list_radius_values():
    assert gs_list_radius(7, 3) == 2
    assert gs_list_radius(5, 2) == 1
    assert gs_list_radius(5, 1) == 2
    # never below the half-distance radius on these shapes
    for n, k in [(5, 1), (5, 2), (7, 3), (7, 1)]:
        assert gs_list_radius(n, k) >= (n - k) // 2


# ---- decoder objects ----------------------------------------------------------------


def test_table_decoder_roundtrip():
    code = rs_code(3, 1)
    base = BruteForceNearestDecoder(code)
    table = base.table()
    via = TableDecoder(code, table)
    assert np.array_equal(via.table(), table)
    y = np.array([1, 1, 2])
    assert np.array_equal(via.decode(y), base.decode(y))
    with pytest.raises(ValueError):
        TableDecoder(code, table[:-1])  # wrong length
    with pytest.raises(ValueError):
        TableDecoder(code, table + 9)  # out-of-range message indices


def test_decoder_tables_agree_with_decode():
    for decoder in (BerlekampWelchDecoder(rs_code(5, 2)),
                    BruteForceNearestDecoder(random_code(3, 4, 2, seed=2))):
        table = decoder.table()
        vecs = all_vectors(decoder.code.q, decoder.code.n)
        radix = radix_weights(decoder.code.q, decoder.code.k)
        for idx in (0, 7, len(vecs) // 2, len(vecs) - 1):
            msg = decoder.decode(vecs[idx])
            assert table[idx] == int(msg @ radix)


def test_bw_sentinel_is_zero_message():
    code = rs_code(5, 2)
    decoder = BerlekampWelchDecoder(code)
    y = np.array([1, 0, 0, 3, 2])
    if berlekamp_welch(code, y) is None:
        assert np.array_equal(decoder.decode(y), np.zeros(2, dtype=np.int64))


# ---- success probabilities -----------------------------------------------------------


def _success_oracle(decoder, profile, s_idx):
    """Direct channel sum for one message, no table tricks."""
    code = decoder.code
    word = code.codewords()[s_idx]
    probs = profile.error_probabilities()
    total = 0.0
    for e in all_vectors(code.q, code.n):
        p = 1.0
        for i in range(code.n):
            p *= probs[i, e[i]]
        msg = decoder.decode((word + e) % code.q)
        radix = code.q ** np.arange(code.k - 1, -1, -1)
        if int(msg @ radix) == s_idx:
            total += p
    return total


def test_per_message_success_oracle():
    code = rs_code(3, 2)
    profile = interval_profile(3, 3, 0, 0.7)
    decoder = BerlekampWelchDecoder(code)
    ps = per_message_success(decoder, profile)
    for s_idx in (0, 1, 4, 8):
        assert ps[s_idx] == pytest.approx(
            _success_oracle(decoder, profile, s_idx), abs=1e-12)


def test_success_probability_exact_is_message_zero():
    code = rs_code(5, 2)
    profile = interval_profile(5, 5, 1, 0.8)
    decoder = BerlekampWelchDecoder(code)
    report = success_probability(decoder, profile, mode="exact")
    ps = per_message_success(decoder, profile)
    assert report.p_dec == pytest.approx(ps[0], abs=1e-12)
    assert report.mode == "exact"


def test_success_probability_monte_carlo_confidence():
    code = rs_code(3, 1)
    profile = build_profile(3, 3, [(0,)] * 3, 0.6)
    decoder = BruteForceNearestDecoder(code)
    exact = success_probability(decoder, profile, mode="exact").p_dec
    mc = success_probability(decoder, profile, mode="monte_carlo",
                             samples=40_000, seed=5)
    assert abs(mc.p_dec - exact) <= mc.ci_halfwidth
    again = success_probability(decoder, profile, mode="monte_carlo",
                                samples=40_000, seed=5)
    assert mc.p_dec == again.p_dec  # seeded determinism


def test_success_probability_mode_validation():
    code = rs_code(3, 1)
    profile = interval_profile(3, 3, 0, 0.7)
    with pytest.raises(ValueError):
        success_probability(BruteForceNearestDecoder(code), profile,
                            mode="guess")


def test_per_message_uniform_for_perfect_code():
    # binary [3,1] repetition is perfect: nearest decoding is shift-covariant
    from cosetlab.codes import LinearCode

    code = LinearCode(2, np.array([[1, 1, 1]]))
    profile = build_profile(2, 3, [(0,)] * 3, 0.8)
    ps = per_message_success(BruteForceNearestDecoder(code), profile)
    assert ps.max() - ps.min() < 1e-15
