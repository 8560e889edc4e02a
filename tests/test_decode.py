import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.codes import random_code, rs_code
from cosetlab.config import BudgetError
from cosetlab.decode import (BerlekampWelchDecoder, BruteForceNearestDecoder,
                             TableDecoder, _nearest_low, berlekamp_welch,
                             brute_force_nearest, per_message_success)
from cosetlab.galois import all_vectors, vector_of_index
from cosetlab.noise import build_profile, interval_profile, random_sets_profile
from oracles import (berlekamp_welch_batch, interpolation_nearest, place_values,
                     roll_per_message_success, table_decode)


def _distances(code, y):
    return np.sum(code.codewords() != np.asarray(y)[None, :], axis=1)


def _scalar_decode(decoder, y):
    """The decoder's message for y from the scalar decoders, not the table."""
    if isinstance(decoder, BerlekampWelchDecoder):
        message = berlekamp_welch(decoder.code, y)
        return np.zeros(decoder.code.k, dtype=np.int64) if message is None else message
    return brute_force_nearest(decoder.code, y)


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
       st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (7, 2), (7, 3),
                        (11, 4), (13, 6)]))
def test_bw_batch_equals_scalar(seed, qk):
    # half the words sit near a codeword, half are uniform: many of those lie
    # outside the radius, where both forms must report no codeword. The
    # batch (one elimination) is the reference for the scalar form (extended
    # Euclid), and both are checked against the nearest codeword found by
    # interpolation. At (2, 1), t0 = 0 and Euclid starts from x^2 - x
    q, k = qk
    code = rs_code(q, k)
    rng = np.random.default_rng(seed)
    words = rng.integers(0, q, size=(40, q))
    near = (rng.integers(0, q, size=(20, k)) @ code.G) % q
    flips = rng.integers(0, q, size=near.shape) * (rng.random(near.shape) < 0.3)
    words[:20] = (near + flips) % q
    messages, hits = berlekamp_welch_batch(code, words)
    nearest, found = interpolation_nearest(code, words)
    assert np.array_equal(hits, found)
    assert np.array_equal(messages[hits], nearest[hits])
    for y, message, hit in zip(words, messages, hits):
        want = berlekamp_welch(code, y)
        assert hit == (want is not None)
        if hit:
            assert np.array_equal(message, want)


@pytest.mark.parametrize("q,k", [(5, 1), (5, 2), (7, 3), (7, 4)])
def test_interpolation_oracle_equals_brute_force_nearest(q, k):
    # the oracle above, checked against the nearest codeword by enumeration
    # on every word of a sample, half of them near a codeword
    code = rs_code(q, k)
    rng = np.random.default_rng(q + k)
    words = rng.integers(0, q, size=(60, q))
    words[:30] = (rng.integers(0, q, size=(30, k)) @ code.G
                  + rng.integers(0, q, size=(30, q)) * (rng.random((30, q)) < 0.3)) % q
    nearest, found = interpolation_nearest(code, words)
    for y, message, hit in zip(words, nearest, found):
        assert hit == (_distances(code, y).min() <= (q - k) // 2)
        if hit:
            assert np.array_equal(message, brute_force_nearest(code, y))


@pytest.mark.parametrize("q", [3, 5])
def test_bw_table_equals_nearest_within_radius_oracle(q):
    for k in range(1, q):
        code = rs_code(q, k)
        radius = (code.n - code.k) // 2
        words = all_vectors(q, code.n)
        dists = (words[:, None, :] != code.codewords()[None, :, :]).sum(axis=2)
        want = np.where(dists.min(axis=1) <= radius, dists.argmin(axis=1), 0)
        assert np.array_equal(BerlekampWelchDecoder(code).table(), want), k


def _assert_nearest_table_on_every_word(code, min_ties):
    # many words have several nearest codewords, so the smallest-message rule
    # is checked on each of them against the scalar search
    table = BruteForceNearestDecoder(code).table()
    radix = place_values(code.q, code.k)
    words = all_vectors(code.q, code.n)
    dists = (words[:, None, :] != code.codewords()[None, :, :]).sum(axis=2)
    assert np.sum((dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1) > min_ties
    for idx, y in enumerate(words):
        assert table[idx] == int(brute_force_nearest(code, y) @ radix)


def test_nearest_table_equals_scalar_search_on_tie_heavy_code():
    # a [4,2]_3 code has minimum distance at most 3, so ties are common
    _assert_nearest_table_on_every_word(random_code(3, 4, 2, seed=0), 20)


def test_nearest_table_with_uint16_keys_equals_scalar_search_on_every_word():
    # [6,4]_3: (n + 1) q^k = 567 keys need uint16, and with minimum distance
    # at most 3 most words tie
    code = random_code(3, 6, 4, seed=0)
    assert _nearest_low(3, 6, 4) == (6, np.uint16)
    _assert_nearest_table_on_every_word(code, 300)


@pytest.mark.parametrize("code, argmin", [
    (rs_code(7, 3), False), (random_code(3, 12, 6, seed=1), False),
    (random_code(3, 9, 7, seed=0), True)],
    ids=["rs(7,3)", "random[12,6]_3", "random[9,7]_3"])
def test_nearest_table_splits_beyond_the_count_block(code, argmin):
    # q^(n+k) entries exceed one 4 MiB block, so high prefixes add their own
    # rows (3, 5 and 3 high coordinates here); sampled words against the
    # scalar search, which breaks ties the same way. [9,7]_3 has
    # q^k = 2187 > q^low = 729, so its rows go to argmin, not to keys
    assert code.q ** (code.n + code.k) > 1 << 22
    assert (_nearest_low(code.q, code.n, code.k)[1] is None) == argmin
    table = BruteForceNearestDecoder(code).table()
    radix = place_values(code.q, code.k)
    rng = np.random.default_rng(3)
    for idx in rng.integers(0, code.q**code.n, size=400):
        y = vector_of_index(int(idx), code.q, code.n)
        assert table[idx] == int(brute_force_nearest(code, y) @ radix)


@pytest.mark.parametrize("decoder_class, q, k", [
    (BerlekampWelchDecoder, 5, 3), (BerlekampWelchDecoder, 7, 3),
    (BerlekampWelchDecoder, 7, 5), (BruteForceNearestDecoder, 5, 3),
    (BruteForceNearestDecoder, 5, 4), (BruteForceNearestDecoder, 7, 1),
    (BruteForceNearestDecoder, 7, 4), (BruteForceNearestDecoder, 5, 1),
    (BruteForceNearestDecoder, 5, 2), (BruteForceNearestDecoder, 7, 2),
    (BruteForceNearestDecoder, 7, 3)])
def test_table_build_within_its_stated_peak(decoder_class, q, k):
    # each decoder states its build's peak; one amplitude less is refused
    # before anything is allocated, and the build traces at most the
    # statement; a nearest build, at least half of it. Nearest rs(5,1..4)
    # and rs(7,1..3) reduce key blocks, rs(7,4) argmin rows, and the table is
    # one int64 array
    decoder = decoder_class(rs_code(q, k))
    need = -(-decoder._build_bytes() // 16)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            decoder.table(budget=need - 1)
        refused = tracemalloc.get_traced_memory()[1]
        assert decoder._table is None
        tracemalloc.reset_peak()
        decoder.table(budget=need)
        built = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused < 2**14 and built <= decoder._build_bytes()
    if decoder_class is BruteForceNearestDecoder:
        assert decoder._build_bytes() / 2 <= built
    assert decoder._table.shape == (q**q,)


def test_bw_requires_full_support_rs():
    code = random_code(5, 5, 2, seed=1)
    with pytest.raises(ValueError):
        BerlekampWelchDecoder(code)
    # the scalar call checks the word's length first, then the code
    with pytest.raises(ValueError, match="received word must have length 5"):
        berlekamp_welch(code, np.zeros(4, dtype=np.int64))
    for _ in range(2):  # a failed check is not remembered
        with pytest.raises(ValueError, match="standard evaluation generator"):
            berlekamp_welch(code, np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError, match="full-support"):
        berlekamp_welch(random_code(5, 6, 2, seed=1), np.zeros(6, dtype=np.int64))


# ---- brute-force oracles ----------------------------------------------------------


def test_brute_force_nearest_ties_deterministic():
    code = rs_code(5, 2)
    y = np.array([0, 1, 2, 3, 4])  # equidistant from several codewords
    first = brute_force_nearest(code, y)
    dists = _distances(code, y)
    tied = np.flatnonzero(dists == dists.min())
    assert np.array_equal(first, code.messages()[tied[0]])


# ---- decoder objects ----------------------------------------------------------------


def test_table_decoder_roundtrip():
    code = rs_code(3, 1)
    base = BruteForceNearestDecoder(code)
    table = base.table()
    via = TableDecoder(code, table)
    assert np.array_equal(via.table(), table)
    y = np.array([1, 1, 2])
    assert np.array_equal(table_decode(via, y), brute_force_nearest(code, y))
    with pytest.raises(ValueError):
        TableDecoder(code, table[:-1])  # wrong length
    with pytest.raises(ValueError):
        TableDecoder(code, table + 9)  # out-of-range message indices


def test_decoder_tables_agree_with_decode():
    for decoder in (BerlekampWelchDecoder(rs_code(5, 2)),
                    BruteForceNearestDecoder(random_code(3, 4, 2, seed=2))):
        table = decoder.table()
        vecs = all_vectors(decoder.code.q, decoder.code.n)
        radix = place_values(decoder.code.q, decoder.code.k)
        for idx in (0, 7, len(vecs) // 2, len(vecs) - 1):
            want = _scalar_decode(decoder, vecs[idx])
            assert table[idx] == int(want @ radix)
            assert np.array_equal(table_decode(decoder, vecs[idx]), want)


def test_bw_sentinel_is_zero_message():
    code = rs_code(5, 2)
    decoder = BerlekampWelchDecoder(code)
    far = [y for y in all_vectors(5, 5)[::7] if berlekamp_welch(code, y) is None]
    assert far  # words outside every decoding ball exist
    for y in far:
        assert np.array_equal(table_decode(decoder, y), np.zeros(2, dtype=np.int64))


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
        msg = _scalar_decode(decoder, (word + e) % code.q)
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


@pytest.mark.parametrize("q", [2, 3, 5])
def test_per_message_success_equals_roll_oracle_on_every_rs(q):
    for k in range(1, q):
        code = rs_code(q, k)
        profiles = [interval_profile(q, q, (q - 1) // 4, 0.7),
                    random_sets_profile(q, q, max(1, q // 2), 0.8, seed=q + k)]
        for decoder in (BerlekampWelchDecoder(code), BruteForceNearestDecoder(code)):
            for profile in profiles:
                want = roll_per_message_success(decoder, profile)
                got = per_message_success(decoder, profile)
                assert np.max(np.abs(got - want)) <= 1e-12, (q, k, type(decoder).__name__)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3, 1), (2, 5, 2), (3, 3, 1), (3, 4, 2), (5, 3, 1), (5, 4, 2)]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_per_message_success_equals_roll_oracle_on_random_tables(shape, seed):
    # arbitrary tables: no shift covariance, many messages never decoded
    q, n, k = shape
    rng = np.random.default_rng(seed)
    code = random_code(q, n, k, seed=int(rng.integers(2**31)))
    decoder = TableDecoder(code, rng.integers(0, q**k, size=q**n))
    profile = random_sets_profile(q, n, 1, float(rng.uniform(0.3, 1.0)),
                                  seed=int(rng.integers(2**31)))
    want = roll_per_message_success(decoder, profile)
    assert np.max(np.abs(per_message_success(decoder, profile) - want)) <= 1e-12


def test_per_message_uniform_for_perfect_code():
    # binary [3,1] repetition is perfect: nearest decoding is shift-covariant
    from cosetlab.codes import LinearCode

    code = LinearCode(2, np.array([[1, 1, 1]]))
    profile = build_profile(2, 3, [(0,)] * 3, 0.8)
    ps = per_message_success(BruteForceNearestDecoder(code), profile)
    assert ps.max() - ps.min() < 1e-15
