import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.codes import (LinearCode, coset_members, coset_sample, dual,
                            null_space, random_code, rref, rref_batch, rs_code,
                            solve_particular, syndrome)
from cosetlab.galois import PrimeField, all_vectors, radix_weights


def _rank_by_span(q, m):
    """Oracle rank: count distinct vectors in the row span, exhaustively."""
    span = (all_vectors(q, m.shape[0]) @ m) % q
    count = len(np.unique(span @ radix_weights(q, m.shape[1])))
    r = 0
    while q**r < count:
        r += 1
    assert q**r == count
    return r


# ---- Gaussian elimination ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 5]))
def test_rref_properties(seed, q):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 5, size=2)
    m = rng.integers(0, q, size=(rows, cols))
    field = PrimeField(q)
    red, pivots = rref(field, m)
    assert len(pivots) == _rank_by_span(q, m)
    for r, c in enumerate(pivots):
        col = np.zeros(red.shape[0], dtype=np.int64)
        col[r] = 1
        assert np.array_equal(red[:, c], col)
    # row spaces agree: every reduced row is in the span of m and vice versa
    assert _rank_by_span(q, np.vstack([m, red])) == len(pivots)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 5, 7]))
def test_rref_batch_equals_batch_of_one(seed, q):
    rng = np.random.default_rng(seed)
    batch, rows, cols = (int(v) for v in rng.integers(1, 7, size=3))
    stack = rng.integers(0, q, size=(batch, rows, cols))
    # repeated and zero rows give stacks whose matrices differ in rank
    stack[rng.random(batch) < 0.3, 0] = 0
    if rows > 1:
        stack[rng.random(batch) < 0.3, -1] = stack[0, 0]
    field = PrimeField(q)
    red, pivots = rref_batch(field, stack)
    for b in range(batch):
        one, one_pivots = rref(field, stack[b])
        assert np.array_equal(red[b], one)
        assert [int(c) for c in pivots[b] if c >= 0] == one_pivots
        assert np.all(pivots[b, len(one_pivots):] == -1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 5]))
def test_null_space_oracle(seed, q):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    m = rng.integers(0, q, size=(rows, cols))
    basis = null_space(PrimeField(q), m)
    # every basis vector is a kernel member
    if len(basis):
        assert np.all((m @ basis.T) % q == 0)
    # exhaustive kernel size matches q^(cols - rank)
    kernel = [v for v in all_vectors(q, cols) if np.all((m @ v) % q == 0)]
    assert len(kernel) == q ** (cols - _rank_by_span(q, m))
    assert len(basis) == cols - _rank_by_span(q, m)


def test_solve_particular():
    field = PrimeField(5)
    m = np.array([[1, 2, 3], [0, 1, 4]])
    b = np.array([4, 2])
    x = solve_particular(field, m, b)
    assert np.array_equal((m @ x) % 5, b)
    # inconsistent system
    m2 = np.array([[1, 1], [2, 2]])
    assert solve_particular(field, m2, np.array([1, 1])) is None


# ---- code construction ----------------------------------------------------------


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearCode(5, np.array([[1, 2, 3], [2, 4, 6]]))  # rank 1, not 2
    with pytest.raises(ValueError):
        LinearCode(5, np.eye(3, dtype=np.int64))  # k = n
    code = LinearCode(5, np.array([[1, 1, 1]]))
    assert np.all((code.G @ code.H.T) % 5 == 0)


def test_codewords_and_contains():
    code = rs_code(3, 2)
    words = code.codewords()
    assert words.shape == (9, 3)
    have = {tuple(w) for w in words}
    for v in all_vectors(3, 3):
        assert code.contains(v) == (tuple(v) in have)


def test_encode_matches_message_order():
    code = rs_code(5, 2)
    msgs = code.messages()
    words = code.codewords()
    for i in (0, 3, 17, 24):
        assert np.array_equal(code.encode(msgs[i]), words[i])


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (3, 2), (5, 2), (7, 3)])
def test_rs_structure(q, k):
    code = rs_code(q, k)
    assert code.n == q and code.k == k
    # codewords are exactly the degree-<k polynomial evaluation vectors
    points = np.arange(q)
    for msg in code.messages():
        evals = np.zeros(q, dtype=np.int64)
        for j, c in enumerate(msg):
            evals = (evals + c * pow(points, j)) % q
        assert np.array_equal(code.encode(msg), evals)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rs_duality(q):
    # the dual of the degree-<k evaluation code is the degree-<(q-k) one
    for k in range(1, q):
        left = dual(rs_code(q, k))
        right = rs_code(q, q - k)
        assert {tuple(w) for w in left.codewords()} == \
               {tuple(w) for w in right.codewords()}


def test_rs_minimum_distance():
    # [q, k] RS has minimum distance q - k + 1 (check smallest cases fully)
    for q, k in [(5, 2), (7, 3)]:
        code = rs_code(q, k)
        weights = np.sum(code.codewords() != 0, axis=1)
        assert weights[1:].min() == q - k + 1


def test_random_code_reproducible():
    a = random_code(3, 5, 2, seed=11)
    b = random_code(3, 5, 2, seed=11)
    c = random_code(3, 5, 2, seed=12)
    assert np.array_equal(a.G, b.G)
    assert not np.array_equal(a.G, c.G)
    assert np.all((a.G @ a.H.T) % 3 == 0)


def test_dual_involution():
    code = random_code(3, 4, 2, seed=5)
    again = dual(dual(code))
    assert {tuple(w) for w in again.codewords()} == \
           {tuple(w) for w in code.codewords()}


# ---- syndromes and cosets --------------------------------------------------------


def test_syndrome_sides():
    code = rs_code(5, 2)
    y = np.array([1, 4, 2, 0, 3])
    assert np.array_equal(syndrome(code, y, "primal"), (y @ code.H.T) % 5)
    assert np.array_equal(syndrome(code, y, "dual"), (y @ code.G.T) % 5)
    with pytest.raises(ValueError):
        syndrome(code, y, "sideways")
    for w in code.codewords():
        assert np.all(syndrome(code, w, "primal") == 0)


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_coset_membership(side):
    code = rs_code(5, 2)
    rng = np.random.default_rng(8)
    dim = code.n - code.k if side == "primal" else code.k
    u = rng.integers(0, 5, size=dim)
    members = coset_members(code, u, side)
    expected = 5 ** (code.k if side == "primal" else code.n - code.k)
    assert len(members) == expected
    assert len({tuple(m) for m in members}) == expected
    assert np.all(syndrome(code, members, side) % 5 == np.asarray(u) % 5)
    for trial in range(10):
        sample = coset_sample(code, u, side, np.random.default_rng(trial))
        assert tuple(sample) in {tuple(m) for m in members}


def test_coset_sample_covers_coset():
    # small enough to see every member with a fat sample
    code = LinearCode(2, np.array([[1, 1, 0], [0, 1, 1]]))
    u = np.array([1])
    members = {tuple(m) for m in coset_members(code, u, "primal")}
    rng = np.random.default_rng(0)
    seen = {tuple(coset_sample(code, u, "primal", rng)) for _ in range(200)}
    assert seen == members
