import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import codes
from cosetlab.codes import (LinearCode, coset_members, null_space, random_code,
                            rref, rref_batch, rs_code, solve_batch, solve_particular,
                            syndrome)
from cosetlab.galois import PrimeField, all_vectors
from oracles import dual_code, place_values


def _rank_by_span(q, m):
    """Oracle rank: count distinct vectors in the row span, exhaustively."""
    span = (all_vectors(q, m.shape[0]) @ m) % q
    count = len(np.unique(span @ place_values(q, m.shape[1])))
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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 5, 7]))
def test_solve_batch_equals_back_substitution_from_rref(seed, q):
    # consistent systems (b = m x), inconsistent ones (random b) and
    # rank-deficient ones (a zero or repeated row) in one stack
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(3, 8))
    rows, cols = (int(v) for v in rng.integers(1, 6, size=2))
    m = rng.integers(0, q, size=(batch, rows, cols))
    m[rng.random(batch) < 0.3, 0] = 0
    if rows > 1:
        m[rng.random(batch) < 0.3, -1] = m[0, 0]
    b = np.einsum("brc,bc->br", m, rng.integers(0, q, size=(batch, cols))) % q
    unrelated = rng.random(batch) < 0.5
    b[unrelated] = rng.integers(0, q, size=(int(unrelated.sum()), rows))
    field = PrimeField(q)
    x, ok = solve_batch(field, m, b)
    for i in range(batch):
        _, pivots = rref(field, m[i])
        augmented, augmented_pivots = rref(field, np.column_stack([m[i], b[i]]))
        assert ok[i] == (len(augmented_pivots) == len(pivots))
        if ok[i]:
            # each pivot row reads its unknown, the free unknowns are 0
            want = np.zeros(cols, dtype=np.int64)
            want[pivots] = augmented[:len(pivots), cols]
            assert np.array_equal(x[i], want)
            assert np.array_equal((m[i] @ x[i]) % q, b[i])


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
    with pytest.raises(ValueError, match="not full rank"):  # even with H given
        LinearCode(5, np.array([[1, 2, 3], [2, 4, 6]]), np.array([[1, 2, 0]]))
    with pytest.raises(ValueError):
        LinearCode(5, np.eye(3, dtype=np.int64))  # k = n
    code = LinearCode(5, np.array([[1, 1, 1]]))
    assert np.all((code.G @ code.H.T) % 5 == 0)
    for matrix in (code.G, code.H):  # read-only: a check made on a code holds
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 2


def test_derived_parity_check_is_not_eliminated_again(monkeypatch):
    # one null_space call checks G's rank and derives H, whose identity block
    # on G's free columns gives rank n - k: building rs(7, 3) eliminates G once
    shapes = []
    real = codes.rref
    monkeypatch.setattr(codes, "rref",
                        lambda field, m: shapes.append(np.shape(m)) or real(field, m))
    rs_code(7, 3)
    assert shapes == [(3, 7)]
    # a parity check the caller gives is still checked for its rank
    with pytest.raises(ValueError, match="rank"):
        LinearCode(5, np.array([[1, 1, 1]]), np.array([[1, 4, 0], [2, 3, 0]]))


def test_codewords_and_contains():
    code = rs_code(3, 2)
    words = code.codewords()
    assert words.shape == (9, 3)
    have = {tuple(w) for w in words}
    for v in all_vectors(3, 3):
        assert (not syndrome(code, v).any()) == (tuple(v) in have)


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
        left = dual_code(rs_code(q, k))
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
    again = dual_code(dual_code(code))
    assert {tuple(w) for w in again.codewords()} == \
           {tuple(w) for w in code.codewords()}


# ---- syndromes and cosets --------------------------------------------------------


def test_syndrome_sides():
    code = rs_code(5, 2)
    y = np.array([1, 4, 2, 0, 3])
    assert np.array_equal(syndrome(code, y), (y @ code.H.T) % 5)
    assert np.array_equal(syndrome(dual_code(code), y), (y @ code.G.T) % 5)
    with pytest.raises(ValueError):
        syndrome(code, y[:4])
    for w in code.codewords():
        assert np.all(syndrome(code, w) == 0)


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_coset_membership(dual):
    code = dual_code(rs_code(5, 2)) if dual else rs_code(5, 2)
    rng = np.random.default_rng(8)
    u = rng.integers(0, 5, size=code.n - code.k)
    members = coset_members(code, u)
    expected = 5 ** code.k
    assert len(members) == expected
    assert len({tuple(m) for m in members}) == expected
    assert np.all(syndrome(code, members) % 5 == np.asarray(u) % 5)
    with pytest.raises(ValueError, match="syndrome length"):
        coset_members(code, np.append(u, 0))
