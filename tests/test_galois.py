import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import codes
from cosetlab.galois import (PrimeField, all_vectors, fourier_transform,
                             index_of_vector, inverse_fourier_transform,
                             vector_of_index)
from oracles import dual_code, place_values

PRIMES = [2, 3, 5, 7, 11]


# ---- field arithmetic against plain integer oracles --------------------------


@pytest.mark.parametrize("q", PRIMES)
def test_inverse_table(q):
    field = PrimeField(q)
    for a in range(1, q):
        assert a * field.inv(a) % q == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_non_prime_rejected():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_modulus_at_or_above_2_31_rejected_before_primality_test():
    # the largest accepted prime, then two primes trial division would not finish
    assert PrimeField(2**31 - 1).q == 2**31 - 1
    for huge in (2**61 - 1, 10**18 + 3):
        with pytest.raises(ValueError, match="prime below 2\\^31"):
            PrimeField(huge)


def test_signed_representatives():
    field = PrimeField(7)
    assert sorted(field.centered_interval(2)) == [0, 1, 2, 5, 6]
    assert sorted(field.centered_interval(3)) == list(range(7))  # whole field
    with pytest.raises(ValueError):
        field.centered_interval(4)  # 2z+1 = 9 > q


# ---- indexing -----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=3**4 - 1))
def test_index_round_trip(idx):
    vec = vector_of_index(idx, 3, 4)
    assert index_of_vector(vec, 3) == idx


def test_index_order_coordinate_zero_most_significant():
    assert list(vector_of_index(1, 3, 3)) == [0, 0, 1]
    assert list(vector_of_index(9, 3, 3)) == [1, 0, 0]
    vecs = all_vectors(3, 2)
    assert vecs.shape == (9, 2)
    assert [index_of_vector(v, 3) for v in vecs] == list(range(9))
    assert list(all_vectors(3, 3) @ place_values(3, 3)) == list(range(27))
    assert list(index_of_vector(all_vectors(3, 3).T, 3)) == list(range(27))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_index_of_grid_coordinates_matches_place_values(q, n, k, seed):
    # coordinate j of word y is <G_j, y>, as in the dual syndrome, or that
    # plus row D(y) of an offset table, as in the residual y - D(y)G
    rng = np.random.default_rng(seed)
    gen = rng.integers(0, q, size=(k, n))
    offsets = rng.integers(-q, q, size=(q**k, k))  # negative: the helper reduces mod q
    table = rng.integers(0, q**k, size=q**n)
    words = all_vectors(q, n)
    axes = np.ogrid[(slice(q),) * n]
    decoded = table.reshape((q,) * n)
    dual = [sum(g * y for g, y in zip(row, axes)) for row in gen]
    got = index_of_vector(dual, q).reshape(-1)
    assert np.array_equal(got, (words @ gen.T) % q @ place_values(q, k))
    got = index_of_vector([c + column[decoded] for c, column in zip(dual, offsets.T)], q)
    want = (words @ gen.T + offsets[table]) % q @ place_values(q, k)
    assert np.array_equal(got.reshape(-1), want)


# ---- characters ---------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_character_orthogonality(q):
    roots = PrimeField(q).roots_of_unity
    # sum_x chi_y(x) = q if y = 0 else 0, with chi_y(x) = roots[x y mod q]
    for y in range(q):
        total = roots[(np.arange(q) * y) % q].sum()
        want = q if y == 0 else 0
        assert abs(total - want) < 1e-9


def test_character_bilinear():
    roots = PrimeField(5).roots_of_unity
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = (rng.integers(0, 5, size=3) for _ in range(3))
        lhs = roots[(y @ ((x + z) % 5)) % 5]
        rhs = roots[(y @ x) % 5] * roots[(y @ z) % 5]
        assert abs(lhs - rhs) < 1e-12


def test_character_code_identity():
    # chi_y(xG) = chi_{yG^T}(x) for every pair, q=5 RS k=2
    code = codes.rs_code(5, 2)
    roots = code.field.roots_of_unity
    for _ in range(50):
        rng = np.random.default_rng(_)
        x = rng.integers(0, 5, size=2)
        y = rng.integers(0, 5, size=5)
        lhs = roots[(y @ ((x @ code.G) % 5)) % 5]
        rhs = roots[(((y @ code.G.T) % 5) @ x) % 5]
        assert abs(lhs - rhs) < 1e-12


def test_code_character_sum_detects_dual():
    code = codes.rs_code(5, 2)
    roots = code.field.roots_of_unity
    # sum over codewords of chi_y(c) is |C| on the dual, 0 off it
    dual_words = {tuple(w) for w in dual_code(code).codewords()}
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.integers(0, 5, size=5)
        total = roots[(code.codewords() @ y) % 5].sum()
        want = len(code.messages()) if tuple(y) in dual_words else 0.0
        assert abs(total - want) < 1e-9


# ---- Fourier transforms --------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_fourier_matrix_unitary(q):
    f = PrimeField(q).fourier_matrix
    assert np.max(np.abs(f @ f.conj().T - np.eye(q))) < 1e-12


def test_transform_matches_explicit_matrix():
    # oracle: full q^n x q^n character matrix applied directly
    field = PrimeField(3)
    n = 3
    vecs = all_vectors(3, n)
    omega = field.roots_of_unity
    full = omega[(vecs @ vecs.T) % 3] / 3 ** (n / 2)
    rng = np.random.default_rng(1)
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    assert np.max(np.abs(fourier_transform(field, v) - full @ v)) < 1e-12
    assert np.max(np.abs(inverse_fourier_transform(field, v)
                         - full.conj() @ v)) < 1e-12


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parseval_and_round_trip(seed):
    field = PrimeField(5)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=25) + 1j * rng.normal(size=25)
    w = fourier_transform(field, v)
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-9
    back = inverse_fourier_transform(field, w)
    assert np.max(np.abs(back - v)) < 1e-10


def test_transform_shift_phase_law():
    # g(y) = f(y + 1) transforms to conj(omega^x) fhat(x)
    field = PrimeField(5)
    rng = np.random.default_rng(2)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    shifted = np.roll(v, -1)
    lhs = fourier_transform(field, shifted)
    rhs = fourier_transform(field, v) * field.roots_of_unity.conj()
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=3),
       st.sampled_from(["none", "vector", "square"]), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_transform_equals_character_matrix_along_axis_0(q, n, trailing, m, seed):
    # oracle: the explicit q^n x q^n character matrix on the leading axis,
    # with trailing axes (), (m,) or (q^k, q^k), k = 1 or 2 as m is odd or even
    field = PrimeField(q)
    shape = {"none": (), "vector": (m,), "square": (q ** (2 - m % 2),) * 2}[trailing]
    vecs = np.array([vector_of_index(i, q, n) for i in range(q**n)]).reshape(q**n, n)
    full = field.roots_of_unity[(vecs @ vecs.T) % q] / q ** (n / 2)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(q**n,) + shape) + 1j * rng.normal(size=(q**n,) + shape)
    before = f.copy()
    for transform, matrix in ((fourier_transform, full),
                              (inverse_fourier_transform, full.conj())):
        want = (matrix @ f.reshape(q**n, -1)).reshape(f.shape)
        for arg in (f, np.asfortranarray(f)):  # any memory layout
            got = transform(field, arg)
            assert got.shape == f.shape
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.array_equal(arg, before)  # the argument is never written to


def test_transform_rejects_bad_length():
    field = PrimeField(3)
    with pytest.raises(ValueError):
        fourier_transform(field, np.ones(10))
