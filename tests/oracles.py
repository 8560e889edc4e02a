"""Oracles shared by the test modules.

`roll_per_message_success` enumerates the errors of every message by
rolling the decoder table, so it shares nothing with the residual index
that `per_message_success` and the sweep engine both read.
`interpolation_nearest` finds the codeword within half the distance of a
Reed-Solomon word by Lagrange interpolation, with no F_q elimination.
`table_decode` reads one word's message from a decoder's table.
`constraint_contains` counts one word's set hits, the per-word oracle for
`ConstraintSet.membership_mask`. `binary_threshold` is the center
probability at rho = 1/2 in its own closed form. `berlekamp_welch_batch`
decodes a stack of words by one batched elimination, the oracle for the
scalar `berlekamp_welch`. `dual_code` swaps a code's G and H.
`direct_p_u` builds the accepted state F_u word by word, the oracle for
the sweep's residual histogram. `full_image` builds the decoder map's image
of every basis state of the whole (A, B[, T]) register grid from its
definition, with its own place values; `apply_map` runs the map on that
grid with its own transform on T. On them `diagonal_gammas` reads the
map's diagonal amplitudes, and `dense_reduction` walks the five steps, the
oracle for the reference engine, which stores only the amplitudes it
keeps. None of them reads the engine's labels or blocks.

`MOVED_FROM_PACKAGE` names what left `cosetlab` for the tests under
another name, or for one test module, so that `test_exports.py` also
catches a copy left behind in the package.
"""

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from cosetlab.codes import LinearCode, rs_code, solve_batch
from cosetlab.galois import all_vectors, fourier_transform, index_of_vector, vector_of_index

MOVED_FROM_PACKAGE = (
    "cosetlab.codes.LinearCode.dual",
    "cosetlab.qsim.DecoderMap",  # with its `apply`, which moved here first
    "cosetlab.decode._BaseDecoder.decode",
    "cosetlab.noise.ConstraintSet.contains",
    "cosetlab.noise.ConstraintSet.count",
    "cosetlab.thresholds._rhs",
)


def roll_per_message_success(decoder, profile) -> np.ndarray:
    """p_s = P[D(sG + e) = s] for every message s, O(q^(n+k)): the table,
    reshaped to (q,)*n and rolled back by c_s on every axis, holds
    D(c_s + e) at e."""
    code = decoder.code
    probs = np.abs(profile.amplitudes()) ** 2
    table = decoder.table().reshape((code.q,) * code.n)
    out = np.empty(code.q**code.k)
    for s_idx, codeword in enumerate(code.codewords()):
        decoded = np.roll(table, tuple(-codeword), axis=tuple(range(code.n)))
        out[s_idx] = probs[decoded.reshape(-1) == s_idx].sum()
    return out


def place_values(q: int, m: int) -> np.ndarray:
    """(q^(m-1), ..., q, 1): `words @ place_values(q, m)` indexes each row
    of a (..., m) array of residues, independently of `index_of_vector`."""
    return q ** np.arange(m - 1, -1, -1, dtype=np.int64)


def _lagrange_basis(q: int, points) -> np.ndarray:
    """Row j: coefficients, low-degree-first, of the Lagrange polynomial
    that is 1 at points[j] and 0 at the other points, over F_q."""
    rows = []
    for j, x_j in enumerate(points):
        poly, denominator = np.ones(1, dtype=np.int64), 1
        for x_m in points[:j] + points[j + 1:]:
            poly = np.convolve(poly, [-x_m, 1]) % q
            denominator = denominator * (x_j - x_m) % q
        rows.append(poly * pow(denominator, q - 2, q) % q)
    return np.array(rows)


def interpolation_nearest(code, words) -> tuple[np.ndarray, np.ndarray]:
    """(messages, found) for a (B, q) stack of words of the full-support
    Reed-Solomon code `rs_code(q, d)`: found[b] says that a codeword lies
    within t0 = (q - d) // 2 of words[b], and messages[b] is its message.
    Such a codeword agrees with the word on at least d of the first d + t0
    coordinates, so it interpolates the word on one d-subset of them; the
    code's distance exceeds 2 t0, so it is the nearest codeword."""
    q, d = code.q, code.k
    t0 = (q - d) // 2
    words = np.asarray(words, dtype=np.int64) % q
    messages = np.zeros((len(words), d), dtype=np.int64)
    found = np.zeros(len(words), dtype=bool)
    for subset in itertools.combinations(range(d + t0), d):
        candidate = words[:, subset] @ _lagrange_basis(q, subset) % q
        close = np.count_nonzero((candidate @ code.G - words) % q, axis=1) <= t0
        messages[close] = candidate[close]
        found |= close
    return messages, found


def table_decode(decoder, y) -> np.ndarray:
    """The message the decoder's table assigns to the received word y."""
    code = decoder.code
    y = np.asarray(y, dtype=np.int64) % code.q
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    return vector_of_index(int(decoder.table()[index_of_vector(y, code.q)]), code.q, code.k)


def constraint_contains(constraint, y) -> bool:
    """Whether the word y lies in the constraint set: #{i : y_i in S_i} is
    at least the set's min_count."""
    profile = constraint.profile
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (profile.n,):
        raise ValueError(f"vector length must be {profile.n}")
    hits = profile.set_indicator[np.arange(profile.n), y % profile.q].sum()
    return int(hits) >= constraint.min_count


def binary_threshold(tau: float) -> float:
    """Center probability at rho = 1/2 in closed form: 1/2 + sqrt(tau(1-tau))."""
    return 0.5 + math.sqrt(tau * (1.0 - tau))


@lru_cache(maxsize=None)
def _batch_bw_constants(q: int, d: int) -> tuple[np.ndarray, ...]:
    """(generator, powers, check, interpolation) of `rs_code(q, d)`:
    powers[i, j] = i^j for j <= t0, the parity check of the
    dimension-(d + t0) code, and the map from a degree-<q polynomial's
    values on all of F_q to its coefficients."""
    t0 = (q - d) // 2
    wide = rs_code(q, d + t0)
    interpolation = np.array([[(j == 0) - pow(x, q - 1 - j, q) for j in range(q)]
                              for x in range(q)]) % q
    return rs_code(q, d).G, wide.G[:t0 + 1].T, wide.H, interpolation


def berlekamp_welch_batch(code, ys) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Welch on every row of a (B, n) stack of received words of
    the full-support Reed-Solomon code `rs_code(q, d)`.

    Returns (messages, hits). Where hits[b] is True, messages[b] is the
    coefficient vector of the unique P with deg P < d whose evaluations
    lie within t0 = floor((n-d)/2) of ys[b]; where it is False no such
    codeword exists and messages[b] is meaningless. One batched kernel
    solve, of the key equation E(x_i) y_i = Q(x_i) with E monic of degree
    t0 and deg Q < d + t0, which says that E(x) y lies in the
    dimension-(d + t0) code, so its parity check leaves t0 unknowns; then
    P = Q / E by synthetic division of the top d coefficients of Q, from
    the top down: E is monic, so each step reads one coefficient of P and
    needs no inverse. The top coefficients of Q are read off its values by
    the interpolation map. Every hit is re-encoded and its distance
    checked, so a spurious algebraic solution can never be returned.
    """
    q, n, d = code.q, code.n, code.k
    gen, powers, check, interpolation = _batch_bw_constants(q, d)
    if n != q or not np.array_equal(code.G, gen):
        raise ValueError("decoder requires the full-support evaluation code")
    ys = np.asarray(ys, dtype=np.int64) % q
    if ys.ndim != 2 or ys.shape[1] != n:
        raise ValueError(f"received words must be rows of length {n}")
    t0 = (n - d) // 2
    # check @ (E(x_i) y_i)_i = 0 in the unknowns E_0..E_{t0-1}
    syndromes = (check * ys[:, None, :]) @ powers
    e_low, ok = solve_batch(code.field, syndromes[:, :, :t0], -syndromes[:, :, t0])
    locator = (e_low @ powers[:, :t0].T + powers[:, t0]) % q
    # coefficients t0..t0+d-1 of Q, divided by E in place: coefficient
    # t0 + i of Q, less what P's higher coefficients contributed, is P_i
    messages = (locator * ys) @ interpolation[:, t0:t0 + d]
    for i in range(d - 1, -1, -1):
        messages[:, i] %= q
        low = max(i - t0, 0)
        messages[:, low:i] -= messages[:, i, None] * e_low[:, t0 + low - i:]
    far = ((messages @ gen - ys) % q != 0).sum(axis=1) > t0
    return messages, ok & ~far


def dual_code(code) -> LinearCode:
    """The code with G and H roles swapped."""
    return LinearCode(code.q, code.H, code.G)


def grid_shape(code, symmetrized) -> tuple[int, ...]:
    """(A, B[, T]) register shape of the decoder map: T holds a message
    shift when symmetrized, and the plain map has none."""
    q, n, k = code.q, code.n, code.k
    return (q**n, q**k) + ((q**k,) if symmetrized else ())


def full_image(decoder, symmetrized) -> np.ndarray:
    """Flat index of the image of every basis state (a, b, t) past the
    transform on T, in (A, B[, T]) order, from the definition
    |a, b, t> -> |a + tG, b + D(a + tG) - t, t> (|a, b> -> |a, b + D(a)>
    plain): words and messages from `all_vectors`, D from the table."""
    code = decoder.code
    q, n, k = code.q, code.n, code.k
    words, messages = all_vectors(q, n), all_vectors(q, k)
    shape = (q**n, q**k, q**k if symmetrized else 1)  # plain: the one shift t = 0
    a, b, t = (v.reshape(-1) for v in np.indices(shape))
    a_new = (words[a] + messages[t] @ code.G) % q @ place_values(q, n)
    b_new = ((messages[b] + messages[decoder.table()[a_new]] - messages[t]) % q
             @ place_values(q, k))
    return np.ravel_multi_index((a_new, b_new, t), shape)


def apply_map(decoder, symmetrized, state, adjoint=False) -> np.ndarray:
    """U' (or its adjoint) on a state of shape `grid_shape`, or any reshape
    of it: the transform on T, the Kronecker product of the field's
    transform over T's k coordinates, then the permutation that scatters by
    `full_image`; the adjoint gathers by it and inverts the transform."""
    code = decoder.code
    image = full_image(decoder, symmetrized)
    fourier_t = reduce(np.kron, [code.field.fourier_matrix] * (code.k if symmetrized else 0),
                       np.ones((1, 1)))
    width = len(fourier_t)
    if adjoint:
        out = state.reshape(-1)[image].reshape(-1, width) @ fourier_t.conj()
    else:
        out = np.empty(state.size, dtype=np.complex128)
        out[image] = (state.reshape(-1, width) @ fourier_t.T).reshape(-1)
    return out.reshape(state.shape)


def _mapped_blocks(decoder, symmetrized, profile, weights):
    """(s, U' w_s |psi_s>_A |0>_B [|0>_T]) for every message s, on the
    whole grid, with psi_s(y) = f(y - sG) read off the profile's
    amplitudes."""
    code = decoder.code
    q, n, k = code.q, code.n, code.k
    words, amplitudes = all_vectors(q, n), profile.amplitudes()
    for s_idx, codeword in enumerate(all_vectors(q, k) @ code.G % q):
        block = np.zeros(grid_shape(code, symmetrized), dtype=np.complex128)
        block.reshape(q**n, q**k, -1)[:, 0, 0] = (
            weights[s_idx] * amplitudes[(words - codeword) % q @ place_values(q, n)])
        yield s_idx, apply_map(decoder, symmetrized, block).reshape(q**n, q**k, -1)


def diagonal_gammas(decoder, symmetrized, profile) -> np.ndarray:
    """gamma_{s,s} = norm of the B=s block of U'(|psi_s>|0>[|0>_T]), for
    every message s."""
    ones = np.ones(decoder.code.q**decoder.code.k)
    return np.array([float(np.linalg.norm(mapped[:, s_idx]))
                     for s_idx, mapped in _mapped_blocks(decoder, symmetrized, profile, ones)])


def dense_reduction(decoder, u, constraint, symmetrized) -> tuple[float, float, float]:
    """(p_u, post_select_prob, marginal_mass) of the five steps on the
    whole (A, B[, T]) state: each prepared block w_s |psi_s>|0>_B[|0>_T]
    is mapped in full by `apply_map`, and its B = s slice is kept in a
    zeroed state; then the adjoint map and the transform of A on every
    (B, T) entry."""
    code = decoder.code
    q, n, k = code.q, code.n, code.k
    u = np.asarray(u, dtype=np.int64) % q
    weights = np.exp(-2j * np.pi * (all_vectors(q, k) @ u % q) / q) / math.sqrt(q**k)
    accepted = np.zeros(grid_shape(code, symmetrized), dtype=np.complex128)
    for s_idx, mapped in _mapped_blocks(decoder, symmetrized, constraint.profile, weights):
        accepted.reshape(q**n, q**k, -1)[:, s_idx] = mapped[:, s_idx]
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted /= math.sqrt(post_select_prob)
    final = fourier_transform(code.field, apply_map(decoder, symmetrized, accepted, adjoint=True))
    marginal = (np.abs(final) ** 2).reshape(q**n, -1).sum(axis=1)
    on_coset = (all_vectors(q, n) @ code.G.T % q == u).all(axis=1)
    p_u = float(marginal[constraint.membership_mask() & on_coset].sum())
    return p_u, post_select_prob, float(marginal.sum())


def direct_p_u(decoder, constraint, u) -> float:
    """p_u from the accepted state itself: F_u(y) = chi_{-u}(D(y))
    f(y - D(y)G) on every received word y, normalized and transformed,
    summed on the constraint set's part of the dual coset {x : G x^T = u}.
    The residual y - D(y)G is formed word by word, not by a histogram."""
    code, profile = decoder.code, constraint.profile
    q, n, k = code.q, code.n, code.k
    u = np.asarray(u, dtype=np.int64) % q
    words = all_vectors(q, n)
    decoded = decoder.table()
    residual = (words - code.codewords()[decoded]) % q @ place_values(q, n)
    phase = np.conj(code.field.roots_of_unity[code.messages() @ u % q])
    f_u = phase[decoded] * profile.amplitudes()[residual]
    f_u /= np.linalg.norm(f_u)
    marginal = np.abs(fourier_transform(code.field, f_u)) ** 2
    on_coset = (words @ code.G.T % q == u).all(axis=1)
    return float(marginal[constraint.membership_mask() & on_coset].sum())
