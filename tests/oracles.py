"""Oracles shared by the test modules.

`roll_per_message_success` enumerates the errors of every message by
rolling the decoder table, so it shares nothing with the residual index
that `per_message_success` and the sweep engine both read.
`interpolation_nearest` finds the codeword within half the distance of a
Reed-Solomon word by Lagrange interpolation, with no F_q elimination.
`table_decode` reads one word's message from a decoder's table.
`constraint_contains` counts one word's set hits, the per-word oracle for
`ConstraintSet.membership_mask`. `binary_threshold` is the center
probability at rho = 1/2 in its own closed form.
"""

import itertools
import math

import numpy as np

from cosetlab.galois import index_of_vector, vector_of_index


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
