"""Oracles shared by the test modules.

`roll_per_message_success` enumerates the errors of every message by
rolling the decoder table, so it shares nothing with the residual index
that `per_message_success` and the sweep engine both read.
"""

import numpy as np


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
