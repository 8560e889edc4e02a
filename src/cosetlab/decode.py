"""Classical decoders and exact channel success probabilities.

A decoder object is its table: the message index D(y) of every received
word y. Decoders are total functions of the received word alone; failure
maps to the all-zeros message sentinel so that downstream unitary
constructions stay permutations. `decode` and the per-message success
p_s = sum_{y : D(y) = s} P(y - D(y)G) are read off the table, the latter
through the residual index of y - D(y)G that the sweep engine shares; p_s
is the one success probability, exact and in one pass. Each decoder
states the peak bytes of its own table build, which `table` checks against
the budget before it allocates; nothing else here takes a budget. Every
word index, of one word, a batch or the whole (q,)*n grid, is
`galois.index_of_vector`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .codes import LinearCode, rs_code, solve_batch
from .config import require_budget
from .galois import index_of_vector, vector_of_index
from .noise import ErrorProfile

__all__ = [
    "berlekamp_welch",
    "berlekamp_welch_batch",
    "brute_force_nearest",
    "BerlekampWelchDecoder",
    "BruteForceNearestDecoder",
    "TableDecoder",
    "residual_index",
    "per_message_success",
]


# ---- Berlekamp-Welch (polynomial coefficients low-degree-first) -----------


@lru_cache(maxsize=None)
def _bw_constants(q: int, d: int) -> tuple[np.ndarray, ...]:
    """Read-only per-(q, d) constants of full-support Berlekamp-Welch: the
    evaluation generator; powers[i, j] = i^j for j <= t0; the parity check
    of the dimension-(d + t0) code; the map from a polynomial Q of degree
    < d + t0, given by its values, to its coefficients t0..t0+d-1 (over all
    of F_q, Q_j = -sum_x Q(x) x^(q-1-j)); and the gather index that lays
    out (E_0, ..., E_{t0-1}, 1, 0) for a monic degree-t0 E as the d x d
    matrix taking P to the top d coefficients of P*E."""
    t0 = (q - d) // 2
    wide = rs_code(q, d + t0)
    top = np.array([[-pow(x, q - 1 - j, q) % q for j in range(t0, t0 + d)] for x in range(q)])
    shift = t0 + np.subtract.outer(np.arange(d), np.arange(d))
    tables = (rs_code(q, d).G, wide.G[:t0 + 1].T, wide.H, top,
              np.where((shift >= 0) & (shift <= t0), shift, t0 + 1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _require_full_support_rs(code: LinearCode) -> None:
    """Reject codes whose generator is not the ascending-power evaluation map."""
    if code.n != code.q:
        raise ValueError("decoder requires a full-support evaluation code (n == q)")
    if not np.array_equal(code.G, _bw_constants(code.q, code.k)[0]):
        raise ValueError("decoder requires the standard evaluation generator")


def berlekamp_welch_batch(code: LinearCode,
                          ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Welch on every row of a (B, n) stack of received words.

    Returns (messages, hits). Where hits[b] is True, messages[b] is the
    coefficient vector of the unique P with deg P < d whose evaluations
    lie within t0 = floor((n-d)/2) of ys[b]; where it is False no such
    codeword exists and messages[b] is meaningless. Two batched kernel
    solves: the key equation E(x_i) y_i = Q(x_i) with E monic of degree
    t0 and deg Q < d + t0, which says that E(x) y lies in the
    dimension-(d + t0) code, so its parity check leaves t0 unknowns; then
    P from the unit upper-triangular system that the top d coefficients
    of Q = P*E form. Whenever a codeword lies within t0, every such E has
    Q = P*E for its P. Every hit is re-encoded and its distance checked,
    so a spurious algebraic solution can never be returned.
    """
    _require_full_support_rs(code)
    q, n, d = code.q, code.n, code.k
    ys = np.asarray(ys, dtype=np.int64) % q
    if ys.ndim != 2 or ys.shape[1] != n:
        raise ValueError(f"received words must be rows of length {n}")
    t0 = (n - d) // 2
    gen, powers, check, top, shift = _bw_constants(q, d)
    # check @ (E(x_i) y_i)_i = 0 in the unknowns E_0..E_{t0-1}
    syndromes = (check * ys[:, None, :]) @ powers
    e_low, ok = solve_batch(code.field, syndromes[:, :, :t0], -syndromes[:, :, t0])
    e_monic = np.concatenate([e_low, np.tile([1, 0], (len(ys), 1))], axis=1)
    q_top = (e_monic[:, :t0 + 1] @ powers.T % q * ys) @ top
    messages, _ = solve_batch(code.field, e_monic[:, shift], q_top)
    far = ((messages @ gen - ys) % q != 0).sum(axis=1) > t0
    return messages, ok & ~far


def berlekamp_welch(code: LinearCode, y: np.ndarray) -> np.ndarray | None:
    """Unique decoding of a full-support evaluation code of dimension d.

    Returns the coefficient vector (low-degree-first) of the unique
    polynomial P with deg P < d whose evaluations lie within Hamming
    distance t0 = floor((n-d)/2) of y, or None when no such codeword
    exists: `berlekamp_welch_batch` on a batch of one.
    """
    y = np.asarray(y)
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    messages, hits = berlekamp_welch_batch(code, y[None])
    return messages[0] if hits[0] else None


def brute_force_nearest(code: LinearCode, y: np.ndarray) -> np.ndarray:
    """Message of the nearest codeword; distance ties break to the smallest
    message index (lexicographically smallest message)."""
    y = np.asarray(y, dtype=np.int64) % code.q
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    dists = np.count_nonzero((code.codewords() - y) % code.q, axis=1)
    return code.messages()[int(np.argmin(dists))]


# ---- total decoder objects (the simulator's interface) ---------------------


class _BaseDecoder:
    kind = "base"

    def __init__(self, code: LinearCode):
        self.code = code
        self._table: np.ndarray | None = None

    def decode(self, y: np.ndarray) -> np.ndarray:
        """The message the table assigns to the received word y."""
        code = self.code
        y = np.asarray(y, dtype=np.int64) % code.q
        if y.shape != (code.n,):
            raise ValueError(f"received word must have length {code.n}")
        return vector_of_index(int(self.table()[index_of_vector(y, code.q)]), code.q, code.k)

    def table(self, budget: int | None = None) -> np.ndarray:
        """Message index for every received word index, shape (q^n,). The
        first call builds it, after checking the build's stated peak
        (`_build_bytes`) in 16-byte amplitudes against the budget."""
        if self._table is None:
            require_budget(-(-self._build_bytes() // 16), budget)
            self._table = self._build_table()
        return self._table


class BerlekampWelchDecoder(_BaseDecoder):
    """Total unique decoder: algebraic decode, all-zeros sentinel on failure."""

    kind = "berlekamp_welch"

    def __init__(self, code: LinearCode):
        _require_full_support_rs(code)
        super().__init__(code)
        self.radius = (code.n - code.k) // 2

    def _build_bytes(self) -> int:
        """Peak bytes of the ball scatter: the int64 table; per message, its
        index, its codeword row and the message row and product that form
        it; five int64 entries per (codeword, error) pair of the largest
        error block while its indices are formed; 64 KiB of overhead."""
        q, n, k = self.code.q, self.code.n, self.code.k
        return 8 * q**n + 8 * q**k * (1 + 2 * n + k + 5 * (q - 1) ** self.radius) + 2**16

    def _build_table(self) -> np.ndarray:
        """Ball scatter: table[cG + e] = s for wt(e) <= t0, sentinel 0 elsewhere.

        The code is MDS with 2 t0 < d_min, so the radius-t0 balls around
        codewords are disjoint and BW decodes exactly the words inside them.
        One error block, the (q-1)^w errors of one weight w and support, is
        scattered at a time.
        """
        code = self.code
        q, n = code.q, code.n
        columns = code.codewords().T[:, :, None]
        messages = np.arange(q**code.k)[:, None]
        table = np.zeros(q**n, dtype=np.int64)
        for weight in range(self.radius + 1):
            block = (q - 1) ** weight
            values = np.indices((q - 1,) * weight).reshape(weight, block) + 1
            for support in itertools.combinations(range(n), weight):
                errors = np.zeros((n, 1, block), dtype=np.int64)
                errors[list(support), 0] = values
                table[index_of_vector((c + e for c, e in zip(columns, errors)), q)] = messages
        return table


def _mismatch_counts(q: int, columns: np.ndarray) -> np.ndarray:
    """counts[y, s] = #{i : y_i != columns[s, i]} for every y in F_q^m, in
    index order, as uint8: one broadcast add per coordinate, least
    significant first."""
    counts = np.zeros((1, columns.shape[0]), dtype=np.uint8)
    residues = np.arange(q)[:, None]
    for i in range(columns.shape[1] - 1, -1, -1):
        counts = ((residues != columns[:, i])[:, None, :] + counts[None, :, :]).reshape(
            -1, columns.shape[0])
    return counts


def _prefix_rows(mismatch: list[np.ndarray], base: np.ndarray):
    """Yield base + sum_i mismatch[i][y_i] for every y in F_q^m, in index
    order, one row at a time from one partial sum per coordinate."""
    if len(mismatch) == 0:
        yield base
        return
    for row in mismatch[0]:
        yield from _prefix_rows(mismatch[1:], base + row)


def _nearest_low(q: int, n: int, k: int) -> int:
    """Low coordinates tabulated at once: q^low x q^k uint8 counts within 4 MiB."""
    return max((m for m in range(n + 1) if q ** (m + k) <= 1 << 22), default=0)


class BruteForceNearestDecoder(_BaseDecoder):
    """Nearest-codeword decoder by exhaustive enumeration (always succeeds)."""

    kind = "brute_force_nearest"

    def _build_bytes(self) -> int:
        """Peak bytes of the table build: the table as q^n 16-byte
        amplitudes, two q^low x q^k uint8 count blocks, (25 + q)n bytes per
        message (codeword, partial sums, mismatch flags), the argmin row."""
        q, n, k = self.code.q, self.code.n, self.code.k
        low = _nearest_low(q, n, k)
        return 16 * q**n + 2 * q ** (low + k) + (25 + q) * n * q**k + 8 * q**low

    def _build_table(self) -> np.ndarray:
        """Distances split at a coordinate: the low coordinates' mismatch
        counts are tabulated once, and each high prefix adds its own row,
        so the build holds at most `_build_bytes`. argmin breaks ties to
        the smallest message index, as `brute_force_nearest` does."""
        code = self.code
        q, n, k = code.q, code.n, code.k
        codewords = code.codewords()
        low = _nearest_low(q, n, k)
        low_counts = _mismatch_counts(q, codewords[:, n - low:])
        mismatch = [_mismatch_counts(q, codewords[:, [i]]) for i in range(n - low)]
        rows = _prefix_rows(mismatch, np.zeros(q**k, dtype=np.uint8))
        block = np.empty_like(low_counts)
        out = np.empty((q ** (n - low), q**low), dtype=np.int64)
        for prefix, row in enumerate(rows):
            out[prefix] = np.add(low_counts, row, out=block).argmin(axis=1)
        return out.reshape(-1)


class TableDecoder(_BaseDecoder):
    """Decoder defined by an explicit message-index table (for constructed
    counterexamples and artificial message-dependent behavior)."""

    kind = "table"

    def __init__(self, code: LinearCode, table: np.ndarray):
        super().__init__(code)
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (code.q**code.n,):
            raise ValueError(f"table must have length {code.q**code.n}")
        if table.min() < 0 or table.max() >= code.q**code.k:
            raise ValueError("table entries must be message indices")
        self._table = table


# ---- channel success probabilities -----------------------------------------


def residual_index(code: LinearCode, table: np.ndarray) -> np.ndarray:
    """Index of y - D(y)G for every received word index y, given the
    decoder table D: coordinate i is y_i - c_{D(y),i} on the (q,)*n grid."""
    q, n = code.q, code.n
    decoded = table.reshape((q,) * n)
    return index_of_vector((y_i - column[decoded] for y_i, column in zip(
        np.ogrid[(slice(q),) * n], code.codewords().T)), q).reshape(-1)


def per_message_success(decoder: _BaseDecoder, profile: ErrorProfile) -> np.ndarray:
    """p_s = P[decoder(sG + e) = s] for every message s, exactly.

    The word y = sG + e decodes to s exactly when e = y - D(y)G, so
    p_s = sum_{y : D(y) = s} P(y - D(y)G): one pass over the table. This is
    the classical shadow of the decoder map's diagonal amplitudes: the
    simulator uses it to decide whether symmetrization is needed. p_0 is
    the success probability of the all-zeros message, and equals every
    p_s when the decoder commutes with codeword shifts.
    """
    code = decoder.code
    if profile.n != code.n or profile.q != code.q:
        raise ValueError("profile and code must share q and n")
    table = decoder.table()
    return _message_success(code, profile, table, residual_index(code, table))


def _message_success(code: LinearCode, profile: ErrorProfile, table: np.ndarray,
                     residual: np.ndarray) -> np.ndarray:
    """p_s from the decoder table and its residual index: the channel
    probability at y - D(y)G, summed by D(y)."""
    # P[e] = |f(e)|^2
    probs = reduce(np.multiply.outer, profile.error_probabilities(), np.ones(())).reshape(-1)
    return np.bincount(table, weights=probs[residual], minlength=code.q**code.k)
