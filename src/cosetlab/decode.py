"""Classical decoders and exact channel success probabilities.

A decoder object is its table: the message index D(y) of every received
word y. Decoders are total functions of the received word alone; failure
maps to the all-zeros message sentinel so that downstream unitary
constructions stay permutations. The per-message success
p_s = sum_{y : D(y) = s} P(y - D(y)G) is read off the table, through the
residual index of y - D(y)G that the sweep engine shares; p_s is the one
success probability, exact and in one pass. Each decoder
states the peak bytes of its own table build, which `table` checks against
the budget before it allocates; nothing else here takes a budget. Every
word index, of one word, a batch or the whole (q,)*n grid, is
`galois.index_of_vector`.
"""

from __future__ import annotations

import itertools
import weakref
from functools import lru_cache, reduce

import numpy as np

from .codes import LinearCode, rs_code
from .config import require_budget
from .galois import index_of_vector
from .noise import ErrorProfile

__all__ = [
    "berlekamp_welch",
    "brute_force_nearest",
    "BerlekampWelchDecoder",
    "BruteForceNearestDecoder",
    "TableDecoder",
    "residual_index",
    "per_message_success",
]


# ---- Berlekamp-Welch (polynomial coefficients low-degree-first) -----------


@lru_cache(maxsize=None)
def _bw_constants(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-(q, d) constants of full-support Berlekamp-Welch: the
    evaluation generator, and the interpolation map from the values of a
    polynomial of degree < q on all of F_q to its coefficients, coefficient
    j being [j = 0] sum_x v(x) - sum_x v(x) x^(q-1-j)."""
    interpolation = np.array([[(j == 0) - pow(x, q - 1 - j, q) for j in range(q)]
                              for x in range(q)]) % q
    tables = (rs_code(q, d).G, interpolation)
    for table in tables:
        table.flags.writeable = False
    return tables


_FULL_SUPPORT_RS: weakref.WeakSet[LinearCode] = weakref.WeakSet()


def _require_full_support_rs(code: LinearCode) -> None:
    """Reject codes whose generator is not the ascending-power evaluation map.
    A code's G is read-only, so each code object that passes is remembered,
    weakly, and not compared again."""
    if code in _FULL_SUPPORT_RS:
        return
    if code.n != code.q:
        raise ValueError("decoder requires a full-support evaluation code (n == q)")
    if not np.array_equal(code.G, _bw_constants(code.q, code.k)[0]):
        raise ValueError("decoder requires the standard evaluation generator")
    _FULL_SUPPORT_RS.add(code)


def berlekamp_welch(code: LinearCode, y: np.ndarray) -> np.ndarray | None:
    """Unique decoding of a full-support evaluation code of dimension d.

    Returns the coefficient vector (low-degree-first) of the unique
    polynomial P with deg P < d whose evaluations lie within Hamming
    distance t0 = floor((n-d)/2) of y, or None when no such codeword
    exists. Gao's form of the key equation, in Python ints: the interpolant
    R of y over all of F_q, then the extended Euclidean algorithm on
    (x^q - x, R) until the remainder r = u (x^q - x) + v R has
    deg r < (n + d)/2; P = r / v when v divides r and deg P < d. The hit is
    re-encoded and its distance checked, so a spurious solution is never
    returned. That is O(q^2) Python work per word, with no numpy call per
    step.
    """
    y = np.asarray(y)
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    _require_full_support_rs(code)
    q, n, d = code.q, code.n, code.k
    gen, interpolation = _bw_constants(q, d)
    word = y.astype(np.int64) % q
    # remainders r and cofactors v of the Euclidean algorithm on x^q - x and R
    r0, v0 = [0, q - 1] + [0] * (q - 2) + [1], []
    r1, v1 = _trimmed((word @ interpolation % q).tolist()), [1]
    while 2 * (len(r1) - 1) >= n + d:  # deg r1 >= (n + d)/2
        quotient, remainder = _poly_divmod(r0, r1, q)
        r0, r1 = r1, remainder
        v0, v1 = v1, _trimmed(_subtract_product(v0, quotient, v1, q))
    message, remainder = _poly_divmod(r1, v1, q)
    if remainder or len(message) > d:
        return None
    message = np.array(message + [0] * (d - len(message)), dtype=np.int64)
    far = np.count_nonzero((message @ gen - word) % q) > (n - d) // 2
    return None if far else message


def _trimmed(p: list[int]) -> list[int]:
    """p without its zero top coefficients, so that deg p = len(p) - 1."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder, both trimmed, of trimmed a by trimmed b != 0
    over F_q."""
    quotient, remainder = [0] * max(len(a) - len(b) + 1, 0), list(a)
    inverse = pow(b[-1], q - 2, q)
    for shift in range(len(quotient) - 1, -1, -1):
        c = quotient[shift] = remainder[shift + len(b) - 1] * inverse % q
        for i, b_i in enumerate(b, shift):
            remainder[i] = (remainder[i] - c * b_i) % q
    return quotient, _trimmed(remainder[:len(b) - 1])


def _subtract_product(a: list[int], b: list[int], c: list[int], q: int) -> list[int]:
    """a - b c over F_q, untrimmed."""
    out = a + [0] * (len(b) + len(c) - 1 - len(a))
    for i, b_i in enumerate(b):
        for j, c_j in enumerate(c, i):
            out[j] = (out[j] - b_i * c_j) % q
    return out


def brute_force_nearest(code: LinearCode, y: np.ndarray) -> np.ndarray:
    """Message of the nearest codeword; distance ties break to the smallest
    message index. Only the tests and the bench's `oracles` workload call
    it, as the decoder tables' scalar oracle."""
    y = np.asarray(y, dtype=np.int64) % code.q
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    dists = np.count_nonzero((code.codewords() - y) % code.q, axis=1)
    return code.messages()[int(np.argmin(dists))]


# ---- total decoder objects (the simulator's interface) ---------------------


class _BaseDecoder:
    def __init__(self, code: LinearCode):
        self.code = code
        self._table: np.ndarray | None = None

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


def _prefix_rows(flags: list[np.ndarray], base: np.ndarray):
    """Yield base + sum_i flags[i][y_i] for every y in F_q^m, in index
    order, one row at a time from one partial sum per coordinate."""
    if len(flags) == 0:
        yield base
        return
    for row in flags[0]:
        yield from _prefix_rows(flags[1:], base + row)


def _nearest_low(q: int, n: int, k: int) -> tuple[int, np.dtype | None]:
    """Low coordinates tabulated at once, and the dtype of their keys.

    A block of q^k x q^low keys d * q^k + s, in the smallest unsigned dtype
    that holds (n + 1) q^k - 1, within 4 MiB. Where that block would have
    q^k > q^low, keys cost more than they save: the dtype is None, and the
    block is q^low x q^k uint8 counts within 4 MiB."""
    key = np.min_scalar_type((n + 1) * q**k - 1)
    for dtype, width in ((key, key.itemsize), (None, 1)):
        low = max((m for m in range(n + 1) if width * q ** (m + k) <= 1 << 22), default=0)
        if dtype is None or k <= low:
            return low, dtype


class BruteForceNearestDecoder(_BaseDecoder):
    """Nearest-codeword decoder by exhaustive enumeration (always succeeds).
    Ties break to the smallest message index: D(y) is the least s among the
    codewords c_s nearest to y, as in `brute_force_nearest`."""

    def _build_bytes(self) -> int:
        """Peak bytes of the table build: the table as q^n 16-byte
        amplitudes, two blocks of q^(low+k) keys or counts of w bytes each,
        (24 + (q + 1)w)n bytes per message (codeword, partial sums,
        mismatch flags), the reduced row; 64 KiB of overhead."""
        q, n, k = self.code.q, self.code.n, self.code.k
        low, key = _nearest_low(q, n, k)
        w = 1 if key is None else key.itemsize
        return (16 * q**n + 2 * w * q ** (low + k) + (24 + (q + 1) * w) * n * q**k
                + 8 * q**low + 2**16)

    def _build_table(self) -> np.ndarray:
        """Distances split at a coordinate: the low coordinates' block is
        tabulated once, and each high prefix adds its own row, so the build
        holds at most `_build_bytes`. A block of keys d * q^k + s is reduced
        by one elementwise minimum per message; the least key has the least
        distance d and then the least s, so it is D(y) mod q^k. Where
        q^k > q^low, each low word's row of uint8 counts goes to argmin,
        whose first minimum is the same message."""
        code = self.code
        q, n, k = code.q, code.n, code.k
        low, key = _nearest_low(q, n, k)
        dtype, weight = (np.uint8, 1) if key is None else (key, q**k)
        flags = [(np.arange(q)[:, None] != column).astype(dtype) * weight
                 for column in code.codewords().T]
        zeros = np.zeros(q**k, dtype=dtype)
        out = np.empty((q ** (n - low), q**low), dtype=np.int64)
        rows = _prefix_rows(flags[:n - low], zeros)
        # the low block, one broadcast add per coordinate, least significant
        # first: counts[y, s] for argmin, keys[s, y] for the minimum
        if key is None:
            counts = zeros[None, :]
            for flag in reversed(flags[n - low:]):
                counts = (flag[:, None, :] + counts[None, :, :]).reshape(-1, q**k)
            block = np.empty_like(counts)
            for prefix, row in enumerate(rows):
                out[prefix] = np.add(counts, row, out=block).argmin(axis=1)
            return out.reshape(-1)
        keys = np.arange(q**k, dtype=key)[:, None]
        for flag in reversed(flags[n - low:]):
            keys = (np.ascontiguousarray(flag.T)[:, :, None] + keys[:, None, :]).reshape(q**k, -1)
        block = np.empty_like(keys) if low < n else None
        best = np.empty(q**low, dtype=key)
        for prefix, row in enumerate(rows):
            summed = keys if block is None else np.add(keys, row[:, None], out=block)
            np.remainder(np.minimum.reduce(summed, axis=0, out=best), q**k, out=out[prefix])
        return out.reshape(-1)


class TableDecoder(_BaseDecoder):
    """Decoder defined by an explicit message-index table (for constructed
    counterexamples and artificial message-dependent behavior)."""

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
