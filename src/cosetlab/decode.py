"""Classical decoders and exact channel success probabilities.

All decoders here are total deterministic functions from received words to
messages; failure maps to the all-zeros message sentinel so that downstream
unitary constructions stay permutations. Decoding depends on the received
word only (never on how it was produced).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .codes import LinearCode, rs_code, solve_batch
from .config import require_budget
from .galois import all_vectors, radix_weights
from .noise import ErrorProfile

__all__ = [
    "berlekamp_welch",
    "berlekamp_welch_batch",
    "brute_force_list",
    "brute_force_nearest",
    "gs_list_radius",
    "BerlekampWelchDecoder",
    "BruteForceNearestDecoder",
    "TableDecoder",
    "DecoderReport",
    "success_probability",
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


def gs_list_radius(n: int, d: int) -> int:
    """Largest radius with guaranteed polynomial list size for dimension d:
    the integer realization of n - sqrt(n*d) with a strict boundary."""
    return math.ceil(n - math.sqrt(n * d)) - 1


def brute_force_list(code: LinearCode, y: np.ndarray, radius: int,
                     budget: int | None = None) -> list[np.ndarray]:
    """All messages within Hamming distance `radius` of y, sorted by
    (distance, message index). Exhausts all q^k codewords."""
    y = np.asarray(y, dtype=np.int64) % code.q
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    require_budget(code.q**code.k * code.n, budget)
    messages = code.messages()
    dists = np.count_nonzero((code.codewords() - y) % code.q, axis=1)
    hits = np.nonzero(dists <= radius)[0]
    order = hits[np.argsort(dists[hits], kind="stable")]
    return [messages[i] for i in order]


def brute_force_nearest(code: LinearCode, y: np.ndarray,
                        budget: int | None = None) -> np.ndarray:
    """Message of the nearest codeword; distance ties break to the smallest
    message index (lexicographically smallest message)."""
    y = np.asarray(y, dtype=np.int64) % code.q
    if y.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}")
    require_budget(code.q**code.k * code.n, budget)
    dists = np.count_nonzero((code.codewords() - y) % code.q, axis=1)
    return code.messages()[int(np.argmin(dists))]


# ---- total decoder objects (the simulator's interface) ---------------------


class _BaseDecoder:
    kind = "base"

    def __init__(self, code: LinearCode):
        self.code = code
        self._table: np.ndarray | None = None

    def decode(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def table(self, budget: int | None = None) -> np.ndarray:
        """Message index for every received word index, shape (q^n,)."""
        if self._table is None:
            self._table = self._build_table(budget)
        return self._table

    def _build_table(self, budget: int | None) -> np.ndarray:
        raise NotImplementedError


class BerlekampWelchDecoder(_BaseDecoder):
    """Total unique decoder: algebraic decode, all-zeros sentinel on failure."""

    kind = "berlekamp_welch"

    def __init__(self, code: LinearCode):
        _require_full_support_rs(code)
        super().__init__(code)
        self.radius = (code.n - code.k) // 2

    def decode(self, y: np.ndarray) -> np.ndarray:
        message = berlekamp_welch(self.code, y)
        if message is None:
            return np.zeros(self.code.k, dtype=np.int64)
        return message

    def _build_table(self, budget: int | None) -> np.ndarray:
        """Ball scatter: table[cG + e] = s for wt(e) <= t0, sentinel 0 elsewhere.

        The code is MDS with 2 t0 < d_min, so the radius-t0 balls around
        codewords are disjoint and BW decodes exactly the words inside them.
        """
        code = self.code
        q, n = code.q, code.n
        require_budget(q**n, budget)
        errors = [np.zeros((1, n), dtype=np.int64)]
        for weight in range(1, self.radius + 1):
            values = all_vectors(q - 1, weight) + 1
            for support in itertools.combinations(range(n), weight):
                block = np.zeros((values.shape[0], n), dtype=np.int64)
                block[:, support] = values
                errors.append(block)
        codewords = code.codewords()
        words = (codewords[:, None, :] + np.concatenate(errors)[None, :, :]) % q
        table = np.zeros(q**n, dtype=np.int64)
        table[words @ radix_weights(q, n)] = np.arange(codewords.shape[0])[:, None]
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


class BruteForceNearestDecoder(_BaseDecoder):
    """Nearest-codeword decoder by exhaustive enumeration (always succeeds)."""

    kind = "brute_force_nearest"

    def decode(self, y: np.ndarray) -> np.ndarray:
        return brute_force_nearest(self.code, y)

    def _build_table(self, budget: int | None) -> np.ndarray:
        """Distances split at a coordinate: the low m coordinates' mismatch
        counts are tabulated once, and each high prefix adds its own row, so
        one chunk holds q^m x q^k uint8 counts. argmin breaks ties to the
        smallest message index, as `brute_force_nearest` does."""
        code = self.code
        q, n = code.q, code.n
        require_budget(q**n, budget)
        codewords = code.codewords()
        low = n  # keep a chunk within 4 MiB of counts
        while low > 0 and q**low * codewords.shape[0] > 1 << 22:
            low -= 1
        low_counts = _mismatch_counts(q, codewords[:, n - low:])
        high_counts = _mismatch_counts(q, codewords[:, :n - low])
        out = np.empty((high_counts.shape[0], q**low), dtype=np.int64)
        for prefix, row in enumerate(high_counts):
            out[prefix] = np.argmin(low_counts + row, axis=1)
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

    def decode(self, y: np.ndarray) -> np.ndarray:
        from .galois import index_of_vector, vector_of_index
        idx = index_of_vector(np.asarray(y, dtype=np.int64), self.code.q)
        return vector_of_index(int(self._table[idx]), self.code.q, self.code.k)


# ---- channel success probabilities -----------------------------------------


@dataclass(frozen=True)
class DecoderReport:
    p_dec: float
    mode: str
    samples: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None

    def to_dict(self) -> dict:
        return {
            "p_dec": self.p_dec,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "ci": self.ci_halfwidth,
        }


def _channel_probabilities(profile: ErrorProfile, budget: int | None) -> np.ndarray:
    """P[e] for all q^n error vectors: tensor product of |u_i|^2."""
    require_budget(profile.q**profile.n, budget)
    return reduce(np.kron, profile.error_probabilities(), np.ones(1))


def success_probability(decoder: _BaseDecoder, profile: ErrorProfile,
                        mode: str = "exact", samples: int = 100_000,
                        seed: int = 0, budget: int | None = None) -> DecoderReport:
    """P[decoder recovers the all-zeros message under the profile's channel].

    By codeword independence of the decoders this is the success probability
    for message zero; it coincides with the per-message value exactly when
    the decoder commutes with codeword shifts.
    """
    code = decoder.code
    if profile.n != code.n or profile.q != code.q:
        raise ValueError("profile and code must share q and n")
    if mode == "exact":
        probs = _channel_probabilities(profile, budget)
        p = float(probs[decoder.table(budget) == 0].sum())
        return DecoderReport(p_dec=p, mode="exact")
    if mode == "monte_carlo":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        channel = profile.error_probabilities()
        draws = np.empty((samples, profile.n), dtype=np.int64)
        for i in range(profile.n):
            draws[:, i] = rng.choice(profile.q, size=samples, p=channel[i])
        hits = decoder.table(budget)[draws @ radix_weights(code.q, code.n)] == 0
        p = float(np.mean(hits))
        # variance floor keeps the interval honest when p sits at 0 or 1
        half = 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
        return DecoderReport(p_dec=p, mode="monte_carlo", samples=samples,
                             seed=seed, ci_halfwidth=half)
    raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")


def per_message_success(decoder: _BaseDecoder, profile: ErrorProfile,
                        budget: int | None = None) -> np.ndarray:
    """p_s = P[decoder(sG + e) = s] for every message s, exactly.

    This is the classical shadow of the decoder map's diagonal amplitudes:
    the simulator uses it to decide whether symmetrization is needed.
    """
    code = decoder.code
    if profile.n != code.n or profile.q != code.q:
        raise ValueError("profile and code must share q and n")
    probs = _channel_probabilities(profile, budget)
    table = decoder.table(budget)
    radix = radix_weights(code.q, code.n)
    errors = all_vectors(code.q, code.n)
    out = np.empty(code.q**code.k)
    for s_idx, codeword in enumerate(code.codewords()):
        indices = ((errors + codeword) % code.q) @ radix
        out[s_idx] = probs[table[indices] == s_idx].sum()
    return out
