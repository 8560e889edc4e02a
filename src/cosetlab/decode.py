"""Classical decoders and exact channel success probabilities.

All decoders here are total deterministic functions from received words to
messages; failure maps to the all-zeros message sentinel so that downstream
unitary constructions stay permutations. Decoding depends on the received
word only (never on how it was produced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import LinearCode, null_space, rs_code  # noqa: F401  (rs_code re-exported for callers)
from .config import require_budget
from .galois import all_vectors, radix_weights
from .noise import ErrorProfile

__all__ = [
    "berlekamp_welch",
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


# ---- polynomial helpers (coefficients low-degree-first) -------------------


def _poly_divide(field, num: np.ndarray, den: np.ndarray):
    """Exact division num/den over F_q; returns quotient or None if inexact."""
    num = list(np.asarray(num, dtype=np.int64) % field.q)
    den = list(np.asarray(den, dtype=np.int64) % field.q)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return np.zeros(0, dtype=np.int64)
    if len(num) < len(den):
        return None
    lead_inv = field.inv(den[-1])
    quotient = [0] * (len(num) - len(den) + 1)
    rem = num[:]
    for shift in range(len(quotient) - 1, -1, -1):
        coeff = (rem[shift + len(den) - 1] * lead_inv) % field.q
        quotient[shift] = coeff
        if coeff:
            for j, d in enumerate(den):
                rem[shift + j] = (rem[shift + j] - coeff * d) % field.q
    if any(rem):
        return None
    return np.array(quotient, dtype=np.int64)


def _require_full_support_rs(code: LinearCode) -> None:
    """Reject codes whose generator is not the ascending-power evaluation map."""
    if code.n != code.q:
        raise ValueError("decoder requires a full-support evaluation code (n == q)")
    points = np.arange(code.q, dtype=np.int64)
    expected = np.ones((code.k, code.n), dtype=np.int64)
    for i in range(1, code.k):
        expected[i] = (expected[i - 1] * points) % code.q
    if np.any(code.G != expected):
        raise ValueError("decoder requires the standard evaluation generator")


def berlekamp_welch(code: LinearCode, y: np.ndarray) -> np.ndarray | None:
    """Unique decoding of a full-support evaluation code of dimension d.

    Returns the coefficient vector (low-degree-first) of the unique
    polynomial P with deg P < d whose evaluations lie within Hamming
    distance t0 = floor((n-d)/2) of y, or None when no such codeword
    exists. Solves E(x_i) y_i = Q(x_i) with deg E <= t0, deg Q < d + t0,
    divides Q/E, then re-encodes and checks the distance, so a spurious
    algebraic solution can never be returned.
    """
    _require_full_support_rs(code)
    field = code.field
    n, d = code.n, code.k
    y = np.asarray(y, dtype=np.int64) % code.q
    if y.shape != (n,):
        raise ValueError(f"received word must have length {n}")
    t0 = (n - d) // 2
    points = np.arange(n, dtype=np.int64)
    # power table: powers[i, j] = x_i^j
    width = max(t0 + 1, d + t0)
    powers = np.ones((n, width), dtype=np.int64)
    for j in range(1, width):
        powers[:, j] = (powers[:, j - 1] * points) % code.q
    # unknowns: E_0..E_t0, Q_0..Q_{d+t0-1}; rows: E(x_i) y_i - Q(x_i) = 0
    system = np.hstack([
        (powers[:, : t0 + 1] * y[:, None]) % code.q,
        (-powers[:, : d + t0]) % code.q,
    ])
    kernel = null_space(field, system)
    if kernel.shape[0] == 0:
        return None
    vec = kernel[0]
    e_coeffs, q_coeffs = vec[: t0 + 1], vec[t0 + 1:]
    if not np.any(e_coeffs):
        return None
    p_coeffs = _poly_divide(field, q_coeffs, e_coeffs)
    if p_coeffs is None or p_coeffs.shape[0] > d:
        return None
    message = np.zeros(d, dtype=np.int64)
    message[: p_coeffs.shape[0]] = p_coeffs
    if int(np.count_nonzero((code.encode(message) - y) % code.q)) > t0:
        return None
    return message


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
        code = self.code
        require_budget(code.q**code.n, budget)
        radix = radix_weights(code.q, code.k)
        ys = all_vectors(code.q, code.n)
        out = np.empty(ys.shape[0], dtype=np.int64)
        for i, y in enumerate(ys):
            out[i] = int(self.decode(y) @ radix)
        return out


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


class BruteForceNearestDecoder(_BaseDecoder):
    """Nearest-codeword decoder by exhaustive enumeration (always succeeds)."""

    kind = "brute_force_nearest"

    def decode(self, y: np.ndarray) -> np.ndarray:
        return brute_force_nearest(self.code, y)

    def _build_table(self, budget: int | None) -> np.ndarray:
        # chunked distance matrix: q^n rows never materialize at once
        code = self.code
        require_budget(code.q**code.n, budget)
        codewords = code.codewords()
        ys = all_vectors(code.q, code.n)
        out = np.empty(ys.shape[0], dtype=np.int64)
        step = 4096
        for lo in range(0, ys.shape[0], step):
            block = ys[lo:lo + step]
            dists = np.count_nonzero(
                (block[:, None, :] - codewords[None, :, :]) % code.q, axis=2)
            out[lo:lo + step] = np.argmin(dists, axis=1)
        return out


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
    probs = np.ones(1)
    for row in profile.error_probabilities():
        probs = np.kron(probs, row)
    return probs


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
