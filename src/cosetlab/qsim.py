"""Exact dense simulation of the decoder-driven coset-state reduction.

The algorithm simulated here, for a code C with k x n generator G, an error
profile f, a total deterministic decoder D, and a target dual syndrome u:

1. prepare (1/sqrt(q^k)) sum_s chi_{-u}(s) |psi_s>_A |0>_B |s>_C with
   |psi_s> = sum_e f(e) |sG + e>,
2. apply the decoder map U: |y>_A |t>_B -> |y>_A |t + D(y)>_B (possibly
   symmetrized, see below), then subtract B from C,
3. measure C, keep the outcome 0 (probability recorded; the retry loop is
   replaced by exact conditioning on the accepting branch),
4. apply U's adjoint,
5. Fourier-transform register A and read its outcome distribution.

The success figure p_u is the final A-mass on the dual coset of u
intersected with the constraint set T.

Symmetrization: when the decoder's per-message success probabilities p_s
are not all equal (the all-zeros failure sentinel breaks shift covariance),
U is replaced by U' on (A, B, T): Fourier-superpose a shift t on T, add tG
to A, run U, subtract t from B. U' has uniform diagonal amplitudes
sqrt(mean_s p_s), which the success-bound machinery requires. Past the
transform on T, U' permutes basis states: it runs as one composed gather.

Two engines compute identical outcomes:

- `run_reduction` walks the five steps literally for one syndrome (the
  reference engine), checking norms at every step. U' never touches the
  message copy C, so each C = s block evolves alone and keeping C = 0 keeps
  its B = s slice: the engine streams over s in O(q^(n+2k)) memory, not
  the O(q^(n+3k)) of the whole (A, B, C, T) tensor.
- `run_reduction_sweep` evaluates the closed form of the accepted state.
  Step 3 keeps exactly the branch s = D(y) and step 4 returns B to |0>, so
  register A holds F_u(y) = chi_{-u}(D(y)) f(y - D(y)G), normalized. On the
  dual coset of u, where p_u is read, its transform is that of f N, with
  N(e) = #{y : y - D(y)G = e} the residual histogram of the decoder table:
  one q^n transform serves every syndrome, in O(q^n) memory.
  Symmetrization changes the diagonal gammas but not P_acc or the A
  marginal (derivation in `run_reduction_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .codes import LinearCode, syndrome
from .config import TOL, require_budget
from .decode import _BaseDecoder, _table_build_bytes, per_message_success, residual_index
from .galois import PrimeField, all_vectors, fourier_transform, radix_weights
from .noise import ConstraintSet, ErrorProfile, tail_mass

__all__ = [
    "ReductionOutcome",
    "BoundReport",
    "DecoderUnitary",
    "SymmetrizedUnitary",
    "success_lower_bound",
    "run_reduction",
    "run_reduction_sweep",
    "verify_bound",
]

COMPLEX_BYTES = 16
INDEX_BYTES = 8


# ---- index machinery of the reference engine ---------------------------------


class _Registers:
    """Index tables of the dense registers for one (code, profile) pair."""

    def __init__(self, code: LinearCode, profile: ErrorProfile):
        self.code = code
        self.profile = profile
        self.field = PrimeField(code.q)
        self.q, self.n, self.k = code.q, code.n, code.k
        self.dim_a = self.q**self.n
        self.dim_b = self.q**self.k
        self._radix_n = radix_weights(self.q, self.n)
        self._radix_k = radix_weights(self.q, self.k)

    @cached_property
    def messages(self) -> np.ndarray:
        return all_vectors(self.q, self.k)

    @cached_property
    def add_k(self) -> np.ndarray:
        """add_k[i, j] = index of message_i + message_j."""
        v = self.messages
        return ((v[:, None, :] + v[None, :, :]) % self.q) @ self._radix_k

    @cached_property
    def sub_k(self) -> np.ndarray:
        """sub_k[i, j] = index of message_i - message_j."""
        v = self.messages
        return ((v[:, None, :] - v[None, :, :]) % self.q) @ self._radix_k

    @cached_property
    def shift_sub_idx(self) -> np.ndarray:
        """shift_sub_idx[s, a] = index of (vector_a - codeword_s)."""
        va = all_vectors(self.q, self.n)
        return np.stack([((va - c) % self.q) @ self._radix_n for c in self.code.codewords()])

    @cached_property
    def fourier_k(self) -> np.ndarray:
        """Unitary transform matrix on the k-coordinate message register."""
        return reduce(np.kron, [self.field.fourier_matrix] * self.k, np.ones((1, 1)))

    def psi(self, s_idx: int) -> np.ndarray:
        """|psi_s> as a dense q^n vector: f shifted by codeword s."""
        return self.profile.amplitudes()[self.shift_sub_idx[s_idx]]


# ---- decoder maps ------------------------------------------------------------


class _GatherMap:
    """A decoder map whose basis-state action is the gather `steps`. `apply`
    runs one flat gather index, built once by running `steps` on an index
    array; the adjoint scatters by the same index."""

    shape: tuple[int, ...]
    _gather: np.ndarray | None = None

    def steps(self, regs: _Registers, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gather(self, regs: _Registers) -> np.ndarray:
        if self._gather is None:
            index = np.arange(math.prod(self.shape)).reshape(self.shape)
            self._gather = self.steps(regs, index).reshape(-1)
        return self._gather

    def apply(self, regs: _Registers, state: np.ndarray,
              adjoint: bool = False) -> np.ndarray:
        """Apply to a state of shape `shape`, or any reshape of it."""
        flat, gather = state.reshape(-1), self.gather(regs)
        if not adjoint:
            return flat[gather].reshape(state.shape)
        out = np.empty_like(flat)
        out[gather] = flat
        return out.reshape(state.shape)

    def diagonal_gammas(self, regs: _Registers) -> np.ndarray:
        """gamma_{s,s} = norm of the B=s block of U(|psi_s>|0>[|0>_T]), for all s."""
        return np.array([float(np.linalg.norm(mapped[:, s_idx])) for s_idx, _, mapped
                         in _evolved_blocks(regs, self, np.ones(regs.dim_b))])


class DecoderUnitary(_GatherMap):
    """Permutation map |y>_A |t>_B -> |y>_A |t + D(y)>_B for a total D."""

    def __init__(self, decoder: _BaseDecoder, budget: int | None = None):
        code = decoder.code
        self.shape = (code.q**code.n, code.q**code.k)
        require_budget(math.prod(self.shape), budget)
        self.table = decoder.table(budget)
        if self.table.shape != self.shape[:1]:
            raise ValueError("decoder table must cover every received word")

    def steps(self, regs: _Registers, arr: np.ndarray) -> np.ndarray:
        """b += D(a) on axes (A, B, ...): reads b - D(a)."""
        return arr[np.arange(regs.dim_a)[:, None], regs.sub_k[:, self.table].T]


class SymmetrizedUnitary(_GatherMap):
    """U' on (A, B, T): Fourier T, add TG to A, run U, subtract T from B.

    Makes the diagonal amplitudes uniform: every gamma'_{s,s} equals
    sqrt(mean_s p_s), real nonnegative. The three steps after the transform
    are gathers, which `apply` runs as one composed gather index.
    """

    def __init__(self, base: DecoderUnitary, budget: int | None = None):
        self.base = base
        self.shape = base.shape + (base.shape[1],)
        require_budget(math.prod(self.shape), budget)

    @staticmethod
    def shift_a(regs: _Registers, arr: np.ndarray) -> np.ndarray:
        """a += tG on axes (A, B, T): reads a - tG."""
        b, t = np.ogrid[:regs.dim_b, :regs.dim_b]
        return arr[regs.shift_sub_idx.T[:, None, :], b, t]

    @staticmethod
    def sub_b_t(regs: _Registers, arr: np.ndarray) -> np.ndarray:
        """b -= t on axes (A, B, T): reads b + t."""
        return arr[:, regs.add_k, np.arange(regs.dim_b)]

    def steps(self, regs: _Registers, arr: np.ndarray) -> np.ndarray:
        return self.sub_b_t(regs, self.base.steps(regs, self.shift_a(regs, arr)))

    def apply(self, regs: _Registers, state: np.ndarray,
              adjoint: bool = False) -> np.ndarray:
        """Apply to an (A, B, T) state: transform T, then gather. fourier_k
        is symmetric, so the adjoint's transform is its conjugate."""
        rows = state.reshape(-1, regs.dim_b)
        if adjoint:
            rows = super().apply(regs, rows, adjoint=True) @ regs.fourier_k.conj()
        else:
            rows = super().apply(regs, rows @ regs.fourier_k.T)
        return rows.reshape(state.shape)


def _evolved_blocks(regs: _Registers, u_map: _GatherMap, weights: np.ndarray):
    """Yield (s, prepared, mapped) for every message s, one block at a time:
    prepared = w_s |psi_s>_A |0>_B [|0>_T] and mapped = u_map(prepared)."""
    u_map.gather(regs)  # built before any block, so its temporaries add no peak
    for s_idx, weight in enumerate(weights):
        block = np.zeros(u_map.shape, dtype=np.complex128)
        block.reshape(regs.dim_a, -1)[:, 0] = weight * regs.psi(s_idx)
        yield s_idx, block, u_map.apply(regs, block)


# ---- outcomes ----------------------------------------------------------------


def success_lower_bound(p_dec: float, eta: float) -> float:
    """Lower bound p_dec (1 - eta) - 2 sqrt(eta p_dec (1 - p_dec)) on the
    mean success probability over syndromes."""
    return p_dec * (1.0 - eta) - 2.0 * math.sqrt(
        max(eta * p_dec * (1.0 - p_dec), 0.0))


@dataclass
class ReductionOutcome:
    q: int
    n: int
    k: int
    u: tuple[int, ...]
    tau_tilde: float
    p_u: float
    post_select_prob: float
    p_dec: float
    eta: float
    bound: float
    symmetrized: bool
    max_norm_drift: float = 0.0
    a_marginal: np.ndarray | None = field(default=None, repr=False)

    @property
    def slack(self) -> float:
        return self.p_u - self.bound

    def to_dict(self) -> dict:
        return {
            "u": list(self.u),
            "p_u": self.p_u,
            "post_select_prob": self.post_select_prob,
            "p_dec": self.p_dec,
            "eta": self.eta,
            "bound": self.bound,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class BoundReport:
    n_outcomes: int
    mean_p: float
    p_dec: float
    eta: float
    bound: float
    slack: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n_outcomes": self.n_outcomes,
            "mean_p": self.mean_p,
            "p_dec": self.p_dec,
            "eta": self.eta,
            "bound": self.bound,
            "slack": self.slack,
            "ok": self.ok,
        }


def _check_inputs(code: LinearCode, profile: ErrorProfile, decoder: _BaseDecoder,
                  constraints: list[ConstraintSet]) -> None:
    """Reject a profile, decoder or constraint set built for another instance."""
    if profile.q != code.q or profile.n != code.n:
        raise ValueError("profile and code must share q and n")
    other = decoder.code
    if (other.q, other.n, other.k) != (code.q, code.n, code.k) or np.any(other.G != code.G):
        raise ValueError("decoder was built for a different code")
    key = (profile.q, profile.n, profile.sets, profile.tau)
    for c in constraints:
        if (c.profile.q, c.profile.n, c.profile.sets, c.profile.tau) != key:
            raise ValueError("constraint was built for a different profile")


def _decide_symmetrization(decoder: _BaseDecoder, profile: ErrorProfile,
                           force: bool | None,
                           budget: int | None) -> tuple[bool, float]:
    """(symmetrize?, p_dec). p_dec is always mean_s p_s."""
    p_s = per_message_success(decoder, profile, budget)
    spread = float(p_s.max() - p_s.min())
    needed = spread > TOL.gamma_spread if force is None else force
    return needed, float(p_s.mean())


# ---- reference engine: one syndrome, one message-copy block at a time ---------


def _reference_peak_bytes(q: int, n: int, k: int, symmetrized: bool) -> int:
    """Peak bytes of `run_reduction`: in step 2, four complex (A, B[, T])
    blocks (prepared, T-transformed, mapped, accepted) and the int64 gather
    index; beside them the int64 shift table of q^(n+k) entries and at most
    64 bytes per entry of q^n- and q^(2k)-entry tables; or, if larger, a
    nearest-codeword table build, which precedes them; and 64 KiB of
    overhead."""
    entries = q ** (n + (2 if symmetrized else 1) * k)
    evolve = (entries * (4 * COMPLEX_BYTES + INDEX_BYTES) + q ** (n + k) * INDEX_BYTES
              + (q**n + q ** (2 * k)) * 64)
    return max(evolve, _table_build_bytes(q, n, k)) + 2**16


def run_reduction(code: LinearCode, profile: ErrorProfile,
                  decoder: _BaseDecoder, u: np.ndarray,
                  constraint: ConstraintSet, *, budget: int | None = None,
                  force_symmetrize: bool | None = None,
                  keep_marginal: bool = False) -> ReductionOutcome:
    """Run the five-step reduction for one dual syndrome u, densely.

    Steps 1-2 stream over the message copy C. U' acts on (A, B[, T]) only,
    so each C = s block of the prepared state evolves alone; C -= B moves
    its B = b slice to C = s - b, so keeping C = 0 keeps b = s. Each block
    is prepared, mapped and cut to accepted[:, s] = mapped[:, s] before the
    next is built, and the step-1 and step-2 squared norms are summed over
    blocks: the same numbers as walking the whole (A, B, C[, T]) tensor, in
    O(q^(n+2k)) memory instead of O(q^(n+3k)). Steps 3-5 run on the
    accepted (A, B[, T]) state.

    The budget counts 16-byte amplitudes of the stated peak
    (`_reference_peak_bytes`, for the symmetrized map unless
    force_symmetrize is False), checked before any decoder table is built.
    """
    u = np.asarray(u, dtype=np.int64) % code.q
    if u.shape != (code.k,):
        raise ValueError(f"u must have length {code.k}")
    _check_inputs(code, profile, decoder, [constraint])
    peak = _reference_peak_bytes(code.q, code.n, code.k, force_symmetrize is not False)
    require_budget(-(-peak // COMPLEX_BYTES), budget)
    regs = _Registers(code, profile)
    symmetrized, p_dec = _decide_symmetrization(
        decoder, profile, force_symmetrize, budget)
    u_map: _GatherMap = DecoderUnitary(decoder, budget)
    if symmetrized:
        u_map = SymmetrizedUnitary(u_map, budget)

    # steps 1-2: superposed shifted error states, one C = s block at a time
    phases = np.conj(regs.field.roots_of_unity[(regs.messages @ u) % code.q])
    weights = phases / math.sqrt(regs.dim_b)
    accepted = np.empty(u_map.shape, dtype=np.complex128)
    norms_sq = [0.0, 0.0]
    for s_idx, prepared, mapped in _evolved_blocks(regs, u_map, weights):
        norms_sq[0] += float(np.vdot(prepared, prepared).real)
        norms_sq[1] += float(np.vdot(mapped, mapped).real)
        accepted[:, s_idx] = mapped[:, s_idx]
        del prepared, mapped  # keep one block alive at a time
    norms = [math.sqrt(x) for x in norms_sq]

    # step 3: measure the message copy, keep outcome 0, renormalize
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted /= math.sqrt(post_select_prob)

    # step 4: adjoint decoder map
    accepted = u_map.apply(regs, accepted, adjoint=True)
    norms.append(float(np.linalg.norm(accepted)))

    # step 5: Fourier transform register A, read its marginal
    accepted = fourier_transform(regs.field, accepted, budget)
    norms.append(float(np.linalg.norm(accepted)))
    marginal = np.abs(accepted) ** 2
    marginal = marginal.reshape(regs.dim_a, -1).sum(axis=1)

    mask = constraint.membership_mask(budget)
    on_coset = np.all(syndrome(code, all_vectors(code.q, code.n), "dual") == u, axis=1)
    p_u = float(marginal[mask & on_coset].sum())

    eta, _ = tail_mass(profile, constraint.tau_tilde)
    return ReductionOutcome(
        q=code.q, n=code.n, k=code.k, u=tuple(int(x) for x in u),
        tau_tilde=constraint.tau_tilde, p_u=p_u,
        post_select_prob=post_select_prob, p_dec=p_dec, eta=eta,
        bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized,
        max_norm_drift=max(abs(x - 1.0) for x in norms),
        a_marginal=marginal if keep_marginal else None)


# ---- sweep engine: all syndromes from the closed form --------------------------


def _sweep_peak_bytes(q: int, n: int, k: int) -> int:
    """Peak bytes of `run_reduction_sweep` with one constraint set. Per
    received word: the int64 table, syndrome index and residual, at most
    max(2n, 13) int64-sized entries of words, codewords, amplitudes and
    transform buffers, and one of slack; or, if larger, a nearest-codeword
    table build, which precedes them. Per message: its codeword and message
    rows and its outcome."""
    return (max(q**n * INDEX_BYTES * (max(2 * n, 13) + 4), _table_build_bytes(q, n, k))
            + q**k * (4 * n * INDEX_BYTES + 512) + 2**16)


def run_reduction_sweep(code: LinearCode, profile: ErrorProfile,
                        decoder: _BaseDecoder,
                        constraints: list[ConstraintSet], *,
                        budget: int | None = None
                        ) -> list[list[ReductionOutcome]]:
    """Outcomes for every dual syndrome and every constraint set.

    Returns outcomes[c][j] for constraint c and syndrome index j. One q^n
    transform serves every syndrome. The budget counts the 16-byte
    amplitudes of the stated peak (`_sweep_peak_bytes`, a few arrays of q^n
    entries whatever k is), checked before any decoder table is built.

    Derivation. With g_u(y) = chi_{-u}(D(y)) f(y - D(y)G): after step 2 the
    state is q^(-k/2) sum_{s,y} chi_{-u}(s) f(y - sG) |y>|D(y)>|s - D(y)>.
    Keeping C = 0 selects s = D(y) with probability
    P_acc = q^-k sum_y |f(y - D(y)G)|^2, and the adjoint map clears B, so A
    holds F_u = g_u / sqrt(q^k P_acc) and the step-5 marginal is |Fhat_u|^2.
    p_u reads it on {x in T : G x^T = u}. There <u, D(y)> = <x, D(y)G>, so
    chi_x(y) chi_{-u}(D(y)) = chi_x(y - D(y)G), and grouping y by its
    residual gives ghat_u(x) = FT(f N)(x) with N(e) = #{y : y - D(y)G = e};
    likewise q^k P_acc = sum_e N(e) |f(e)|^2. One transform of f N thus
    serves every u, and p_u sums |FT(f N)|^2 / (q^k P_acc) over one
    dual-syndrome class of T.

    With symmetrization, acceptance selects s = D(y) - t for each shift t,
    which leaves P_acc unchanged; after the adjoint the (A, T) state is
    q^-k sum_t chi_u(t) g_u(a + tG) |a>|t> / sqrt(P_acc) before T's inverse
    transform, and transforming A gives
    q^-k chi(<u - G x^T, t>) ghat_u(x) / sqrt(P_acc). The phase has unit
    modulus, so summing over t returns the same A marginal |Fhat_u(x)|^2.

    q^k P_acc = sum_y |f(y - D(y)G)|^2 and mean_s p_s =
    q^-k sum_y P(y - D(y)G) are the same sum over one residual index, so
    acceptance equals p_dec by construction, not as a check. The checks of
    acceptance are independent: the literal engine `run_reduction` evolves
    the state and measures it.
    """
    _check_inputs(code, profile, decoder, constraints)
    q, n, k = code.q, code.n, code.k
    require_budget(-(-_sweep_peak_bytes(q, n, k) // COMPLEX_BYTES), budget)
    symmetrized, p_dec = _decide_symmetrization(decoder, profile, None, budget)
    dual_idx = syndrome(code, all_vectors(q, n), "dual") @ radix_weights(q, k)
    residual = residual_index(code, decoder.table(budget))
    f = profile.amplitudes(budget)
    histogram = np.bincount(residual, minlength=q**n)
    norm_sq = float(histogram @ np.abs(f) ** 2)
    marginal = np.abs(fourier_transform(PrimeField(q), f * histogram, budget)) ** 2 / norm_sq

    syndromes = [tuple(int(x) for x in u) for u in all_vectors(q, k)]
    out: list[list[ReductionOutcome]] = []
    for c in constraints:
        mask = c.membership_mask(budget)
        p_us = np.bincount(dual_idx[mask], weights=marginal[mask], minlength=q**k)
        eta = tail_mass(profile, c.tau_tilde)[0]
        out.append([ReductionOutcome(
            q=q, n=n, k=k, u=u, tau_tilde=c.tau_tilde, p_u=float(p_u),
            post_select_prob=norm_sq / q**k, p_dec=p_dec, eta=eta,
            bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized)
            for u, p_u in zip(syndromes, p_us)])
    return out


def verify_bound(outcomes: list[ReductionOutcome],
                 p_dec: float | None = None,
                 eta: float | None = None) -> BoundReport:
    """Aggregate exhaustive per-syndrome outcomes against the lower bound."""
    if not outcomes:
        raise ValueError("no outcomes to verify")
    first = outcomes[0]
    expected = first.q**first.k
    seen = {o.u for o in outcomes}
    if len(outcomes) != expected or len(seen) != expected:
        raise ValueError(
            f"exhaustive verification needs all {expected} syndromes exactly "
            f"once, got {len(outcomes)} outcomes over {len(seen)} distinct u")
    if len({o.p_dec for o in outcomes}) > 1 or len({o.eta for o in outcomes}) > 1:
        raise ValueError("outcomes do not share one p_dec and one eta")
    p_dec = first.p_dec if p_dec is None else p_dec
    eta = first.eta if eta is None else eta
    mean_p = float(np.mean([o.p_u for o in outcomes]))
    bound = success_lower_bound(p_dec, eta)
    slack = mean_p - bound
    return BoundReport(n_outcomes=len(outcomes), mean_p=mean_p, p_dec=p_dec,
                       eta=eta, bound=bound, slack=slack,
                       ok=slack >= -TOL.bound_slack)
