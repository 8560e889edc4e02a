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
sqrt(mean_s p_s), which the success-bound machinery requires.

Two engines compute identical outcomes:

- `run_reduction` materializes the registers densely and walks the five
  steps literally, checking norms at every step (the reference engine).
- `run_reduction_sweep` evaluates the closed form of the accepted state.
  Step 3 keeps exactly the branch s = D(y) and step 4 returns B to |0>, so
  register A is left holding

      F_u(y) = chi_{-u}(D(y)) f(y - D(y)G) / sqrt(q^k P_acc),
      P_acc  = q^-k sum_y |f(y - D(y)G)|^2,

  and p_u is the mass of its transform on {x in T : G x^T = u}: one q^n
  transform per syndrome, O(q^n) memory. Symmetrization entangles the
  shift register with A only through a unit-modulus phase, so it changes
  the diagonal gammas but not P_acc or the A marginal; one formula serves
  both cases (derivation in `run_reduction_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codes import LinearCode, syndrome
from .config import TOL, require_budget
from .decode import _BaseDecoder, per_message_success
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


# ---- index machinery of the reference engine ---------------------------------


class _Registers:
    """Index tables of the dense registers for one (code, profile) pair."""

    def __init__(self, code: LinearCode, profile: ErrorProfile,
                 budget: int | None = None):
        self.code = code
        self.profile = profile
        self.field = PrimeField(code.q)
        self.q, self.n, self.k = code.q, code.n, code.k
        self.dim_a = self.q**self.n
        self.dim_b = self.q**self.k
        require_budget(self.dim_a * self.dim_b, budget)
        self._radix_n = radix_weights(self.q, self.n)
        self._radix_k = radix_weights(self.q, self.k)

    @cached_property
    def messages(self) -> np.ndarray:
        return all_vectors(self.q, self.k)

    @cached_property
    def codewords(self) -> np.ndarray:
        return (self.messages @ self.code.G) % self.q

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
        return ((va[None, :, :] - self.codewords[:, None, :]) % self.q) @ self._radix_n

    @cached_property
    def shift_add_idx(self) -> np.ndarray:
        """shift_add_idx[s, a] = index of (vector_a + codeword_s)."""
        va = all_vectors(self.q, self.n)
        return ((va[None, :, :] + self.codewords[:, None, :]) % self.q) @ self._radix_n

    @cached_property
    def dual_syndrome_idx(self) -> np.ndarray:
        """Index of G y^T for every received-word index y."""
        va = all_vectors(self.q, self.n)
        return ((va @ self.code.G.T) % self.q) @ self._radix_k

    @cached_property
    def fourier_k(self) -> np.ndarray:
        """Unitary transform matrix on the k-coordinate message register."""
        f = np.ones((1, 1), dtype=np.complex128)
        for _ in range(self.k):
            f = np.kron(f, self.field.fourier_matrix)
        return f

    def psi(self, s_idx: int) -> np.ndarray:
        """|psi_s> as a dense q^n vector: f shifted by codeword s."""
        return self.profile.amplitudes()[self.shift_sub_idx[s_idx]]

    def phases_for(self, u: np.ndarray) -> np.ndarray:
        """chi_{-u}(s) for every message index s."""
        dots = (self.messages @ (np.asarray(u, dtype=np.int64) % self.q)) % self.q
        return np.conj(self.field.roots_of_unity[dots])

    def qft_a(self, arr: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Coordinate-wise Fourier transform of the leading q^n axis."""
        m = self.field.fourier_matrix
        if inverse:
            m = m.conj()
        shaped = arr.reshape((self.q,) * self.n + arr.shape[1:])
        for axis in range(self.n):
            shaped = np.moveaxis(
                np.tensordot(m, shaped, axes=([1], [axis])), 0, axis)
        return shaped.reshape(arr.shape)


# ---- decoder maps ------------------------------------------------------------


class DecoderUnitary:
    """Permutation map |y>_A |t>_B -> |y>_A |t + D(y)>_B for a total D."""

    def __init__(self, decoder: _BaseDecoder, budget: int | None = None):
        self.decoder = decoder
        self.code = decoder.code
        self.q, self.n, self.k = self.code.q, self.code.n, self.code.k
        require_budget(self.q ** (self.n + self.k), budget)
        self.table = decoder.table(budget)
        if self.table.shape != (self.q**self.n,):
            raise ValueError("decoder table must cover every received word")

    def _gather_indices(self, regs: _Registers, adjoint: bool) -> np.ndarray:
        # forward: out[a, b'] = in[a, b' - D(a)]; adjoint: in[a, b' + D(a)]
        pair = regs.add_k if adjoint else regs.sub_k
        return pair[:, self.table].T

    def apply(self, regs: _Registers, state: np.ndarray,
              adjoint: bool = False) -> np.ndarray:
        """Apply to a state whose axes start (A, B, ...)."""
        idx = self._gather_indices(regs, adjoint)
        return state[np.arange(state.shape[0])[:, None], idx]

    def diagonal_gammas(self, regs: _Registers) -> np.ndarray:
        """gamma_{s,s} = norm of the B=s block of U(|psi_s>|0>), for all s."""
        out = np.empty(regs.dim_b)
        for s_idx in range(regs.dim_b):
            state = np.zeros((regs.dim_a, regs.dim_b), dtype=np.complex128)
            state[:, 0] = regs.psi(s_idx)
            state = self.apply(regs, state)
            out[s_idx] = float(np.linalg.norm(state[:, s_idx]))
        return out


class SymmetrizedUnitary:
    """U' on (A, B, T): Fourier T, add TG to A, run U, subtract T from B.

    Makes the diagonal amplitudes uniform: every gamma'_{s,s} equals
    sqrt(mean_s p_s), real nonnegative.
    """

    def __init__(self, base: DecoderUnitary, budget: int | None = None):
        self.base = base
        self.q, self.n, self.k = base.q, base.n, base.k
        require_budget(self.q ** (self.n + 2 * self.k), budget)

    def apply(self, regs: _Registers, state: np.ndarray,
              adjoint: bool = False) -> np.ndarray:
        """Apply to a state whose axes are (A, B, ..., T), T last."""
        dim_b = regs.dim_b
        t_axis = state.ndim - 1

        def qft_t(arr: np.ndarray, inverse: bool) -> np.ndarray:
            m = regs.fourier_k.conj() if inverse else regs.fourier_k
            return np.moveaxis(
                np.tensordot(m, arr, axes=([1], [t_axis])), 0, t_axis)

        def shift_a(arr: np.ndarray, add: bool) -> np.ndarray:
            # a += tG needs old index a' - tG; a -= tG needs a' + tG
            out = np.empty_like(arr)
            perms = regs.shift_sub_idx if add else regs.shift_add_idx
            for t in range(dim_b):
                out[..., t] = np.take(arr[..., t], perms[t], axis=0)
            return out

        def sub_b_t(arr: np.ndarray, add: bool) -> np.ndarray:
            # b -= t needs old index b' + t; b += t needs b' - t
            out = np.empty_like(arr)
            pair = regs.add_k if not add else regs.sub_k
            for t in range(dim_b):
                out[..., t] = np.take(arr[..., t], pair[:, t], axis=1)
            return out

        if not adjoint:
            state = qft_t(state, inverse=False)
            state = shift_a(state, add=True)
            state = self.base.apply(regs, state)
            state = sub_b_t(state, add=False)
            return state
        state = sub_b_t(state, add=True)
        state = self.base.apply(regs, state, adjoint=True)
        state = shift_a(state, add=False)
        return qft_t(state, inverse=True)

    def diagonal_gammas(self, regs: _Registers) -> np.ndarray:
        """gamma'_{s,s} extracted from the B=s block of U'(|psi_s>|0>|0>)."""
        out = np.empty(regs.dim_b)
        for s_idx in range(regs.dim_b):
            state = np.zeros((regs.dim_a, regs.dim_b, regs.dim_b),
                             dtype=np.complex128)
            state[:, 0, 0] = regs.psi(s_idx)
            state = self.apply(regs, state)
            out[s_idx] = float(np.linalg.norm(state[:, s_idx, :]))
        return out


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


def _check_inputs(code: LinearCode, profile: ErrorProfile,
                  constraints: list[ConstraintSet]) -> None:
    """Reject a profile or constraint set built for another instance."""
    if profile.q != code.q or profile.n != code.n:
        raise ValueError("profile and code must share q and n")
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


# ---- reference engine: one syndrome, dense registers -------------------------


def run_reduction(code: LinearCode, profile: ErrorProfile,
                  decoder: _BaseDecoder, u: np.ndarray,
                  constraint: ConstraintSet, *, budget: int | None = None,
                  force_symmetrize: bool | None = None,
                  keep_marginal: bool = False) -> ReductionOutcome:
    """Run the five-step reduction for one dual syndrome u, densely."""
    u = np.asarray(u, dtype=np.int64) % code.q
    if u.shape != (code.k,):
        raise ValueError(f"u must have length {code.k}")
    _check_inputs(code, profile, [constraint])
    regs = _Registers(code, profile, budget)
    symmetrized, p_dec = _decide_symmetrization(
        decoder, profile, force_symmetrize, budget)
    base = DecoderUnitary(decoder, budget)
    u_map: DecoderUnitary | SymmetrizedUnitary
    if symmetrized:
        u_map = SymmetrizedUnitary(base, budget)
        shape = (regs.dim_a, regs.dim_b, regs.dim_b, regs.dim_b)
    else:
        u_map = base
        shape = (regs.dim_a, regs.dim_b, regs.dim_b)
    require_budget(int(np.prod(shape)), budget)

    drift = 0.0

    def check_norm(arr: np.ndarray) -> None:
        nonlocal drift
        drift = max(drift, abs(float(np.linalg.norm(arr)) - 1.0))

    # step 1: superposed shifted error states, phases on the message copy
    state = np.zeros(shape, dtype=np.complex128)
    phases = regs.phases_for(u) / math.sqrt(regs.dim_b)
    f_dense = profile.amplitudes(budget)
    for s_idx in range(regs.dim_b):
        if symmetrized:
            state[:, 0, s_idx, 0] = phases[s_idx] * f_dense[regs.shift_sub_idx[s_idx]]
        else:
            state[:, 0, s_idx] = phases[s_idx] * f_dense[regs.shift_sub_idx[s_idx]]
    check_norm(state)

    # step 2: decoder map on (A, B[, T]), then C -= B
    state = u_map.apply(regs, state)
    b_axis_index = np.arange(regs.dim_b)[:, None]
    state = state[:, b_axis_index, regs.add_k.T]
    check_norm(state)

    # step 3: measure the message copy, keep outcome 0, renormalize
    accepted = state[:, :, 0] if not symmetrized else state[:, :, 0, :]
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted = accepted / math.sqrt(post_select_prob)

    # step 4: adjoint decoder map
    accepted = u_map.apply(regs, accepted, adjoint=True)
    check_norm(accepted)

    # step 5: Fourier transform register A, read its marginal
    accepted = regs.qft_a(accepted)
    check_norm(accepted)
    marginal = np.abs(accepted) ** 2
    marginal = marginal.reshape(regs.dim_a, -1).sum(axis=1)

    mask = constraint.membership_mask(budget)
    u_idx = int(u @ radix_weights(code.q, code.k))
    p_u = float(marginal[mask & (regs.dual_syndrome_idx == u_idx)].sum())

    eta, _ = tail_mass(profile, constraint.tau_tilde)
    return ReductionOutcome(
        q=code.q, n=code.n, k=code.k, u=tuple(int(x) for x in u),
        tau_tilde=constraint.tau_tilde, p_u=p_u,
        post_select_prob=post_select_prob, p_dec=p_dec, eta=eta,
        bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized,
        max_norm_drift=drift,
        a_marginal=marginal if keep_marginal else None)


# ---- sweep engine: all syndromes from the closed form --------------------------


def run_reduction_sweep(code: LinearCode, profile: ErrorProfile,
                        decoder: _BaseDecoder,
                        constraints: list[ConstraintSet], *,
                        budget: int | None = None
                        ) -> list[list[ReductionOutcome]]:
    """Outcomes for every dual syndrome and every constraint set.

    Returns outcomes[c][j] for constraint c and syndrome index j. Each
    syndrome costs one q^n transform of the closed-form accepted state;
    the working set is a few arrays of q^n entries, whatever k is.

    Derivation. With g_u(y) = chi_{-u}(D(y)) f(y - D(y)G): after step 2 the
    state is q^(-k/2) sum_{s,y} chi_{-u}(s) f(y - sG) |y>|D(y)>|s - D(y)>.
    Keeping C = 0 selects s = D(y) with probability
    P_acc = q^-k sum_y |f(y - D(y)G)|^2, and the adjoint map clears B, so A
    holds F_u = g_u / sqrt(q^k P_acc) and the step-5 marginal is |Fhat_u|^2.
    With symmetrization, acceptance selects s = D(y) - t for each shift t,
    which leaves P_acc unchanged; after the adjoint the (A, T) state is
    q^-k sum_t chi_u(t) g_u(a + tG) |a>|t> / sqrt(P_acc) before T's inverse
    transform, and transforming A gives
    q^-k chi(<u - G x^T, t>) ghat_u(x) / sqrt(P_acc). The phase has unit
    modulus, so summing over t returns the same A marginal |Fhat_u(x)|^2.
    p_u is that marginal's mass on {x in T : G x^T = u}.

    P_acc equals mean_s p_s algebraically; p_dec is still taken from
    `per_message_success`, an independent enumeration, so acceptance
    minus p_dec remains a check.
    """
    _check_inputs(code, profile, constraints)
    q, n, k = code.q, code.n, code.k
    require_budget(q**n, budget)
    symmetrized, p_dec = _decide_symmetrization(decoder, profile, None, budget)
    table = decoder.table(budget)
    field_q = PrimeField(q)
    ys = all_vectors(q, n)
    decoded = all_vectors(q, k)[table]
    residual = ((ys - code.codewords()[table]) % q) @ radix_weights(q, n)
    accepted = profile.amplitudes(budget)[residual]
    norm_sq = float(np.vdot(accepted, accepted).real)
    post_select_prob = norm_sq / q**k
    accepted /= math.sqrt(norm_sq)
    dual_idx = syndrome(code, ys, "dual") @ radix_weights(q, k)

    masks = [c.membership_mask(budget) for c in constraints]
    etas = [tail_mass(profile, c.tau_tilde)[0] for c in constraints]
    out: list[list[ReductionOutcome]] = [[] for _ in constraints]
    for u_idx, u_vec in enumerate(all_vectors(q, k)):
        phases = np.conj(field_q.roots_of_unity[(decoded @ u_vec) % q])
        marginal = np.abs(fourier_transform(field_q, phases * accepted, budget)) ** 2
        on_coset = dual_idx == u_idx
        for c_i, (mask, eta) in enumerate(zip(masks, etas)):
            p_u = float(marginal[mask & on_coset].sum())
            out[c_i].append(ReductionOutcome(
                q=q, n=n, k=k, u=tuple(int(x) for x in u_vec),
                tau_tilde=constraints[c_i].tau_tilde, p_u=p_u,
                post_select_prob=post_select_prob, p_dec=p_dec, eta=eta,
                bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized))
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
    p_dec = first.p_dec if p_dec is None else p_dec
    eta = first.eta if eta is None else eta
    mean_p = float(np.mean([o.p_u for o in outcomes]))
    bound = success_lower_bound(p_dec, eta)
    slack = mean_p - bound
    return BoundReport(n_outcomes=len(outcomes), mean_p=mean_p, p_dec=p_dec,
                       eta=eta, bound=bound, slack=slack,
                       ok=slack >= -TOL.bound_slack)
