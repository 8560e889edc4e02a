"""Exact dense simulation of the decoder-driven coset-state reduction.

The algorithm simulated here, for a code C with k x n generator G, an error
profile f, a total deterministic decoder D, and a target dual syndrome u:

1. prepare (1/sqrt(q^k)) sum_s chi_{-u}(s) |psi_s>_A |0>_B |s>_C with
   |psi_s> = sum_e f(e) |sG + e>,
2. apply the decoder map U: |y>_A |t>_B -> |y>_A |t + D(y)>_B, then
   subtract B from C,
3. measure C, keep the outcome 0 (probability recorded; the retry loop is
   replaced by exact conditioning on the accepting branch),
4. apply U's adjoint,
5. Fourier-transform register A and read its outcome distribution.

The success figure p_u is the final A-mass on the dual coset of u
intersected with the constraint set T. Every dense index, of registers,
residuals and dual syndromes, comes from `galois.index_of_vector`.

The success bound's proof symmetrizes the decoder map when the decoder's
per-message success probabilities p_s are not all equal (the all-zeros
failure sentinel breaks shift covariance), so that its diagonal amplitudes
are a uniform sqrt(mean_s p_s). Symmetrizing changes neither P_acc nor p_u
(derivation in `run_reduction_sweep`), so both engines run U, and the
`symmetrized` field of an outcome reports only whether the proof's rule, a
spread of p_s above `TOL.gamma_spread`, calls for it. The tests build the
symmetrized map from its definition and check that claim
(`tests/oracles.py`).

Two engines compute identical outcomes:

- `run_reduction` walks the five steps literally for one syndrome (the
  reference engine), checking norms at every step. U never touches the
  message copy C, so each C = s block evolves alone: it is one column,
  w_s |psi_s> at B = 0, and it keeps only the words y with D(y) = s, the
  ones U sends to its B = s slice, which keeping C = 0 keeps. Each y is
  kept by one block, so the accepted state is one amplitude per received
  word: O(q^n) memory.
- `run_reduction_sweep` evaluates the closed form of the accepted state.
  Step 3 keeps exactly the branch s = D(y) and step 4 returns B to |0>, so
  register A holds F_u(y) = chi_{-u}(D(y)) f(y - D(y)G), normalized. On the
  dual coset of u, where p_u is read, its transform is that of f N, with
  N(e) = #{y : y - D(y)G = e} the residual histogram of the decoder table:
  one q^n transform serves every syndrome, in O(q^n) memory. Its result
  for each constraint set is a `SweepResult`: every p_u as one array in
  message-index order, and the values all syndromes share stored once.
  `verify_bound` compares the mean of that array with the bound.

Each fact of a run has one owner: the code is the decoder's, and the error
profile is the constraint sets' (one profile, shared by every set). Each
engine checks its stated peak (`require_peak`) and then builds the decoder
table, which checks its build's; the helpers they call take no budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .codes import LinearCode
from .config import TOL, require_budget
from .decode import _BaseDecoder, _message_success, per_message_success, residual_index
from .galois import fourier_transform, index_of_vector, vector_of_index
from .noise import ConstraintSet, ErrorProfile, tail_mass

__all__ = [
    "ReductionOutcome",
    "BoundReport",
    "SweepResult",
    "require_peak",
    "success_lower_bound",
    "run_reduction",
    "run_reduction_sweep",
    "verify_bound",
]

COMPLEX_BYTES = 16
INDEX_BYTES = 8


# ---- the decoder map -----------------------------------------------------------


def _kept_blocks(code: LinearCode, profile: ErrorProfile, weights: np.ndarray,
                 table: np.ndarray):
    """Yield (s, column, kept, source) for every message s, one block at a
    time. The block w_s |psi_s>_A |0>_B is one column of shape (q^n,). U
    sends (y, 0) to the B = s slice exactly when D(y) = s, so each y is
    kept by one block: block s keeps its column's amplitudes `kept` at the
    words `source` where the decoder table is s. The amplitude of |psi_s>
    at y is f(y - sG), the Kronecker product of the profile's rows u_i
    shifted by the codeword coordinates c_{s,i}."""
    q = profile.q
    for s_idx, (weight, codeword) in enumerate(zip(weights, code.codewords())):
        column = reduce(np.multiply.outer, [row[(np.arange(q) - c) % q]
                                            for row, c in zip(profile.u, codeword)],
                        np.ones(())).reshape(-1)
        column *= weight
        source = np.flatnonzero(table == s_idx)
        kept = column[source]
        yield s_idx, column, kept, source
        del column, source, kept  # before the next block's are built


def _dual_index(code: LinearCode) -> np.ndarray:
    """Index of the dual syndrome G y^T of every received word y, read off
    the (q,)*n grid."""
    axes = np.ogrid[(slice(code.q),) * code.n]
    return index_of_vector((sum(g * y for g, y in zip(row, axes)) for row in code.G),
                           code.q).reshape(-1)


# ---- outcomes ----------------------------------------------------------------


def success_lower_bound(p_dec: float, eta: float) -> float:
    """Lower bound p_dec (1 - eta) - 2 sqrt(eta p_dec (1 - p_dec)) on the
    mean success probability over syndromes."""
    return p_dec * (1.0 - eta) - 2.0 * math.sqrt(
        max(eta * p_dec * (1.0 - p_dec), 0.0))


@dataclass
class ReductionOutcome:
    """One syndrome's outcome. `symmetrized` reports the success bound's
    p_s rule (`_decide_symmetrization`); no engine runs another map."""
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
    # the reference engine's residuals; a sweep outcome holds their exact values
    max_norm_drift: float = 0.0
    marginal_mass: float = 1.0

    @property
    def slack(self) -> float:
        return self.p_u - self.bound


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
        return asdict(self)


@dataclass(frozen=True)
class SweepResult:
    """Every dual syndrome's outcome for one constraint set. p_u[j] is the
    success probability of syndrome j, u = vector_of_index(j, q, k), and
    the rest, shared by every syndrome, is stored once. result[j] builds
    syndrome j's `ReductionOutcome`, the form `run_reduction` returns;
    `simulate` writes its rows from p_u and the shared values instead.
    `symmetrized` reports the success bound's p_s rule."""
    q: int
    n: int
    k: int
    tau_tilde: float
    p_u: np.ndarray = field(repr=False)
    post_select_prob: float
    p_dec: float
    eta: float
    bound: float
    symmetrized: bool

    def __len__(self) -> int:
        return len(self.p_u)

    def __getitem__(self, j: int) -> ReductionOutcome:
        j = range(len(self))[j]  # IndexError past the end stops iteration
        return ReductionOutcome(
            q=self.q, n=self.n, k=self.k,
            u=tuple(vector_of_index(j, self.q, self.k).tolist()),
            tau_tilde=self.tau_tilde, p_u=float(self.p_u[j]),
            post_select_prob=self.post_select_prob, p_dec=self.p_dec,
            eta=self.eta, bound=self.bound, symmetrized=self.symmetrized)


def _check_inputs(code: LinearCode, constraints: list[ConstraintSet]) -> ErrorProfile:
    """The constraints' one error profile, whose (q, n) must be the code's."""
    if not constraints:
        raise ValueError("no constraint sets given")
    profile = constraints[0].profile
    if profile.q != code.q or profile.n != code.n:
        raise ValueError("profile and code must share q and n")
    key = (profile.q, profile.n, profile.sets, profile.tau)
    for c in constraints:
        if (c.profile.q, c.profile.n, c.profile.sets, c.profile.tau) != key:
            raise ValueError("constraint was built for a different profile")
    return profile


def _decide_symmetrization(p_s: np.ndarray) -> tuple[bool, float]:
    """(symmetrized?, p_dec) from the per-message success p_s: the success
    bound's proof symmetrizes the map when the spread of p_s exceeds
    TOL.gamma_spread, which changes no number the engines compute. p_dec
    is mean_s p_s."""
    return float(p_s.max() - p_s.min()) > TOL.gamma_spread, float(p_s.mean())


# ---- reference engine: one syndrome, one message-copy block at a time ---------


def _reference_peak_bytes(q: int, n: int, k: int) -> int:
    """Peak bytes of `run_reduction`, set while the blocks stream: per
    received word the int64 table, the complex state and a block's mask;
    a block's column and, for its at most one kept word, the position and
    value, with the column's build (its last factor and numpy's two
    broadcast buffers), 64 bytes. p_s's residual index (five int64 arrays)
    and step 5 (two states, the transform's scratch slice of 1/q of one,
    then the marginal and the dual index) hold less. Beside them, per
    message, its codeword and message rows and four scalars, and 16 KiB."""
    return (q**n * (INDEX_BYTES + COMPLEX_BYTES + 1 + 4 * COMPLEX_BYTES)
            + q**k * (n + k + 4) * INDEX_BYTES + 2**14)


def run_reduction(decoder: _BaseDecoder, u: np.ndarray,
                  constraint: ConstraintSet, *, budget: int | None = None) -> ReductionOutcome:
    """Run the five-step reduction for one dual syndrome u, densely, for
    the decoder's code and the constraint's profile.

    Steps 1-2 stream over the message copy C. U acts on (A, B) only, so
    each C = s block of the prepared state evolves alone; C -= B moves its
    B = b slice to C = s - b, so keeping C = 0 keeps b = s. Each block is
    one column, w_s |psi_s> at B = 0, and U sends (y, 0) to (y, D(y)), so
    block s keeps its column at the words y with D(y) = s, and each y is
    kept by one block (`_kept_blocks`). The accepted state is one (q^n,)
    array: entry y holds the amplitude of (y, D(y)), the amplitudes of
    mapping whole blocks bit for bit. U permutes basis states, so the
    step-2 norm is the step-1 norm, that of the columns. Step 4's adjoint
    returns each amplitude to (y, 0), where the array already holds it, so
    steps 4 and 5 hold the A state alone.

    The budget counts 16-byte amplitudes of the stated peak
    (`_reference_peak_bytes`), checked before the decoder table is built.
    `symmetrized` reports the success bound's p_s rule, as the sweep does.
    """
    code = decoder.code
    q, n, k = code.q, code.n, code.k
    u = np.asarray(u, dtype=np.int64) % q
    if u.shape != (k,):
        raise ValueError(f"u must have length {k}")
    profile = _check_inputs(code, [constraint])
    require_peak(q, n, k, budget, reference=True)
    table = decoder.table(budget)  # built under this budget; the readers below reuse it
    symmetrized, p_dec = _decide_symmetrization(per_message_success(decoder, profile))

    # steps 1-2: superposed shifted error states, one C = s block at a time
    weights = np.conj(code.field.roots_of_unity[(code.messages() @ u) % q]) / math.sqrt(q**k)
    accepted = np.zeros(q**n, dtype=np.complex128)  # at each received word y
    norm_sq = 0.0
    for _, column, kept, source in _kept_blocks(code, profile, weights, table):
        norm_sq += float(np.vdot(column, column).real)
        accepted[source] = kept
        del column, kept, source  # before the next block's are built
    norms = [math.sqrt(norm_sq)]  # of steps 1 and 2 both

    # step 3: measure the message copy, keep outcome 0, renormalize
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted *= 1 / math.sqrt(post_select_prob)  # numpy's division by a real d, bit for bit

    # step 4: the adjoint returns each amplitude to (y, 0), where it is stored
    norms.append(float(np.linalg.norm(accepted)))

    # step 5: Fourier transform register A, read its marginal
    accepted = fourier_transform(code.field, accepted)
    norms.append(float(np.linalg.norm(accepted)))
    marginal = np.abs(accepted) ** 2

    on_coset = _dual_index(code) == index_of_vector(u, q)
    p_u = float(marginal[constraint.membership_mask() & on_coset].sum())

    eta, _ = tail_mass(profile, constraint.tau_tilde)
    return ReductionOutcome(
        q=q, n=n, k=k, u=tuple(int(x) for x in u),
        tau_tilde=constraint.tau_tilde, p_u=p_u,
        post_select_prob=post_select_prob, p_dec=p_dec, eta=eta,
        bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized,
        max_norm_drift=max(abs(x - 1.0) for x in norms),
        marginal_mass=float(marginal.sum()))


# ---- sweep engine: all syndromes from the closed form --------------------------


def _sweep_peak_bytes(q: int, n: int, k: int) -> int:
    """Peak bytes of `run_reduction_sweep` with one constraint set: the
    larger of its two phases, plus 64 KiB of overhead and numpy's two
    buffers for the broadcast product that builds f, of at most 8192
    complex entries each. At the transform, per received word, the int64
    table, f N, its transform and a scratch slice of 1/q of it, at most 48
    bytes (f and the histogram are freed into f N, and the transform into
    the float marginal before the dual index is built); per message, p_s
    and p_u. While the residual index is built, per received word the table
    and four int64 arrays; per message, two int64 codeword rows, which also
    cover the message rows they are built from. The decoder checks its
    table build's peak itself."""
    transform = (q**n * (INDEX_BYTES + 2 * COMPLEX_BYTES) + q ** (n - 1) * COMPLEX_BYTES
                 + q**k * 2 * INDEX_BYTES)
    residual = q**n * 5 * INDEX_BYTES + q**k * 2 * n * INDEX_BYTES
    return max(transform, residual) + 2**16 + 2 * min(q**n, 8192) * COMPLEX_BYTES


def require_peak(q: int, n: int, k: int, budget: int | None = None, *,
                 reference: bool = False) -> None:
    """Raise BudgetError unless an engine's stated peak in 16-byte amplitudes
    fits the budget: `run_reduction`'s if reference, else
    `run_reduction_sweep`'s. The CLI calls it before it builds a code."""
    peak = _reference_peak_bytes(q, n, k) if reference else _sweep_peak_bytes(q, n, k)
    require_budget(-(-peak // COMPLEX_BYTES), budget)


def run_reduction_sweep(decoder: _BaseDecoder, constraints: list[ConstraintSet], *,
                        budget: int | None = None) -> list[SweepResult]:
    """Every dual syndrome's outcome, one `SweepResult` per constraint set,
    for the decoder's code and the constraints' one profile.

    One q^n transform serves every syndrome. The budget counts the 16-byte
    amplitudes of the stated peak (`_sweep_peak_bytes`), checked before any
    decoder table is built; a fresh table is built only if its own stated
    peak fits the budget too.

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
    dual-syndrome class of T: one `bincount` gives all of them.

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
    code = decoder.code
    profile = _check_inputs(code, constraints)
    q, n, k = code.q, code.n, code.k
    require_peak(q, n, k, budget)
    table = decoder.table(budget)
    residual = residual_index(code, table)
    symmetrized, p_dec = _decide_symmetrization(_message_success(code, profile, table, residual))
    histogram = np.bincount(residual, minlength=q**n).astype(np.float64)
    del residual  # each array is freed before the larger ones that follow it
    f = profile.amplitudes()
    weights = np.abs(f)
    weights *= weights
    norm_sq = float(histogram @ weights)
    del weights
    f *= histogram  # f N, in f's buffer
    del histogram
    spectrum = fourier_transform(code.field, f)
    del f
    marginal = np.abs(spectrum)
    del spectrum
    marginal *= marginal
    marginal /= norm_sq
    dual_idx = _dual_index(code)

    results = []
    for c in constraints:
        mask = c.membership_mask()
        eta = tail_mass(profile, c.tau_tilde)[0]
        results.append(SweepResult(
            q=q, n=n, k=k, tau_tilde=c.tau_tilde,
            p_u=np.bincount(dual_idx, weights=np.where(mask, marginal, 0.0), minlength=q**k),
            post_select_prob=norm_sq / q**k, p_dec=p_dec, eta=eta,
            bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized))
    return results


def verify_bound(result: SweepResult) -> BoundReport:
    """The mean of p_u over every dual syndrome against the lower bound."""
    mean_p = float(np.mean(result.p_u))
    slack = mean_p - result.bound
    return BoundReport(n_outcomes=len(result), mean_p=mean_p, p_dec=result.p_dec,
                       eta=result.eta, bound=result.bound, slack=slack,
                       ok=slack >= -TOL.bound_slack)
