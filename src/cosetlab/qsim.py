"""Exact dense simulation of the decoder-driven coset-state reduction.

The algorithm simulated here, for a code C with k x n generator G, an error
profile f, a total deterministic decoder D, and a target dual syndrome u:

1. prepare (1/sqrt(q^k)) sum_s chi_{-u}(s) |psi_s>_A |0>_B |s>_C with
   |psi_s> = sum_e f(e) |sG + e>,
2. apply the decoder map U: |y>_A |t>_B -> |y>_A |t + D(y)>_B (or its
   symmetrized form, see below), then subtract B from C,
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
sqrt(mean_s p_s), which the success-bound machinery requires. U is U'
with a one-entry T, so one pair of arrays runs both: the transform on T
(`_fourier_t`), and the label s = D(a + tG) - t of each (a, t)
(`_labels`), the B coordinate of the image of (a, 0, t); past the
transform U' moves B by b, so the labels fix it. Every dense index, of
registers, residuals and dual syndromes, comes from
`galois.index_of_vector`.

Two engines compute identical outcomes:

- `run_reduction` walks the five steps literally for one syndrome (the
  reference engine), checking norms at every step. U' never touches the
  message copy C, so each C = s block evolves alone: it is one column,
  w_s |psi_s> at B = 0 and T = 0, and it keeps only the positions of its
  B = s slice, which keeping C = 0 keeps. Each (a, t) is kept by one
  block, so the accepted state is one amplitude per (a, t), stored at its
  source: O(q^(n+k)) memory symmetrized, O(q^n) plain.
- `run_reduction_sweep` evaluates the closed form of the accepted state.
  Step 3 keeps exactly the branch s = D(y) and step 4 returns B to |0>, so
  register A holds F_u(y) = chi_{-u}(D(y)) f(y - D(y)G), normalized. On the
  dual coset of u, where p_u is read, its transform is that of f N, with
  N(e) = #{y : y - D(y)G = e} the residual histogram of the decoder table:
  one q^n transform serves every syndrome, in O(q^n) memory.
  Symmetrization changes the diagonal gammas but not P_acc or the A
  marginal (derivation in `run_reduction_sweep`). Its result for each
  constraint set is a `SweepResult`: every p_u as one array in
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
from .galois import PrimeField, fourier_transform, index_of_vector, vector_of_index
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


def _labels(decoder: _BaseDecoder, symmetrized: bool) -> np.ndarray:
    """U' as one (q^n, width) array: entry (a, t) is the B label
    s = D(a + tG) - t of the image of (a, 0, t), the message block that
    keeps it. width is q^k symmetrized and 1 plain, whose one shift is
    t = 0. On the (A, T) grid: the index of a + tG, its table entry, then
    s read off the messages' subtraction table."""
    code = decoder.code
    q, n, k = code.q, code.n, code.k
    table = decoder.table()
    if table.shape != (q**n,):
        raise ValueError("decoder table must cover every received word")
    axes = np.ogrid[(slice(q),) * (n + (k if symmetrized else 0))]
    a, t = axes[:n], axes[n:]
    lift = t or (0,) * k
    a_image = [a_i + sum(t_j * g for t_j, g in zip(lift, column))
               for a_i, column in zip(a, code.G.T)]
    messages = code.messages()
    shifts = np.arange(q**k if symmetrized else 1)  # T holds message t
    minus = index_of_vector(np.moveaxis(messages[:, None] - messages[shifts], -1, 0), q)
    return minus[table[index_of_vector(a_image, q).reshape(-1, shifts.size)], shifts]


def _fourier_t(field: PrimeField, coords: int) -> np.ndarray:
    """Unitary transform on T, the Kronecker product over its `coords`
    coordinates: [[1]] for the plain map's one shift."""
    return reduce(np.kron, [field.fourier_matrix] * coords, np.ones((1, 1)))


def _kept_blocks(code: LinearCode, profile: ErrorProfile, weights: np.ndarray,
                 labels: np.ndarray, first: np.ndarray):
    """Yield (s, column, kept, source) for every message s, one block at a
    time. The block w_s |psi_s>_A |0>_B |0>_T is one column of shape
    (q^n,), and U' is fed it past the transform on T: column times the
    transform's first column `first`, on the (A, T) grid. U' sends (a, 0, t)
    to the B = s slice exactly when its label is s, so each (a, t) is kept
    by one block: block s keeps the fed amplitudes `kept` at the flat (A, T)
    positions `source` where the label is s. The amplitude of |psi_s> at y
    is f(y - sG), the Kronecker product of the profile's rows u_i shifted
    by the codeword coordinates c_{s,i}."""
    q, width = profile.q, labels.shape[1]
    for s_idx, (weight, codeword) in enumerate(zip(weights, code.codewords())):
        column = reduce(np.multiply.outer, [row[(np.arange(q) - c) % q]
                                            for row, c in zip(profile.u, codeword)],
                        np.ones(())).reshape(-1)
        column *= weight
        source = np.flatnonzero(labels == s_idx)
        kept = column[source // width]
        kept *= first[source % width]
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
    `simulate` writes its rows from p_u and the shared values instead."""
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


def _decide_symmetrization(p_s: np.ndarray, force: bool | None) -> tuple[bool, float]:
    """(symmetrize?, p_dec) from the per-message success p_s: symmetrize when
    its spread exceeds TOL.gamma_spread, unless forced. p_dec is mean_s p_s."""
    spread = float(p_s.max() - p_s.min())
    needed = spread > TOL.gamma_spread if force is None else force
    return needed, float(p_s.mean())


# ---- reference engine: one syndrome, one message-copy block at a time ---------


def _reference_peak_bytes(q: int, n: int, k: int, symmetrized: bool) -> int:
    """Peak bytes of `run_reduction`, the largest of three phases, with the
    state stored on the (A[, T]) grid. While blocks stream: per entry the
    complex state, the int64 labels and a block's mask; per received word
    a block's column and, for its at most one kept (a, t), the position,
    value and two gathered factors, 64 bytes, which also cover the
    column's build (its last factor and numpy's two broadcast buffers).
    The labels are built first, in four int64 arrays at most.
    Step 5 holds two states and the transform's scratch slice of 1/q,
    which covers step 4's two states. Beside them 16 bytes per received
    word (the table), 64 per entry of q^(2k)-entry tables, and 16 KiB."""
    entries = q**n * (q**k if symmetrized else 1)
    streaming = entries * (COMPLEX_BYTES + INDEX_BYTES + 1) + q**n * 4 * COMPLEX_BYTES
    transform = entries * 2 * COMPLEX_BYTES + entries // q * COMPLEX_BYTES
    return (max(streaming, entries * 4 * INDEX_BYTES, transform)
            + q**n * 16 + q ** (2 * k) * 64 + 2**14)


def run_reduction(decoder: _BaseDecoder, u: np.ndarray,
                  constraint: ConstraintSet, *, budget: int | None = None,
                  force_symmetrize: bool | None = None) -> ReductionOutcome:
    """Run the five-step reduction for one dual syndrome u, densely, for
    the decoder's code and the constraint's profile.

    Steps 1-2 stream over the message copy C. U' acts on (A, B[, T]) only,
    so each C = s block of the prepared state evolves alone; C -= B moves
    its B = b slice to C = s - b, so keeping C = 0 keeps b = s. Each block
    is one column, w_s |psi_s> at B = 0 and T = 0: U' is fed it past the
    transform on T and sends (a, 0, t) to the B = s slice exactly when the
    label of (a, t) is s, so each (a, t) is kept by one block
    (`_kept_blocks`). The accepted state is stored at the sources: entry
    (a, t) of a (q^n, width) array holds the amplitude of the basis state
    (a, 0, t) is mapped to, the amplitudes of mapping whole blocks bit for
    bit. The step-1 and step-2 norms are those of the columns and of the
    slices U' is fed. Step 4's adjoint returns each amplitude to (a, 0, t)
    and inverts the transform on T, one product by a width x width matrix:
    q^(n+2k) multiply-adds when symmetrized, against n q^(n+k+1) for step
    5's transform on A. Every entry off B = 0 is then zero, so steps 4 and
    5 hold the (A[, T]) state alone.

    The budget counts 16-byte amplitudes of the stated peak
    (`_reference_peak_bytes`, for the symmetrized map unless
    force_symmetrize is False), checked before the decoder table is built.
    """
    code = decoder.code
    q, n, k = code.q, code.n, code.k
    u = np.asarray(u, dtype=np.int64) % q
    if u.shape != (k,):
        raise ValueError(f"u must have length {k}")
    profile = _check_inputs(code, [constraint])
    require_peak(q, n, k, budget, reference=True, symmetrized=force_symmetrize is not False)
    decoder.table(budget)  # built under this budget; the readers below reuse it
    symmetrized, p_dec = _decide_symmetrization(
        per_message_success(decoder, profile), force_symmetrize)
    labels = _labels(decoder, symmetrized)  # before the state is allocated
    fourier_t = _fourier_t(code.field, k if symmetrized else 0)

    # steps 1-2: superposed shifted error states, one C = s block at a time
    weights = np.conj(code.field.roots_of_unity[(code.messages() @ u) % q]) / math.sqrt(q**k)
    accepted = np.zeros(labels.shape, dtype=np.complex128)  # at each source (a, t)
    norm_sq = 0.0
    for _, column, kept, source in _kept_blocks(code, profile, weights, labels, fourier_t[:, 0]):
        norm_sq += float(np.vdot(column, column).real)
        accepted.reshape(-1)[source] = kept
        del column, kept, source  # before the next block's are built
    del labels
    norm = math.sqrt(norm_sq)  # U' is fed each column times the transform's first column
    norms = [norm, norm * float(np.linalg.norm(fourier_t[:, 0]))]

    # step 3: measure the message copy, keep outcome 0, renormalize
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted *= 1 / math.sqrt(post_select_prob)  # numpy's division by a real d, bit for bit

    # step 4: the adjoint returns each amplitude to (a, 0, t), then inverts
    # the transform on T
    accepted = accepted @ fourier_t.conj()
    norms.append(float(np.linalg.norm(accepted)))

    # step 5: Fourier transform register A, read its marginal
    accepted = fourier_transform(code.field, accepted)
    norms.append(float(np.linalg.norm(accepted)))
    marginal = (np.abs(accepted) ** 2).sum(axis=1)

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
                 reference: bool = False, symmetrized: bool = True) -> None:
    """Raise BudgetError unless an engine's stated peak in 16-byte amplitudes
    fits the budget: `run_reduction`'s (plain or symmetrized) if reference,
    else `run_reduction_sweep`'s. The CLI calls it before it builds a code."""
    peak = (_reference_peak_bytes(q, n, k, symmetrized) if reference
            else _sweep_peak_bytes(q, n, k))
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
    symmetrized, p_dec = _decide_symmetrization(
        _message_success(code, profile, table, residual), None)
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
