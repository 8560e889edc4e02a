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
transform on T, U and U' permute basis states: each is one `DecoderMap`,
a gather whose index is read off the register grid from the definition.
Every dense index, of registers, residuals and dual syndromes, comes from
`galois.index_of_vector`.

Two engines compute identical outcomes:

- `run_reduction` walks the five steps literally for one syndrome (the
  reference engine), checking norms at every step. U' never touches the
  message copy C, so each C = s block evolves alone and keeping C = 0 keeps
  its B = s slice. A prepared block is zero off B = 0, so U' is fed that
  slice and read on B = s alone: O(q^(n+2k)) work and memory, where
  mapping whole blocks would take O(q^(n+3k)) work. Each |psi_s> is the
  Kronecker product of the profile's rows shifted by the codeword sG.
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
from functools import cached_property, reduce

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
    "DecoderMap",
    "require_peak",
    "success_lower_bound",
    "run_reduction",
    "run_reduction_sweep",
    "verify_bound",
]

COMPLEX_BYTES = 16
INDEX_BYTES = 8


# ---- the decoder map -----------------------------------------------------------


class DecoderMap:
    """The decoder map for a total D, as a permutation of basis states.

    Plain, U acts on (A, B): |a, b> -> |a, b + D(a)>. Symmetrized, U' acts on
    (A, B, T): Fourier-transform T, then |a, b, t> -> |a + tG, b + D(a + tG)
    - t, t>, that is add tG to A, run U and subtract t from B. U' makes the
    diagonal amplitudes uniform: every gamma'_{s,s} equals sqrt(mean_s p_s),
    real nonnegative. Past the transform either map is one gather, by an
    index read off the register grid once; the adjoint scatters by it.
    """

    def __init__(self, decoder: _BaseDecoder, symmetrized: bool = False):
        code = decoder.code
        self.code, self.symmetrized = code, symmetrized
        self.shape = (code.q**code.n,) + (code.q**code.k,) * (2 if symmetrized else 1)
        self.table = decoder.table()
        if self.table.shape != self.shape[:1]:
            raise ValueError("decoder table must cover every received word")

    @cached_property
    def gather(self) -> np.ndarray:
        """Flat source index of every basis state, checked once to be a
        permutation, so that the map keeps every norm (ValueError if not)."""
        index = self._source_index()
        if not np.all(np.bincount(index, minlength=index.size) == 1):
            raise ValueError("decoder map is not a permutation of basis states")
        return index

    def _source_index(self) -> np.ndarray:
        """U's amplitude at |a, b> comes from |a, b - D(a)>, and U''s at
        |a, b, t> from |a - tG, b - D(a) + t, t>."""
        code = self.code
        q, n, k = code.q, code.n, code.k
        axes = np.ogrid[(slice(q),) * (n + k * (len(self.shape) - 1))]
        a, b, t = axes[:n], axes[n:n + k], axes[n + k:]
        lift = t or (0,) * k
        decoded = code.messages()[self.table].T.reshape(
            (k,) + (q,) * n + (1,) * (len(axes) - n))
        a_src = [a_i - sum(t_j * g for t_j, g in zip(lift, column))
                 for a_i, column in zip(a, code.G.T)]
        b_src = [b_j - d_j + t_j for b_j, d_j, t_j in zip(b, decoded, lift)]
        return index_of_vector([*a_src, *b_src, *t], q).reshape(-1)

    @cached_property
    def _fourier_t(self) -> np.ndarray:
        """Unitary transform matrix on the k-coordinate shift register T."""
        return reduce(np.kron, [PrimeField(self.code.q).fourier_matrix] * self.code.k,
                      np.ones((1, 1)))

    def apply(self, state: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Apply to a state of shape `shape`, or any reshape of it. The
        transform on T is symmetric, so the adjoint's is its conjugate."""
        flat = state.reshape(-1)
        if adjoint:
            out = np.empty_like(flat)
            out[self.gather] = flat
            if self.symmetrized:
                out = out.reshape(-1, self.shape[-1]) @ self._fourier_t.conj()
        else:
            if self.symmetrized:
                flat = (state.reshape(-1, self.shape[-1]) @ self._fourier_t.T).reshape(-1)
            out = flat[self.gather]
        return out.reshape(state.shape)

    def diagonal_gammas(self, profile: ErrorProfile) -> np.ndarray:
        """gamma_{s,s} = norm of the B=s block of U(|psi_s>|0>[|0>_T]), for all s."""
        return np.array([float(np.linalg.norm(kept)) for *_, kept
                         in _kept_slices(self, profile, np.ones(self.shape[1]))])


def _kept_slices(u_map: DecoderMap, profile: ErrorProfile, weights: np.ndarray):
    """Yield (s, prepared, fed, kept) for every message s, one block at a
    time. The block w_s |psi_s>_A |0>_B [|0>_T] is zero off B = 0: prepared
    is its (A[, T]) slice there and fed that slice past the transform on T.
    kept, the B = s slice of u_map(block), reads fed through the gather
    where the source has B = 0 and is 0 elsewhere, bit for bit. The
    amplitude of |psi_s> at y is f(y - sG), the Kronecker product of the
    profile's rows u_i shifted by the codeword coordinates c_{s,i}."""
    q, (size_a, size_b), width = profile.q, u_map.shape[:2], math.prod(u_map.shape[2:])
    sources = u_map.gather.reshape(size_a, size_b, width)
    for s_idx, (weight, codeword) in enumerate(zip(weights, u_map.code.codewords())):
        psi = reduce(np.multiply.outer, [row[(np.arange(q) - c) % q]
                                         for row, c in zip(profile.u, codeword)],
                     np.ones(())).reshape(-1)
        prepared = np.zeros((size_a, width), dtype=np.complex128)
        prepared[:, 0] = weight * psi
        fed = prepared @ u_map._fourier_t.T if u_map.symmetrized else prepared
        source = sources[:, s_idx]  # (a', b', t') as one flat index
        kept = fed.reshape(-1)[source // (size_b * width) * width + source % width]
        kept[source // width % size_b != 0] = 0
        yield s_idx, prepared, fed, kept


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
    max_norm_drift: float = 0.0
    a_marginal: np.ndarray | None = field(default=None, repr=False)

    @property
    def slack(self) -> float:
        return self.p_u - self.bound

    def to_dict(self) -> dict:
        names = ("p_u", "post_select_prob", "p_dec", "eta", "bound", "slack")
        return {"u": list(self.u), **{name: getattr(self, name) for name in names}}


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
    syndrome j's `ReductionOutcome`, the form `run_reduction` returns."""
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
    """Peak bytes of `run_reduction`, the larger of its two phases. While
    blocks stream: the accepted complex (A, B[, T]) state, the int64 gather
    and 8 complex values per entry of a block's (A[, T]) slice (prepared,
    fed and kept of two blocks, and kept's index). At step 4: three complex
    states (accepted, scattered, T-transformed) and the gather. Beside them
    64 bytes per entry of q^n- and q^(2k)-entry tables, and 64 KiB."""
    entries = q ** (n + (2 if symmetrized else 1) * k)
    streaming = entries * (COMPLEX_BYTES + INDEX_BYTES) + entries // q**k * 8 * COMPLEX_BYTES
    adjoint = entries * (3 * COMPLEX_BYTES + INDEX_BYTES)
    return max(streaming, adjoint) + (q**n + q ** (2 * k)) * 64 + 2**16


def run_reduction(decoder: _BaseDecoder, u: np.ndarray,
                  constraint: ConstraintSet, *, budget: int | None = None,
                  force_symmetrize: bool | None = None,
                  keep_marginal: bool = False) -> ReductionOutcome:
    """Run the five-step reduction for one dual syndrome u, densely, for
    the decoder's code and the constraint's profile.

    Steps 1-2 stream over the message copy C. U' acts on (A, B[, T]) only,
    so each C = s block of the prepared state evolves alone; C -= B moves
    its B = b slice to C = s - b, so keeping C = 0 keeps b = s. U' is fed
    each block's B = 0 slice, where it is nonzero, and read on the B = s
    slice it keeps (`_kept_slices`): the amplitudes of mapping the whole
    block, in O(q^(n+2k)) work and memory, where whole blocks would take
    O(q^(n+3k)) work. The step-1 and step-2 squared norms sum the prepared
    slices and the slices U' is fed, whose norm its permutation keeps.
    Steps 3-5 run on the accepted (A, B[, T]) state.

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
    u_map = DecoderMap(decoder, symmetrized)

    # steps 1-2: superposed shifted error states, one C = s block at a time
    phases = np.conj(PrimeField(q).roots_of_unity[(code.messages() @ u) % q])
    weights = phases / math.sqrt(q**k)
    accepted = np.empty(u_map.shape, dtype=np.complex128)
    norms_sq = [0.0, 0.0]
    for s_idx, prepared, fed, kept in _kept_slices(u_map, profile, weights):
        norms_sq[0] += float(np.vdot(prepared, prepared).real)
        norms_sq[1] += float(np.vdot(fed, fed).real)
        accepted.reshape(q**n, q**k, -1)[:, s_idx] = kept
    del prepared, fed, kept  # the last block's slices, freed before step 4's peak
    norms = [math.sqrt(x) for x in norms_sq]

    # step 3: measure the message copy, keep outcome 0, renormalize
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted /= math.sqrt(post_select_prob)

    # step 4: adjoint decoder map
    accepted = u_map.apply(accepted, adjoint=True)
    norms.append(float(np.linalg.norm(accepted)))

    # step 5: Fourier transform register A, read its marginal
    accepted = fourier_transform(PrimeField(q), accepted)
    norms.append(float(np.linalg.norm(accepted)))
    marginal = np.abs(accepted) ** 2
    marginal = marginal.reshape(q**n, -1).sum(axis=1)

    on_coset = _dual_index(code) == index_of_vector(u, q)
    p_u = float(marginal[constraint.membership_mask() & on_coset].sum())

    eta, _ = tail_mass(profile, constraint.tau_tilde)
    return ReductionOutcome(
        q=q, n=n, k=k, u=tuple(int(x) for x in u),
        tau_tilde=constraint.tau_tilde, p_u=p_u,
        post_select_prob=post_select_prob, p_dec=p_dec, eta=eta,
        bound=success_lower_bound(p_dec, eta), symmetrized=symmetrized,
        max_norm_drift=max(abs(x - 1.0) for x in norms),
        a_marginal=marginal if keep_marginal else None)


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
    spectrum = fourier_transform(PrimeField(q), f)
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
