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
with a one-entry T, so one `DecoderMap` runs both: a transform on T, then
a permutation by an image index read off the register grid. Every dense
index, of registers, residuals and dual syndromes, comes from
`galois.index_of_vector`.

Two engines compute identical outcomes:

- `run_reduction` walks the five steps literally for one syndrome (the
  reference engine), checking norms at every step. U' never touches the
  message copy C, so each C = s block evolves alone: it is one column,
  w_s |psi_s> at B = 0 and T = 0, and it writes only the positions of its
  B = s slice, which keeping C = 0 keeps. That is O(q^(n+2k)) memory and
  work, but for the transforms.
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
from .galois import fourier_transform, index_of_vector, vector_of_index
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

    U' acts on (A, B, T): Fourier-transform T, then |a, b, t> -> |a + tG,
    b + D(a + tG) - t, t>, that is add tG to A, run U and subtract t from B.
    U' makes the diagonal amplitudes uniform: every gamma'_{s,s} equals
    sqrt(mean_s p_s), real nonnegative. The plain U, |a, b> -> |a, b + D(a)>,
    is U' with a T of `width` 1 (q^k when symmetrized), left out of `shape`,
    whose transform is [[1]]. Past the transform the map is one permutation,
    by the flat index of each basis state's image, read off the register
    grid once: the map scatters by it and its adjoint gathers by it.
    """

    def __init__(self, decoder: _BaseDecoder, symmetrized: bool = False):
        code = self.code = decoder.code
        self._t_coords = code.k if symmetrized else 0  # coordinates of T
        self.width = code.q**self._t_coords
        self.shape = (code.q**code.n, code.q**code.k) + ((self.width,) if symmetrized else ())
        self.table = decoder.table()
        if self.table.shape != self.shape[:1]:
            raise ValueError("decoder table must cover every received word")

    @cached_property
    def image(self) -> np.ndarray:
        """Flat image index of every basis state, checked once to be a
        permutation, so that the map keeps every norm (ValueError if not):
        `size` entries in range that hit every position."""
        index, size = self._image_index(), math.prod(self.shape)
        hit = np.zeros(size, dtype=bool)
        if index.shape == (size,) and 0 <= index.min() and index.max() < size:
            hit[index] = True
        if not hit.all():
            raise ValueError("decoder map is not a permutation of basis states")
        return index

    def _image_index(self) -> np.ndarray:
        """U' sends |a, b, t> to |a + tG, b + D(a + tG) - t, t>, and U is
        its t = 0 case. On the (A, T) grid, (a, 0, t) goes to (a + tG, s, t)
        with s = D(a + tG) - t; adding b to B moves s to b + s, one row of
        the messages' addition table per b."""
        code = self.code
        q, n, k = code.q, code.n, code.k
        axes = np.ogrid[(slice(q),) * (n + self._t_coords)]
        a, t = axes[:n], axes[n:]
        lift = t or (0,) * k
        a_image = [a_i + sum(t_j * g for t_j, g in zip(lift, column))
                   for a_i, column in zip(a, code.G.T)]
        messages, grid = code.messages().T, (self.shape[0], self.width)
        decoded = self.table[index_of_vector(a_image, q)]  # D(a + tG), one per (a, t)
        kept_by = index_of_vector([column[decoded] - t_j for column, t_j in zip(messages, lift)],
                                  q).reshape(grid)  # s = D(a + tG) - t
        base = index_of_vector([*a_image, *(0,) * k, *t], q).reshape(grid)  # B = 0
        sums = index_of_vector(messages[:, :, None] + messages[:, None, :], q)
        image = np.empty((grid[0], self.shape[1], grid[1]), dtype=np.int64)
        for b, row in enumerate(sums * self.width):  # B's place value
            np.add(base, row[kept_by], out=image[:, b])
        return image.reshape(-1)

    @cached_property
    def _fourier_t(self) -> np.ndarray:
        """Unitary transform on T, the Kronecker product over its coordinates."""
        return reduce(np.kron, [self.code.field.fourier_matrix] * self._t_coords,
                      np.ones((1, 1)))

    def apply(self, state: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Apply to a state of shape `shape`, or any reshape of it, never
        written to. The transform on T is symmetric, so the adjoint's is its
        conjugate: the adjoint gathers one q^k-th of the result at a time and
        writes its transform into place."""
        if adjoint:
            flat, out = state.reshape(-1), np.empty(state.size, dtype=np.complex128)
            inverse_t, chunks = self._fourier_t.conj(), (self.shape[1], -1, self.width)
            for chunk, index in zip(out.reshape(chunks), self.image.reshape(chunks)):
                np.dot(flat[index], inverse_t, out=chunk)
        else:
            flat = (state.reshape(-1, self.width) @ self._fourier_t.T).reshape(-1)
            out = np.empty_like(flat)
            out[self.image] = flat
        return out.reshape(state.shape)


def _kept_blocks(u_map: DecoderMap, profile: ErrorProfile, weights: np.ndarray):
    """Yield (s, column, fed, source, target) for every message s, one
    block at a time. The block w_s |psi_s>_A |0>_B |0>_T is one column of
    shape (q^n, 1), and fed the (A, T) slice U' sees past the transform on
    T: column times the transform's first row. The map sends (a, 0, t) to
    the B = s slice exactly when D(a + tG) - t = s, so each (a, t) of that
    slice is kept by one block: block s writes fed's flat positions
    `source`, where that holds, to the flat state positions `target`. The
    amplitude of |psi_s> at y is f(y - sG), the Kronecker product of the
    profile's rows u_i shifted by the codeword coordinates c_{s,i}."""
    q, size_b, width = profile.q, u_map.shape[1], u_map.width
    images = u_map.image.reshape(-1, size_b, width)[:, 0].reshape(-1)  # of B = 0
    blocks = images // width % size_b
    for s_idx, (weight, codeword) in enumerate(zip(weights, u_map.code.codewords())):
        column = weight * reduce(np.multiply.outer, [row[(np.arange(q) - c) % q]
                                                     for row, c in zip(profile.u, codeword)],
                                 np.ones(())).reshape(-1, 1)
        source = np.flatnonzero(blocks == s_idx)
        yield s_idx, column, column @ u_map._fourier_t.T[:1], source, images[source]


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
    """Peak bytes of `run_reduction`, the larger of two phases. While blocks
    stream: the accepted complex (A, B[, T]) state, the int64 image index
    and 8 complex values per entry of the (A[, T]) slice a block is fed, of
    which at most 113 bytes are held (B = 0's images and block labels, 16;
    two blocks' columns and fed slices, 64; a mask, 1; two blocks' kept
    positions, targets and values, 32). The index is built and checked
    before the state exists, in 9 bytes per entry and a few slice-sized
    arrays. At step 4: two complex states (the input and the adjoint's
    result), the index and the adjoint's gathered chunk, 1/q^k of a state.
    Step 5 holds less, as the index is freed first: two states and the
    transform's scratch slice of 1/q, at most 40 bytes per entry. Beside
    them 64 bytes per entry of q^n- and q^(2k)-entry tables, and 32 KiB."""
    entries = q ** (n + (2 if symmetrized else 1) * k)
    kept = entries // q**k
    streaming = entries * (COMPLEX_BYTES + INDEX_BYTES) + kept * 8 * COMPLEX_BYTES
    adjoint = entries * (2 * COMPLEX_BYTES + INDEX_BYTES) + kept * COMPLEX_BYTES
    return max(streaming, adjoint) + (q**n + q ** (2 * k)) * 64 + 2**15


def run_reduction(decoder: _BaseDecoder, u: np.ndarray,
                  constraint: ConstraintSet, *, budget: int | None = None,
                  force_symmetrize: bool | None = None) -> ReductionOutcome:
    """Run the five-step reduction for one dual syndrome u, densely, for
    the decoder's code and the constraint's profile.

    Steps 1-2 stream over the message copy C. U' acts on (A, B[, T]) only,
    so each C = s block of the prepared state evolves alone; C -= B moves
    its B = b slice to C = s - b, so keeping C = 0 keeps b = s. Each block
    is one column, w_s |psi_s> at B = 0 and T = 0: U' is fed it past the
    transform on T, and the block writes the positions of the B = s slice
    it keeps into a zeroed state (`_kept_blocks`), the amplitudes of
    mapping whole blocks bit for bit, in O(q^(n+2k)) work and memory. The
    step-1 and step-2 squared norms sum the columns and the slices U' is
    fed. Steps 3-5 run on the accepted (A, B[, T]) state: step 4 gathers by
    the image index and inverts the transform on T, a q^k x q^k product per
    (A, B) row when symmetrized: q^(n+3k) multiply-adds, against
    n q^(n+2k+1) for step 5's transform on A.

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
    u_map.image  # built and checked before the state is allocated

    # steps 1-2: superposed shifted error states, one C = s block at a time
    weights = np.conj(code.field.roots_of_unity[(code.messages() @ u) % q]) / math.sqrt(q**k)
    accepted = np.zeros(u_map.shape, dtype=np.complex128)
    norms_sq = [0.0, 0.0]
    for _, column, fed, source, target in _kept_blocks(u_map, profile, weights):
        norms_sq[0] += float(np.vdot(column, column).real)
        norms_sq[1] += float(np.vdot(fed, fed).real)
        accepted.reshape(-1)[target] = fed.reshape(-1)[source]
    del column, fed, source, target  # the last block's, freed before step 4's peak
    norms = [math.sqrt(x) for x in norms_sq]

    # step 3: measure the message copy, keep outcome 0, renormalize
    post_select_prob = float(np.vdot(accepted, accepted).real)
    accepted *= 1 / math.sqrt(post_select_prob)  # numpy's division by a real d, bit for bit

    # step 4: adjoint decoder map; its index is freed before step 5
    accepted = u_map.apply(accepted, adjoint=True)
    del u_map
    norms.append(float(np.linalg.norm(accepted)))

    # step 5: Fourier transform register A, read its marginal
    accepted = fourier_transform(code.field, accepted)
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
