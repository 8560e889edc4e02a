"""End-to-end acceptance checks, one test per criterion.

Run `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. Reference numbers are 3-decimal published threshold values;
everything else is checked against closed forms or exhaustive oracles.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cosetlab.codes import LinearCode, random_code, rs_code, syndrome
from cosetlab.decode import (BerlekampWelchDecoder, BruteForceNearestDecoder,
                             TableDecoder, per_message_success)
from cosetlab.galois import (PrimeField, fourier_transform, index_of_vector,
                             inverse_fourier_transform)
from cosetlab.noise import (ConstraintSet, build_profile,
                            center_probability_form, fourth_power_bound,
                            fourth_power_sum, interval_profile,
                            random_sets_profile, tail_mass)
from cosetlab.opi import brute_force_icc, brute_force_opi, generate_instance, \
    icc_to_opi, opi_to_icc
from cosetlab.qsim import run_reduction_sweep, verify_bound
from cosetlab.thresholds import ThresholdQuery, table1, tau_max
from oracles import (berlekamp_welch_batch, binary_threshold, diagonal_gammas, dual_code,
                     roll_per_message_success)

# ---- criterion 1: the six-row threshold table ---------------------------------

# reference cells, 3 decimals, column order (classical, bw, gs, kv)
REFERENCE_TABLE = [
    ("R=0.1", (0.55, 0.718, 0.721, 0.722)),
    ("R=0.75", (0.875, 0.984, 1.0, 1.0)),
    ("R=2/3", (0.833, 0.971, 0.994, 1.0)),
    ("opt-bw", (0.55, 0.749, 0.760, 0.763)),
    ("opt-gs", (0.55, 0.748, 0.761, 0.765)),
    ("opt-kv", (0.55, 0.748, 0.761, 0.765)),
]


def test_criterion_01_threshold_table_cells():
    start = time.perf_counter()
    rows = table1()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"table took {elapsed:.2f}s, budget is 5s"
    assert [row.label for row in rows] == [label for label, _ in REFERENCE_TABLE]
    for row, (label, cells) in zip(rows, REFERENCE_TABLE):
        got = (row.tau_classical, row.tau_bw, row.tau_gs, row.tau_kv)
        for col, want, have in zip(("classical", "bw", "gs", "kv"), cells, got):
            assert abs(have - want) <= 5e-4, (
                f"{label}/{col}: got {have:.6f}, reference {want}")


# ---- criterion 2: saturation points -------------------------------------------


def test_criterion_02_saturation_points():
    got = tau_max(ThresholdQuery("bw", 0.1, 0.5))
    assert abs(got - 0.71794) <= 1e-4

    assert tau_max(ThresholdQuery("gs", 0.75, 0.5)) == 1.0
    # the squared center probability meets 1 - R exactly at tau = 1
    assert center_probability_form(1.0, 0.5) ** 2 == 1.0 - 0.75

    assert tau_max(ThresholdQuery("kv", 2 / 3, 0.5)) == 1.0
    u_sat = fourth_power_bound(1.0, 0.5)
    assert u_sat == 1 / 3
    assert u_sat >= 1 / 3 - 1e-9


# ---- criterion 3: the binary special case --------------------------------------


def test_criterion_03_binary_threshold():
    t = 6350 / 50000
    got = binary_threshold(t)
    assert got == 0.5 + math.sqrt(t * (1.0 - t))
    assert abs(got - 0.8330) <= 5e-4


# ---- criterion 4: the success bound on the fixed case matrix --------------------

# (code factory, decoder kinds, interval z, random-set size)
CASE_MATRIX = [
    (lambda: rs_code(2, 1), ("bw", "nearest"), 0, 1),
    (lambda: random_code(2, 4, 2, seed=7), ("nearest",), 0, 1),
    (lambda: rs_code(3, 1), ("bw", "nearest"), 0, 2),
    (lambda: rs_code(3, 2), ("bw", "nearest"), 0, 2),
    (lambda: random_code(3, 5, 2, seed=11), ("nearest",), 0, 2),
    (lambda: rs_code(5, 1), ("bw", "nearest"), 1, 2),
    (lambda: rs_code(5, 2), ("bw", "nearest"), 1, 2),
]

TAU_TILDES = (0.4, 0.6, 0.8)
PROFILE_SEED = 21


def _matrix_profiles(code, z, set_size, tau):
    yield interval_profile(code.q, code.n, z, tau)
    yield random_sets_profile(code.q, code.n, set_size, tau, seed=PROFILE_SEED)


def _matrix_decoder(kind, code):
    if kind == "bw":
        return BerlekampWelchDecoder(code)
    return BruteForceNearestDecoder(code)


def test_criterion_04_success_bound_matrix():
    start = time.perf_counter()
    cases = 0
    for factory, kinds, z, set_size in CASE_MATRIX:
        code = factory()
        decoders = {kind: _matrix_decoder(kind, code) for kind in kinds}
        for kind, tau_tilde in itertools.product(kinds, TAU_TILDES):
            decoder = decoders[kind]
            for profile in _matrix_profiles(code, z, set_size, tau_tilde + 0.1):
                constraint = ConstraintSet(profile, tau_tilde)
                outcomes = run_reduction_sweep(decoder, [constraint])[0]
                report = verify_bound(outcomes)
                label = (f"q={code.q} n={code.n} k={code.k} {kind} "
                         f"tt={tau_tilde} sets={profile.sets}")
                assert report.slack >= -1e-9, (
                    f"{label}: mean acceptance {report.mean_p:.6f} fell "
                    f"below bound {report.bound:.6f}")
                # acceptance and p_dec read one residual index; the roll
                # enumeration shares none of it
                p_dec = roll_per_message_success(decoder, profile).mean()
                assert abs(report.p_dec - p_dec) <= 1e-9, label
                for o in outcomes:
                    assert abs(o.post_select_prob - p_dec) <= 1e-9, label
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 72  # 11 decoder/code rows x 3 tau_tilde x 2 profiles / ...
    assert elapsed < 600.0, f"matrix took {elapsed:.1f}s, budget is 10 min"


# ---- criterion 5: symmetrization flattens the diagonal ---------------------------


def test_criterion_05_symmetrized_diagonal_uniform():
    code = LinearCode(2, np.array([[1, 1, 1]]))
    table = np.zeros(8, dtype=np.int64)  # lopsided: 7 words to one message
    table[7] = 1
    decoder = TableDecoder(code, table)
    profile = build_profile(2, 3, [(0,)] * 3, 0.8)
    gammas = diagonal_gammas(decoder, True, profile)
    assert gammas.max() - gammas.min() <= 1e-10
    target = math.sqrt(per_message_success(decoder, profile).mean())
    assert np.max(np.abs(gammas - target)) <= 1e-10


# ---- criterion 6: the algebraic decoder equals the nearest-codeword oracle -------


def _patterns_weight_le_2(q, n):
    out = [np.zeros(n, dtype=np.int64)]
    for i in range(n):
        for v in range(1, q):
            e = np.zeros(n, dtype=np.int64)
            e[i] = v
            out.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            for v in range(1, q):
                for w in range(1, q):
                    e = np.zeros(n, dtype=np.int64)
                    e[i], e[j] = v, w
                    out.append(e)
    return np.array(out)


def test_criterion_06_bw_equals_nearest_within_radius():
    code = rs_code(7, 3)
    patterns = _patterns_weight_le_2(7, 7)
    assert len(patterns) == 1 + 7 * 6 + 21 * 36  # 799
    codewords = code.codewords()
    messages = code.messages()
    for s_idx in range(len(codewords)):
        received = (codewords[s_idx] + patterns) % 7
        # nearest-codeword oracle, vectorized; radius 2 < d/2 so no ties.
        # Every distance, summed one coordinate at a time in uint8
        dists = np.zeros((len(received), len(codewords)), dtype=np.uint8)
        for i in range(code.n):
            dists += received[:, i, None] != codewords[None, :, i]
        nearest = dists.argmin(axis=1)
        assert np.all(nearest == s_idx)  # sanity: within unique radius
        # every one of the 799 words goes through Berlekamp-Welch itself
        got, hits = berlekamp_welch_batch(code, received)
        assert np.all(hits)
        assert np.array_equal(got, np.broadcast_to(messages[s_idx], got.shape))


# ---- criterion 7: transform and algebra identities at 1e-9 -----------------------


def test_criterion_07_fourier_and_algebra_identities():
    tol = 1e-9
    # character orthogonality: sum_y w^{xy} = q [x = 0]
    for q in (2, 3, 5, 7):
        field = PrimeField(q)
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        for x in range(q):
            total = roots[(x * np.arange(q)) % q].sum()
            want = q if x == 0 else 0.0
            assert abs(total - want) <= tol

    # Parseval and round trip on random dense vectors
    rng = np.random.default_rng(17)
    for q, n in ((2, 3), (3, 2), (5, 2), (7, 1)):
        field = PrimeField(q)
        f = rng.normal(size=q**n) + 1j * rng.normal(size=q**n)
        fhat = fourier_transform(field, f)
        assert abs(np.linalg.norm(fhat) - np.linalg.norm(f)) <= tol
        back = inverse_fourier_transform(field, fhat)
        assert np.max(np.abs(back - f)) <= tol

    # character of an encoding: chi_y(xG) = chi_{G y}(x)
    for code in (rs_code(5, 2), random_code(3, 4, 2, seed=3)):
        q = code.q
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        for x in code.messages():
            for y in code.codewords()[:5]:
                lhs = roots[int(code.encode(x) @ y) % q]
                rhs = roots[int(x @ (code.G @ y)) % q]
                assert abs(lhs - rhs) <= tol

    # full-support duality: dual of degree-<k evaluations is degree-<(q-k)
    for q in (2, 3, 5, 7):
        for k in range(1, q):
            dual = dual_code(rs_code(q, k))
            expected = rs_code(q, q - k)
            lhs = np.sort(index_of_vector(dual.codewords().T, q))
            rhs = np.sort(index_of_vector(expected.codewords().T, q))
            assert np.array_equal(lhs, rhs), f"duality failed at q={q} k={k}"

    # code character sums: sum_c chi_u(c) = |C| [u in dual]
    for code in (rs_code(5, 2), random_code(3, 4, 2, seed=3)):
        q = code.q
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        dual = dual_code(code)
        for u in (dual.codewords()[1], np.ones(code.n, dtype=np.int64)):
            total = roots[(code.codewords() @ u) % q].sum()
            want = 0.0 if syndrome(dual, u).any() else len(code.codewords())
            assert abs(total - want) <= tol


# ---- criterion 8: fourth-power sums against the closed-form bound ----------------


def test_criterion_08_fourth_power_bound_grid():
    for q in (11, 13, 17):
        for z in range((q - 1) // 2):
            rho = (2 * z + 1) / q
            for tau in (0.6, 0.8, 1.0):
                report = fourth_power_sum(q, z, tau)
                assert report.exact >= report.bound - 1e-10, (q, z, tau)
                assert report.exact >= fourth_power_bound(tau, rho) - 1e-10

                profile = interval_profile(q, 1, z, tau)
                uhat = profile.uhat[0]
                conv = np.array([
                    np.sum(uhat * np.roll(uhat[::-1], a + 1)) for a in range(q)
                ])
                lhs = float(np.sum(conv**2))
                rhs = q * report.exact
                assert abs(lhs - rhs) <= 1e-9 * rhs, (q, z, tau)


# ---- criterion 9: instance search equals coset search ----------------------------


def test_criterion_09_opi_icc_equivalence():
    for set_size, tau, seed in itertools.product((1, 2), (0.4, 0.8), range(5)):
        inst = generate_instance(5, 2, set_size, tau, seed=seed)
        code, u, constraint = opi_to_icc(inst)
        best = brute_force_opi(inst)
        y, icc_count = brute_force_icc(code, u, constraint)
        assert best.count == icc_count, (set_size, tau, seed)
        assert np.array_equal(syndrome(code, y), u)
        assert icc_to_opi(inst, y).count == best.count


# ---- criterion 10: exact tails dominate nothing and match enumeration -------------


def test_criterion_10_tail_bounds():
    for factory, _, z, set_size in CASE_MATRIX:
        code = factory()
        for tau_tilde in TAU_TILDES:
            for profile in _matrix_profiles(code, z, set_size, tau_tilde + 0.1):
                eta_exact, eta_hoeffding = tail_mass(profile, tau_tilde)
                assert eta_exact <= eta_hoeffding

                constraint = ConstraintSet(profile, tau_tilde)
                fhat2 = profile.fourier_amplitudes() ** 2
                brute = float(fhat2[~constraint.membership_mask()].sum())
                assert abs(eta_exact - brute) <= 1e-10
