import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.codes import LinearCode, random_code, rs_code
from cosetlab.config import BudgetError
from cosetlab.decode import (BerlekampWelchDecoder, BruteForceNearestDecoder,
                             TableDecoder, per_message_success)
from cosetlab.galois import vector_of_index
from cosetlab.noise import (ConstraintSet, build_profile, interval_profile,
                            random_sets_profile)
from cosetlab.qsim import (DecoderUnitary, SymmetrizedUnitary, _Registers,
                           run_reduction, run_reduction_sweep,
                           success_lower_bound, verify_bound)

REP3 = LinearCode(2, np.array([[1, 1, 1]]))


def _rep3_profile(tau=0.8):
    return build_profile(2, 3, [(0,)] * 3, tau)


def _random_state(shape, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps)


# ---- states and unitaries ----------------------------------------------------


def test_decoder_unitary_action_on_basis_states():
    # oracle: |y>|t> must land exactly on |y>|t + D(y)>
    decoder = BruteForceNearestDecoder(REP3)
    regs = _Registers(REP3, _rep3_profile())
    unitary = DecoderUnitary(decoder)
    for y_idx in range(8):
        for t in range(2):
            state = np.zeros((8, 2), dtype=np.complex128)
            state[y_idx, t] = 1.0
            out = unitary.apply(regs, state)
            target = (t + unitary.table[y_idx]) % 2
            assert out[y_idx, target] == 1.0
            assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("sym", [False, True])
def test_unitary_preserves_norm_and_adjoint_inverts(sym):
    code = rs_code(3, 1)
    profile = interval_profile(3, 3, 0, 0.7)
    regs = _Registers(code, profile)
    base = DecoderUnitary(BruteForceNearestDecoder(code))
    if sym:
        unitary = SymmetrizedUnitary(base)
        shape = (27, 3, 3)  # (A, B, T)
    else:
        unitary = base
        shape = (27, 3)
    state = _random_state(shape, seed=11)
    forward = unitary.apply(regs, state)
    assert np.linalg.norm(forward) == pytest.approx(1.0, abs=1e-12)
    back = unitary.apply(regs, forward, adjoint=True)
    assert np.max(np.abs(back - state)) < 1e-12


def test_gamma_diagonal_matches_success_probability():
    # gamma_s is the surviving amplitude of branch s: gamma_s^2 == p_s
    code = rs_code(3, 2)
    profile = interval_profile(3, 3, 0, 0.7)
    decoder = BerlekampWelchDecoder(code)
    regs = _Registers(code, profile)
    gammas = DecoderUnitary(decoder).diagonal_gammas(regs)
    p_s = per_message_success(decoder, profile)
    assert np.max(np.abs(gammas - np.sqrt(p_s))) < 1e-12


def test_symmetrized_gammas_uniform_sqrt_mean():
    # a deliberately lopsided decoder: everything maps to message 0
    table = np.zeros(8, dtype=np.int64)
    table[7] = 1
    decoder = TableDecoder(REP3, table)
    profile = _rep3_profile()
    regs = _Registers(REP3, profile)
    base = DecoderUnitary(decoder)
    raw = base.diagonal_gammas(regs)
    assert raw.max() - raw.min() > 0.1  # base diagonal is genuinely uneven
    sym = SymmetrizedUnitary(base).diagonal_gammas(regs)
    assert sym.max() - sym.min() < 1e-12
    p_s = per_message_success(decoder, profile)
    assert sym[0] == pytest.approx(math.sqrt(p_s.mean()), abs=1e-12)


def test_symmetrization_keeps_equivariant_gammas():
    # repetition + nearest is already shift-covariant; gamma' == gamma
    decoder = BruteForceNearestDecoder(REP3)
    profile = _rep3_profile()
    regs = _Registers(REP3, profile)
    base = DecoderUnitary(decoder)
    assert np.max(np.abs(SymmetrizedUnitary(base).diagonal_gammas(regs)
                         - base.diagonal_gammas(regs))) < 1e-12


# ---- the bound ---------------------------------------------------------------


def test_success_lower_bound_zero_eta_is_p_dec():
    for p in (0.0, 0.3, 0.92, 1.0):
        assert success_lower_bound(p, 0.0) == pytest.approx(p, abs=1e-15)


def test_success_lower_bound_decreases_with_eta():
    last = success_lower_bound(0.8, 0.0)
    for eta in (1e-4, 1e-3, 1e-2, 0.1, 0.3):
        cur = success_lower_bound(0.8, eta)
        assert cur < last
        last = cur


# ---- engines -----------------------------------------------------------------


def _q3_setup():
    code = rs_code(3, 1)
    profile = interval_profile(3, 3, 0, 0.7)
    decoder = BruteForceNearestDecoder(code)
    return code, profile, decoder


def test_sweep_matches_direct_engine_all_syndromes():
    code, profile, decoder = _q3_setup()
    constraints = [ConstraintSet(profile, 0.4), ConstraintSet(profile, 0.6)]
    swept = run_reduction_sweep(code, profile, decoder, constraints)
    for c_i, constraint in enumerate(constraints):
        for u_idx, u in enumerate(np.arange(3).reshape(3, 1)):
            direct = run_reduction(code, profile, decoder, u, constraint)
            ref = swept[c_i][u_idx]
            assert ref.u == direct.u
            assert ref.p_u == pytest.approx(direct.p_u, abs=1e-12)
            assert ref.post_select_prob == pytest.approx(
                direct.post_select_prob, abs=1e-12)
            assert ref.p_dec == pytest.approx(direct.p_dec, abs=1e-14)
            assert ref.eta == pytest.approx(direct.eta, abs=1e-14)
            assert ref.bound == pytest.approx(direct.bound, abs=1e-12)
            assert ref.symmetrized == direct.symmetrized


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3, 1), (2, 5, 2), (3, 3, 1), (3, 4, 2),
                        (3, 5, 2), (5, 3, 1), (5, 4, 1), (5, 5, 1)]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_matches_direct_engine_on_random_table_decoders(shape, seed):
    # random tables are lopsided, so the reference engine is checked with
    # and without the symmetrized map against the one closed form
    q, n, k = shape
    rng = np.random.default_rng(seed)
    code = random_code(q, n, k, seed=seed)
    decoder = TableDecoder(code, rng.integers(0, q**k, size=q**n))
    tau = float(rng.uniform(0.3, 0.95))
    profile = random_sets_profile(q, n, int(rng.integers(1, q)), tau,
                                  seed=seed)
    constraint = ConstraintSet(profile, float(rng.uniform(0.0, tau)))
    swept = run_reduction_sweep(code, profile, decoder, [constraint])[0]
    u_idx = int(rng.integers(0, q**k))
    u = vector_of_index(u_idx, q, k)
    for force in (False, True):
        direct = run_reduction(code, profile, decoder, u, constraint,
                               force_symmetrize=force)
        assert swept[u_idx].u == direct.u
        assert abs(swept[u_idx].p_u - direct.p_u) <= 1e-12
        assert abs(swept[u_idx].post_select_prob
                   - direct.post_select_prob) <= 1e-12


def test_no_postselection_acceptance_equals_p_dec():
    # tau_tilde = 0 accepts everything, so eta = 0 and bound = p_dec; the
    # step-3 measurement acceptance always equals p_dec regardless of u
    code, profile, decoder = _q3_setup()
    outcomes = run_reduction_sweep(code, profile, decoder,
                                   [ConstraintSet(profile, 0.0)])[0]
    report = verify_bound(outcomes)
    assert report.eta == 0.0
    assert report.bound == pytest.approx(report.p_dec, abs=1e-15)
    for o in outcomes:
        assert o.post_select_prob == pytest.approx(report.p_dec, abs=1e-9)
    assert report.mean_p >= report.bound - 1e-9
    assert report.ok


def test_bound_holds_on_small_sweep():
    code, profile, decoder = _q3_setup()
    for tau_tilde in (0.4, 0.6):
        outcomes = run_reduction_sweep(code, profile, decoder,
                                       [ConstraintSet(profile, tau_tilde)])[0]
        report = verify_bound(outcomes)
        assert report.ok
        assert all(o.slack >= -1e-9 for o in outcomes) or report.slack >= -1e-9


def test_marginal_sums_to_one_and_contains_p_u():
    code, profile, decoder = _q3_setup()
    constraint = ConstraintSet(profile, 0.6)
    out = run_reduction(code, profile, decoder, np.array([2]), constraint,
                        keep_marginal=True)
    assert out.a_marginal is not None
    assert out.a_marginal.sum() == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= out.p_u <= 1.0
    assert out.max_norm_drift < 1e-10


def test_outcome_to_dict_keys():
    code, profile, decoder = _q3_setup()
    out = run_reduction(code, profile, decoder, np.array([0]),
                        ConstraintSet(profile, 0.4))
    d = out.to_dict()
    assert set(d) == {"u", "p_u", "post_select_prob", "p_dec", "eta",
                      "bound", "slack"}
    assert d["slack"] == pytest.approx(d["p_u"] - d["bound"], abs=1e-15)


# ---- validation and guardrails ------------------------------------------------


def test_verify_bound_requires_exhaustive_coverage():
    code, profile, decoder = _q3_setup()
    outcomes = run_reduction_sweep(code, profile, decoder,
                                   [ConstraintSet(profile, 0.4)])[0]
    with pytest.raises(ValueError, match="exhaustive"):
        verify_bound(outcomes[:-1])
    with pytest.raises(ValueError, match="exhaustive"):
        verify_bound(outcomes[:-1] + [outcomes[0]])
    with pytest.raises(ValueError):
        verify_bound([])


def test_verify_bound_rejects_mixed_outcomes():
    # one syndrome's outcome taken from a sweep at another tau_tilde carries
    # another eta; one from another profile carries another p_dec as well
    code, profile, decoder = _q3_setup()
    tight, loose = run_reduction_sweep(
        code, profile, decoder,
        [ConstraintSet(profile, 0.4), ConstraintSet(profile, 0.7)])
    assert tight[0].eta != loose[0].eta
    with pytest.raises(ValueError, match="one p_dec and one eta"):
        verify_bound(loose[:1] + tight[1:])
    other = interval_profile(3, 3, 0, 0.9)
    foreign = run_reduction_sweep(code, other, decoder, [ConstraintSet(other, 0.4)])[0]
    assert foreign[0].p_dec != tight[0].p_dec
    with pytest.raises(ValueError, match="one p_dec and one eta"):
        verify_bound(foreign[:1] + tight[1:])
    assert verify_bound(tight).n_outcomes == len(tight)


def test_run_reduction_rejects_bad_inputs():
    code, profile, decoder = _q3_setup()
    constraint = ConstraintSet(profile, 0.4)
    with pytest.raises(ValueError, match="length"):
        run_reduction(code, profile, decoder, np.array([0, 1]), constraint)
    other = interval_profile(5, 5, 1, 0.7)
    with pytest.raises(ValueError, match="profile"):
        run_reduction(code, other, decoder, np.array([0]),
                      ConstraintSet(other, 0.4))
    with pytest.raises(ValueError, match="profile"):
        run_reduction_sweep(code, other, decoder, [ConstraintSet(other, 0.4)])
    # same (q, n) but other sets: mask and eta would come from two profiles
    foreign = ConstraintSet(random_sets_profile(3, 3, 1, 0.7, seed=5), 0.4)
    assert foreign.profile.sets != profile.sets
    with pytest.raises(ValueError, match="different profile"):
        run_reduction(code, profile, decoder, np.array([0]), foreign)
    with pytest.raises(ValueError, match="different profile"):
        run_reduction_sweep(code, profile, decoder, [constraint, foreign])
    # same sets but another tau
    retuned = ConstraintSet(interval_profile(3, 3, 0, 0.8), 0.4)
    with pytest.raises(ValueError, match="different profile"):
        run_reduction(code, profile, decoder, np.array([0]), retuned)
    with pytest.raises(ValueError, match="different profile"):
        run_reduction_sweep(code, profile, decoder, [retuned])
    # a decoder tabulated for another [3,1]_3 code has a table of the right shape
    alien = BruteForceNearestDecoder(random_code(3, 3, 1, seed=4))
    assert np.any(alien.code.G != code.G)
    with pytest.raises(ValueError, match="different code"):
        run_reduction(code, profile, alien, np.array([0]), constraint)
    with pytest.raises(ValueError, match="different code"):
        run_reduction_sweep(code, profile, alien, [constraint])


def test_budget_enforced():
    code, profile, decoder = _q3_setup()
    with pytest.raises(BudgetError):
        run_reduction(code, profile, decoder, np.array([0]),
                      ConstraintSet(profile, 0.4), budget=10)
    with pytest.raises(BudgetError):
        run_reduction_sweep(code, profile, decoder,
                            [ConstraintSet(profile, 0.4)], budget=10)


def test_sweep_budget_is_q_to_the_n_and_checked_first():
    code = rs_code(5, 2)
    profile = interval_profile(5, 5, 1, 0.7)
    constraint = ConstraintSet(profile, 0.5)
    decoder = BerlekampWelchDecoder(code)
    with pytest.raises(BudgetError):
        run_reduction_sweep(code, profile, decoder, [constraint],
                            budget=5**5 - 1)
    assert decoder._table is None  # rejected before the table was built
    outcomes = run_reduction_sweep(code, profile, decoder, [constraint],
                                   budget=5**5)[0]
    assert outcomes[0].symmetrized
    assert verify_bound(outcomes).ok


def test_force_symmetrize_override():
    # nearest on the perfect code needs no symmetrization; force it anyway
    code, profile, decoder = _q3_setup()
    constraint = ConstraintSet(profile, 0.4)
    plain = run_reduction(code, profile, decoder, np.array([1]), constraint,
                          force_symmetrize=False)
    forced = run_reduction(code, profile, decoder, np.array([1]), constraint,
                           force_symmetrize=True)
    assert forced.symmetrized and not plain.symmetrized
    assert forced.p_u == pytest.approx(plain.p_u, abs=1e-10)
