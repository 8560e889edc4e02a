import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.codes import LinearCode, random_code, rs_code
from cosetlab import config
from cosetlab.config import TOL, BudgetError, require_budget
from cosetlab.decode import (BerlekampWelchDecoder, BruteForceNearestDecoder,
                             TableDecoder, per_message_success)
from cosetlab.galois import all_vectors, vector_of_index
from cosetlab.noise import (ConstraintSet, build_profile, interval_profile,
                            random_sets_profile)
from cosetlab.qsim import (DecoderMap, SweepResult, _kept_slices, _reference_peak_bytes,
                           _sweep_peak_bytes, run_reduction, run_reduction_sweep,
                           success_lower_bound, verify_bound)
from oracles import place_values

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
    unitary = DecoderMap(decoder)
    for y_idx in range(8):
        for t in range(2):
            state = np.zeros((8, 2), dtype=np.complex128)
            state[y_idx, t] = 1.0
            out = unitary.apply(state)
            target = (t + unitary.table[y_idx]) % 2
            assert out[y_idx, target] == 1.0
            assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("sym", [False, True])
def test_unitary_preserves_norm_and_adjoint_inverts(sym):
    code = rs_code(3, 1)
    unitary = DecoderMap(BruteForceNearestDecoder(code), symmetrized=sym)
    assert unitary.shape == ((27, 3, 3) if sym else (27, 3))  # (A, B[, T])
    state = _random_state(unitary.shape, seed=11)
    forward = unitary.apply(state)
    assert np.linalg.norm(forward) == pytest.approx(1.0, abs=1e-12)
    back = unitary.apply(forward, adjoint=True)
    assert np.max(np.abs(back - state)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3, 1), (3, 3, 1), (3, 4, 2), (5, 3, 1), (5, 4, 1)]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_gather_follows_definition_on_basis_states(shape, seed):
    # both maps are unitary with adjoint inverse, and past the transform on
    # T each gather sends |a, b> to |a, b + D(a)> and |a, b, t> to
    # |a + tG, b + D(a + tG) - t, t>, in place values of its own
    q, n, k = shape
    rng = np.random.default_rng(seed)
    code = random_code(q, n, k, seed=seed)
    decoder = TableDecoder(code, rng.integers(0, q**k, size=q**n))
    words, msgs = all_vectors(q, n), all_vectors(q, k)
    for sym in (False, True):
        u_map = DecoderMap(decoder, symmetrized=sym)
        x = _random_state(u_map.shape, seed=seed % 1000)
        y = _random_state(u_map.shape, seed=seed % 1000 + 1)
        forward = u_map.apply(x)
        inner = np.vdot(y, forward) - np.vdot(u_map.apply(y, adjoint=True), x)
        assert abs(inner) <= 1e-12
        assert abs(np.linalg.norm(forward) - 1.0) <= TOL.unitarity
        assert np.max(np.abs(u_map.apply(forward, adjoint=True) - x)) <= TOL.unitarity
        shape = u_map.shape if sym else u_map.shape + (1,)  # plain: the one shift t = 0
        a, b, t = (v.reshape(-1) for v in np.indices(shape))
        a_new = (words[a] + msgs[t] @ code.G) % q @ place_values(q, n)
        b_new = (msgs[b] + msgs[decoder.table()[a_new]] - msgs[t]) % q @ place_values(q, k)
        target = np.ravel_multi_index((a_new, b_new, t), shape)
        assert np.array_equal(u_map.gather[target], np.arange(a.size))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3, 1), (2, 4, 2), (3, 3, 1), (3, 4, 2), (5, 3, 1), (5, 3, 2)]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_kept_slices_equal_mapped_whole_blocks_bit_for_bit(shape, seed):
    # oracle: the B = s slice of the forward map applied to the whole
    # prepared block w_s |psi_s>|0>_B[|0>_T], which is zero off B = 0
    q, n, k = shape
    rng = np.random.default_rng(seed)
    code = random_code(q, n, k, seed=seed)
    decoder = TableDecoder(code, rng.integers(0, q**k, size=q**n))
    profile = random_sets_profile(q, n, int(rng.integers(1, q)), 0.8, seed=seed)
    weights = np.exp(2j * np.pi * rng.random(q**k)) / math.sqrt(q**k)
    for sym in (False, True):
        u_map = DecoderMap(decoder, symmetrized=sym)
        for s_idx, prepared, fed, kept in _kept_slices(u_map, profile, weights):
            block = np.zeros(u_map.shape, dtype=np.complex128)
            block.reshape(q**n, q**k, -1)[:, 0] = prepared
            mapped = u_map.apply(block).reshape(q**n, q**k, -1)
            assert np.array_equal(kept, mapped[:, s_idx])
            assert np.count_nonzero(prepared[:, 1:]) == 0
            assert fed is prepared or np.array_equal(
                fed, (block.reshape(-1, q**k) @ u_map._fourier_t.T)[::q**k])


def test_non_permutation_gather_is_rejected(monkeypatch):
    # two states fed from one source: U' would not keep the norm, so the
    # gather is refused before any block is read through it
    decoder = BruteForceNearestDecoder(rs_code(3, 1))
    profile = interval_profile(3, 3, 0, 0.7)
    assert DecoderMap(decoder, symmetrized=True).gather.size == 3**5
    true_index = DecoderMap._source_index

    def clashing(self):
        index = true_index(self)
        index[1] = index[0]
        return index

    monkeypatch.setattr(DecoderMap, "_source_index", clashing)
    for sym in (False, True):
        with pytest.raises(ValueError, match="permutation"):
            DecoderMap(decoder, symmetrized=sym).gather
        with pytest.raises(ValueError, match="permutation"):
            DecoderMap(decoder, symmetrized=sym).diagonal_gammas(profile)
        with pytest.raises(ValueError, match="permutation"):
            run_reduction(decoder, np.array([1]), ConstraintSet(profile, 0.4),
                          force_symmetrize=sym)


def test_gamma_diagonal_matches_success_probability():
    # gamma_s is the surviving amplitude of branch s: gamma_s^2 == p_s
    code = rs_code(3, 2)
    profile = interval_profile(3, 3, 0, 0.7)
    decoder = BerlekampWelchDecoder(code)
    gammas = DecoderMap(decoder).diagonal_gammas(profile)
    p_s = per_message_success(decoder, profile)
    assert np.max(np.abs(gammas - np.sqrt(p_s))) < 1e-12


def test_symmetrized_gammas_uniform_sqrt_mean():
    # a deliberately lopsided decoder: everything maps to message 0
    table = np.zeros(8, dtype=np.int64)
    table[7] = 1
    decoder = TableDecoder(REP3, table)
    profile = _rep3_profile()
    raw = DecoderMap(decoder).diagonal_gammas(profile)
    assert raw.max() - raw.min() > 0.1  # base diagonal is genuinely uneven
    sym = DecoderMap(decoder, symmetrized=True).diagonal_gammas(profile)
    assert sym.max() - sym.min() < 1e-12
    p_s = per_message_success(decoder, profile)
    assert sym[0] == pytest.approx(math.sqrt(p_s.mean()), abs=1e-12)


def test_symmetrization_keeps_equivariant_gammas():
    # repetition + nearest is already shift-covariant; gamma' == gamma
    decoder = BruteForceNearestDecoder(REP3)
    profile = _rep3_profile()
    assert np.max(np.abs(DecoderMap(decoder, symmetrized=True).diagonal_gammas(profile)
                         - DecoderMap(decoder).diagonal_gammas(profile))) < 1e-12


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
    return interval_profile(3, 3, 0, 0.7), BruteForceNearestDecoder(rs_code(3, 1))


def test_sweep_matches_direct_engine_all_syndromes():
    profile, decoder = _q3_setup()
    constraints = [ConstraintSet(profile, 0.4), ConstraintSet(profile, 0.6)]
    swept = run_reduction_sweep(decoder, constraints)
    for c_i, constraint in enumerate(constraints):
        for u_idx, u in enumerate(np.arange(3).reshape(3, 1)):
            direct = run_reduction(decoder, u, constraint)
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
    swept = run_reduction_sweep(decoder, [constraint])[0]
    drawn = int(rng.integers(0, q**k))
    runs = [(u_idx, False) for u_idx in range(q**k)] + [(drawn, True)]
    for u_idx, force in runs:
        direct = run_reduction(decoder, vector_of_index(u_idx, q, k),
                               constraint, force_symmetrize=force)
        assert swept[u_idx].u == direct.u
        assert abs(swept[u_idx].p_u - direct.p_u) <= 1e-12
        assert abs(swept[u_idx].post_select_prob
                   - direct.post_select_prob) <= 1e-12


@pytest.mark.parametrize("force", [False, True])
def test_reference_matches_sweep_at_q5_k2(force):
    code = random_code(5, 4, 2, seed=11)
    profile = random_sets_profile(5, 4, 2, 0.8, seed=11)
    decoder = BruteForceNearestDecoder(code)
    constraint = ConstraintSet(profile, 0.5)
    swept = run_reduction_sweep(decoder, [constraint])[0]
    direct = run_reduction(decoder, np.array([2, 3]), constraint,
                           force_symmetrize=force)
    ref = swept[2 * 5 + 3]
    assert ref.u == direct.u and direct.symmetrized == force
    assert abs(ref.p_u - direct.p_u) <= 1e-12
    assert abs(ref.post_select_prob - direct.post_select_prob) <= 1e-12
    assert direct.max_norm_drift <= TOL.unitarity


def test_reference_matches_sweep_on_readme_example():
    # rs(5,2), BW, interval:1, tau 0.7, ttilde 0.5: symmetrized, 5^9 amplitudes
    decoder = BerlekampWelchDecoder(rs_code(5, 2))
    constraint = ConstraintSet(interval_profile(5, 5, 1, 0.7), 0.5)
    swept = run_reduction_sweep(decoder, [constraint])[0]
    for u_idx in np.random.default_rng(2026).choice(5**2, size=3, replace=False):
        direct = run_reduction(decoder, vector_of_index(int(u_idx), 5, 2), constraint)
        assert direct.symmetrized and swept[u_idx].u == direct.u
        assert abs(swept[u_idx].p_u - direct.p_u) <= 1e-12
        assert abs(swept[u_idx].post_select_prob - direct.post_select_prob) <= 1e-12
        assert direct.max_norm_drift <= TOL.unitarity


def test_sweep_result_is_arrays_and_builds_outcomes_on_demand():
    code = random_code(5, 4, 2, seed=11)
    decoder = BruteForceNearestDecoder(code)
    constraint = ConstraintSet(random_sets_profile(5, 4, 2, 0.8, seed=11), 0.5)
    result = run_reduction_sweep(decoder, [constraint])[0]
    assert isinstance(result, SweepResult)
    assert len(result) == 5**2
    assert result.p_u.dtype == np.float64 and result.p_u.shape == (5**2,)
    assert verify_bound(result).mean_p == np.mean(result.p_u)
    assert [o.p_u for o in result] == result.p_u.tolist()
    j = int(np.random.default_rng(7).integers(0, 5**2))
    swept = result[j]
    direct = run_reduction(decoder, vector_of_index(j, 5, 2), constraint)
    assert swept.u == direct.u
    assert abs(swept.p_u - direct.p_u) <= 1e-12
    assert abs(swept.post_select_prob - direct.post_select_prob) <= 1e-12
    assert (swept.p_dec, swept.eta, swept.bound) == pytest.approx(
        (direct.p_dec, direct.eta, direct.bound), abs=1e-14)
    assert swept.symmetrized == direct.symmetrized
    with pytest.raises(IndexError):
        result[5**2]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stated_peak_bytes_bound_traced_peak():
    # each engine's stated peak is an upper bound that is not loose by 2x,
    # also when the sweep builds a BW table, whose build checks its own peak
    code = random_code(5, 4, 2, seed=11)
    profile = random_sets_profile(5, 4, 2, 0.8, seed=11)
    decoder = BruteForceNearestDecoder(code)
    constraint = ConstraintSet(profile, 0.5)
    peak = _traced_peak(lambda: run_reduction(decoder, np.array([1, 4]),
                                              constraint, force_symmetrize=True))
    stated = _reference_peak_bytes(5, 4, 2, symmetrized=True)
    assert stated / 2 <= peak <= stated
    for q, k, z in ((5, 2, 1), (7, 3, 2), (5, 3, 1), (7, 6, 2)):
        decoder = BerlekampWelchDecoder(rs_code(q, k))
        profile = interval_profile(q, q, z, 0.7)
        peak = _traced_peak(lambda: run_reduction_sweep(
            decoder, [ConstraintSet(profile, 0.5)]))
        stated = _sweep_peak_bytes(q, q, k)
        assert stated / 2 <= peak <= stated, (q, k)
    # a high-rate code: the codeword rows the residual index reads, not the
    # transform, set the peak
    rng = np.random.default_rng(1)
    decoder = TableDecoder(random_code(2, 16, 15, seed=1),
                           rng.integers(0, 2**15, size=2**16))
    profile = random_sets_profile(2, 16, 1, 0.8, seed=1)
    peak = _traced_peak(lambda: run_reduction_sweep(decoder, [ConstraintSet(profile, 0.5)]))
    assert peak <= _sweep_peak_bytes(2, 16, 15)


@pytest.mark.parametrize("shape", [(2, 12, 1), (3, 7, 1), (2, 7, 3), (5, 4, 1)])
def test_reference_stated_peak_bounds_traced_peak_at_other_shapes(shape):
    # at small q^k the block slices, not step 4's three states, set the peak
    q, n, k = shape
    rng = np.random.default_rng(3)
    decoder = TableDecoder(random_code(q, n, k, seed=3), rng.integers(0, q**k, size=q**n))
    constraint = ConstraintSet(random_sets_profile(q, n, 1, 0.8, seed=3), 0.5)
    for sym in (False, True):
        peak = _traced_peak(lambda: run_reduction(decoder, np.zeros(k, dtype=np.int64),
                                                  constraint, force_symmetrize=sym))
        stated = _reference_peak_bytes(q, n, k, symmetrized=sym)
        assert stated / 2 <= peak <= stated, sym


@pytest.mark.parametrize("k", range(1, 7))
def test_sweep_peak_is_at_most_48_bytes_per_received_word(k):
    # plus the larger per-message term, the residual phase's codeword rows
    per_message = 7**k * 2 * 7 * 8
    assert _sweep_peak_bytes(7, 7, k) <= 48 * 7**7 + per_message + 2**16


@pytest.mark.parametrize("k", [3, 4])
def test_fresh_nearest_build_within_stated_peak(k):
    # the nearest table's count blocks are built inside the call; at
    # rs(5,4) they, not the q^n arrays, set the peak
    decoder = BruteForceNearestDecoder(rs_code(5, k))
    profile = interval_profile(5, 5, 1, 0.7)
    peak = _traced_peak(lambda: run_reduction_sweep(decoder, [ConstraintSet(profile, 0.5)]))
    assert peak <= max(_sweep_peak_bytes(5, 5, k), decoder._build_bytes())


def test_nearest_build_scratch_counts_against_budget():
    # rs(5,4): the build's count blocks need far more than the q^n table,
    # and more than the sweep's own stated peak
    decoder = BruteForceNearestDecoder(rs_code(5, 4))
    need = -(-decoder._build_bytes() // 16)
    assert need > 50 * 5**5 and need - 1 >= -(-_sweep_peak_bytes(5, 5, 4) // 16)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            decoder.table(budget=need - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14 and decoder._table is None  # nothing was allocated
    profile = interval_profile(5, 5, 1, 0.7)
    with pytest.raises(BudgetError):  # the sweep's own peak fits, the build's does not
        run_reduction_sweep(decoder, [ConstraintSet(profile, 0.5)], budget=need - 1)
    assert decoder._table is None
    assert decoder.table(budget=need).shape == (5**5,)


def test_no_postselection_acceptance_equals_p_dec():
    # tau_tilde = 0 accepts everything, so eta = 0 and bound = p_dec; the
    # step-3 measurement acceptance always equals p_dec regardless of u
    profile, decoder = _q3_setup()
    outcomes = run_reduction_sweep(decoder, [ConstraintSet(profile, 0.0)])[0]
    report = verify_bound(outcomes)
    assert report.eta == 0.0
    assert report.bound == pytest.approx(report.p_dec, abs=1e-15)
    for o in outcomes:
        assert o.post_select_prob == pytest.approx(report.p_dec, abs=1e-9)
    assert report.mean_p >= report.bound - 1e-9
    assert report.ok


def test_bound_holds_on_small_sweep():
    profile, decoder = _q3_setup()
    for tau_tilde in (0.4, 0.6):
        outcomes = run_reduction_sweep(decoder, [ConstraintSet(profile, tau_tilde)])[0]
        report = verify_bound(outcomes)
        assert report.ok
        assert all(o.slack >= -1e-9 for o in outcomes) or report.slack >= -1e-9


def test_marginal_sums_to_one_and_contains_p_u():
    profile, decoder = _q3_setup()
    constraint = ConstraintSet(profile, 0.6)
    out = run_reduction(decoder, np.array([2]), constraint,
                        keep_marginal=True)
    assert out.a_marginal is not None
    assert out.a_marginal.sum() == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= out.p_u <= 1.0
    assert out.max_norm_drift < 1e-10


def test_outcome_to_dict_keys():
    profile, decoder = _q3_setup()
    out = run_reduction(decoder, np.array([0]),
                        ConstraintSet(profile, 0.4))
    d = out.to_dict()
    assert set(d) == {"u", "p_u", "post_select_prob", "p_dec", "eta",
                      "bound", "slack"}
    assert d["slack"] == pytest.approx(d["p_u"] - d["bound"], abs=1e-15)


# ---- validation and guardrails ------------------------------------------------


def test_run_reduction_rejects_bad_inputs():
    profile, decoder = _q3_setup()
    constraint = ConstraintSet(profile, 0.4)
    with pytest.raises(ValueError, match="length"):
        run_reduction(decoder, np.array([0, 1]), constraint)
    other = interval_profile(5, 5, 1, 0.7)
    with pytest.raises(ValueError, match="profile"):
        run_reduction(decoder, np.array([0]), ConstraintSet(other, 0.4))
    with pytest.raises(ValueError, match="profile"):
        run_reduction_sweep(decoder, [ConstraintSet(other, 0.4)])
    with pytest.raises(ValueError, match="no constraint"):
        run_reduction_sweep(decoder, [])
    # same (q, n) but other sets: mask and eta would come from two profiles
    foreign = ConstraintSet(random_sets_profile(3, 3, 1, 0.7, seed=5), 0.4)
    assert foreign.profile.sets != profile.sets
    with pytest.raises(ValueError, match="different profile"):
        run_reduction_sweep(decoder, [constraint, foreign])
    # same sets but another tau
    retuned = ConstraintSet(interval_profile(3, 3, 0, 0.8), 0.4)
    with pytest.raises(ValueError, match="different profile"):
        run_reduction_sweep(decoder, [constraint, retuned])


def test_budget_enforced():
    profile, decoder = _q3_setup()
    with pytest.raises(BudgetError):
        run_reduction(decoder, np.array([0]), ConstraintSet(profile, 0.4), budget=10)
    assert decoder._table is None  # rejected before the table was built
    with pytest.raises(BudgetError):
        run_reduction_sweep(decoder, [ConstraintSet(profile, 0.4)], budget=10)


def test_sweep_budget_is_stated_peak_and_checked_first():
    # the budget counts the 16-byte amplitudes of the stated peak, as for
    # run_reduction, and one fewer is rejected before any table is built;
    # a fresh BW table's build fits the sweep's own peak, so the sweep runs at it
    profile = interval_profile(5, 5, 1, 0.7)
    constraint = ConstraintSet(profile, 0.5)
    for k in (2, 3, 4):
        decoder = BerlekampWelchDecoder(rs_code(5, k))
        stated = -(-_sweep_peak_bytes(5, 5, k) // 16)
        assert stated > 5**5
        with pytest.raises(BudgetError):
            run_reduction_sweep(decoder, [constraint], budget=stated - 1)
        assert decoder._table is None  # rejected before the table was built
        outcomes = run_reduction_sweep(decoder, [constraint], budget=stated)[0]
        assert outcomes[0].symmetrized
        assert verify_bound(outcomes).ok


def test_a_run_checks_its_own_budget_not_the_default(monkeypatch):
    # every check inside a run is against the run's budget: with the default
    # cap at 1, both engines still run at rs(5,2) BW with a budget of 2^26
    profile = interval_profile(5, 5, 1, 0.7)
    constraint = ConstraintSet(profile, 0.5)
    monkeypatch.setattr(config, "DEFAULT_AMPLITUDE_BUDGET", 1)
    code = rs_code(5, 2)
    swept = run_reduction_sweep(BerlekampWelchDecoder(code), [constraint], budget=2**26)[0]
    u = vector_of_index(8, 5, 2)
    evolved = run_reduction(BerlekampWelchDecoder(code), u, constraint, budget=2**26)
    assert evolved.p_u == pytest.approx(swept[8].p_u, abs=1e-12)
    with pytest.raises(BudgetError):
        run_reduction_sweep(BerlekampWelchDecoder(code), [constraint])


def test_budget_message_writes_a_huge_count_by_its_bit_length():
    # 2003^2003 has 6,614 digits, more than Python writes for an int
    with pytest.raises(BudgetError) as exc:
        require_budget(2003**2003)
    message = str(exc.value)
    assert len(message) < 200
    assert f"2^{(2003**2003).bit_length() - 1}" in message
    assert message.endswith(f"budget {config.DEFAULT_AMPLITUDE_BUDGET}")
    with pytest.raises(BudgetError, match="requested 11 amplitudes exceeds budget 10"):
        require_budget(11, 10)


def test_force_symmetrize_override():
    # nearest on the perfect code needs no symmetrization; force it anyway
    profile, decoder = _q3_setup()
    constraint = ConstraintSet(profile, 0.4)
    plain = run_reduction(decoder, np.array([1]), constraint,
                          force_symmetrize=False)
    forced = run_reduction(decoder, np.array([1]), constraint,
                           force_symmetrize=True)
    assert forced.symmetrized and not plain.symmetrized
    assert forced.p_u == pytest.approx(plain.p_u, abs=1e-10)
