import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import galois
from cosetlab.config import TOL
from cosetlab.noise import center_probability_form, fourth_power_bound
from cosetlab.thresholds import (DECODER_KINDS, ThresholdQuery, curves_csv,
                                 figure1_curves, optimize_over_rho, table1,
                                 tau_max)
from cosetlab.thresholds import (CLASSICAL_TARGET, RHO_STEP, _kv_query,
                                 _condition, _make_row, _tau_max_grid)
from oracles import binary_threshold


def _rhs(kind, tau, rho):
    """The condition's right-hand side at (tau, rho), floats or arrays."""
    return _condition(kind, rho, np.sqrt)(tau)


def test_binary_threshold_values():
    assert binary_threshold(6350 / 50000) == pytest.approx(0.8330, abs=5e-4)
    assert binary_threshold(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_threshold(0.0) == pytest.approx(0.5, abs=1e-15)
    # symmetric around tau = 1/2
    assert binary_threshold(0.2) == pytest.approx(binary_threshold(0.8))


def test_binary_threshold_is_center_form_at_half_density():
    # same quantity as the q -> infinity center-probability expression
    for tau in (0.1, 0.3, 0.45):
        assert binary_threshold(tau) == pytest.approx(
            center_probability_form(tau, 0.5), abs=1e-12)


def test_classical_closed_form():
    for r, rho in [(0.1, 0.5), (0.75, 0.5), (2 / 3, 0.5), (0.3, 0.4)]:
        got = tau_max(ThresholdQuery("classical", r, rho))
        assert got == pytest.approx(rho + r * (1.0 - rho), abs=1e-15)


@pytest.mark.parametrize("kind,rhs_fn", [
    ("bw", lambda tau, rho: center_probability_form(tau, rho)),
    ("gs", lambda tau, rho: center_probability_form(tau, rho) ** 2),
    ("kv", fourth_power_bound),
])
@pytest.mark.parametrize("r,rho", [(0.1, 0.5), (0.75, 0.5), (0.3, 0.413)])
def test_tau_max_sits_on_the_feasibility_edge(kind, rhs_fn, r, rho):
    lhs = 1.0 - r / 2.0 if kind == "bw" else 1.0 - r
    tau = tau_max(ThresholdQuery(kind, r, rho))
    assert rho <= tau <= 1.0
    assert rhs_fn(tau, rho) >= lhs - 2e-9  # feasible at the returned point
    if tau < 1.0:
        assert rhs_fn(tau + 1e-6, rho) < lhs  # and tight: a nudge breaks it


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["bw", "gs", "kv"]),
       st.one_of(st.floats(1e-7, 1.0 - 1e-7),
                 st.sampled_from([1e-7, 1e-6, 1.0 - 1e-6, 1.0 - 1e-7])))
def test_rhs_decreases_in_tau_from_rho_to_1(kind, rho):
    # tau_max's one bisection is exact only if every right-hand side falls
    # on [rho, 1]; the rate does not enter the right-hand side
    values = np.array([_rhs(kind, tau, rho) for tau in np.linspace(rho, 1.0, 502)])
    assert np.diff(values).max() <= 1e-12


_fraction = st.one_of(st.floats(1e-7, 1.0 - 1e-7),
                      st.sampled_from([1e-7, 1e-3, 2 / 3, 0.75, 0.999, 1.0 - 1e-7]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DECODER_KINDS),
       st.lists(st.tuples(_fraction, _fraction), min_size=1, max_size=12), _fraction)
def test_grid_bisection_equals_tau_max_bit_for_bit(kind, points, shared_rho):
    # tau_max is the oracle: every entry takes its scalar loop's steps,
    # saturated entries (large rates) and rho near 0 or 1 included
    r = np.array([a for a, _ in points])
    rho = np.array([b for _, b in points])
    want = [tau_max(ThresholdQuery(kind, a, b)) for a, b in points]
    assert _tau_max_grid(kind, r, rho).tolist() == want
    # one float rho for every rate, as a curve bisects
    want = [tau_max(ThresholdQuery(kind, a, shared_rho)) for a, _ in points]
    assert _tau_max_grid(kind, r, shared_rho).tolist() == want


@pytest.mark.parametrize("kind", ["bw", "gs", "kv"])
def test_rhs_on_arrays_equals_float_calls_at_random_points(kind):
    # squares and cubes are products, which floats and arrays round alike;
    # a power would not (numpy's vector power rounds differently from
    # Python's on about 0.1% of squares and 5% of cubes with an AVX-512
    # build), and 20,000 random points show such a difference
    rng = np.random.default_rng(13)
    rho = rng.uniform(1e-6, 1.0 - 1e-6, 20_000)
    tau = rho + (1.0 - rho) * rng.random(20_000)
    want = [_rhs(kind, t, r) for t, r in zip(tau.tolist(), rho.tolist())]
    assert _rhs(kind, tau, rho).tolist() == want


@pytest.mark.parametrize("kind", ["bw", "gs", "kv"])
def test_optimizer_grid_equals_scalar_loop(kind):
    # the rho grid optimize_over_rho bisects in one call
    grid = np.arange(RHO_STEP, CLASSICAL_TARGET, RHO_STEP)
    rates = (CLASSICAL_TARGET - grid) / (1.0 - grid)
    want = [tau_max(ThresholdQuery(kind, r, rho)) for r, rho in zip(rates, grid)]
    assert _tau_max_grid(kind, rates, grid).tolist() == want


def _plain_tau_max(kind, r, rho):
    # tau_max's bisection written out from the public closed forms alone
    lhs = 1.0 - r / 2.0 if kind == "bw" else 1.0 - r

    def rhs(tau):
        if kind == "kv":
            return fourth_power_bound(tau, rho)
        c = center_probability_form(tau, rho)
        return c if kind == "bw" else c * c

    lo, hi = rho, 1.0
    assert rhs(lo) >= lhs - 1e-9
    if rhs(hi) >= lhs - 1e-9:
        return 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if rhs(mid) >= lhs - 1e-9:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("kind", ["bw", "gs", "kv"])
def test_tau_max_equals_plain_bisection_bit_for_bit(kind):
    # an oracle that shares no code with the solver: tau_max and the grid
    # bisection share _condition, so only this catches a wrong shared formula
    rng = np.random.default_rng(24)
    for r, rho in rng.uniform(1e-6, 1.0 - 1e-6, (300, 2)).tolist():
        assert tau_max(ThresholdQuery(kind, r, rho)) == _plain_tau_max(kind, r, rho)


def _literal_center(tau, rho):
    # center_probability_form's expression in full, grouped as the formula
    # reads; any regrouping of the closed form's products moves last bits
    cross = tau * rho * (1.0 - tau) * (1.0 - rho)
    return tau * rho + (1.0 - tau) * (1.0 - rho) + 2.0 * (
        np.sqrt(cross) if isinstance(cross, np.ndarray) else math.sqrt(cross))


def _literal_fourth_power(tau, rho):
    # fourth_power_bound's expression in full, its terms in rho alone inline
    arrays = isinstance(tau, np.ndarray) or isinstance(rho, np.ndarray)
    sqrt = np.sqrt if arrays else math.sqrt
    b = sqrt((1.0 - tau) / (1.0 - rho))
    a_sq = tau / rho + (1.0 - tau) / (1.0 - rho) - 2.0 * sqrt(
        tau * (1.0 - tau) / (rho * (1.0 - rho)))
    a_minus_b = sqrt(tau / rho) - b
    gamma = 2.0 * rho * a_minus_b * b + b * b
    quartic = a_sq * a_sq
    rho_sq = rho * rho
    rho_cube = rho_sq * rho
    low = 2.0 * rho_cube / 3.0
    high = 10.0 * rho_cube / 3.0 - 4.0 * rho_sq + 2.0 * rho - 1.0 / 3.0
    lead = np.where(rho <= 0.5, low, high) if arrays else low if rho <= 0.5 else high
    return quartic * lead + 2.0 * a_sq * gamma * rho_sq + gamma * gamma


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_closed_forms_equal_their_literal_expressions_bit_for_bit():
    # the solver and every oracle above share noise's closed forms; this
    # pins their arithmetic to the expressions written out in full
    rng = np.random.default_rng(27)
    rho = rng.uniform(1e-6, 1.0 - 1e-6, 20_000)
    tau = rng.uniform(1e-6, 1.0, 20_000)
    points = list(zip(tau.tolist(), rho.tolist()))
    literal = {"bw": _literal_center,
               "gs": lambda t, r: _literal_center(t, r) * _literal_center(t, r),
               "kv": _literal_fourth_power}
    public = {"bw": center_probability_form, "kv": fourth_power_bound}
    for kind, want_of in literal.items():
        want = _bits(want_of(tau, rho))
        assert np.array_equal(_bits([want_of(t, r) for t, r in points]), want)
        assert np.array_equal(_bits(_condition(kind, rho, np.sqrt)(tau)), want)
        assert np.array_equal(
            _bits([_condition(kind, r, math.sqrt)(t) for t, r in points]), want)
        if kind in public:
            assert np.array_equal(_bits(public[kind](tau, rho)), want)
            assert np.array_equal(_bits([public[kind](t, r) for t, r in points]), want)


def _ternary_oracle(kind):
    # optimize_over_rho written out with the public tau_max at every point:
    # the grid bisected point by point, then the same ternary refinement
    grid = np.arange(RHO_STEP, CLASSICAL_TARGET, RHO_STEP).tolist()

    def tau_at(rho):
        r = (CLASSICAL_TARGET - rho) / (1.0 - rho)
        return tau_max(ThresholdQuery(kind, r, rho))

    best = int(np.argmax([tau_at(rho) for rho in grid]))
    lo = grid[max(best - 1, 0)]
    hi = min(grid[min(best + 1, len(grid) - 1)], CLASSICAL_TARGET - 1e-9)
    while hi - lo > 1e-9:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if tau_at(m1) < tau_at(m2):
            lo = m1
        else:
            hi = m2
    rho = 0.5 * (lo + hi)
    return (CLASSICAL_TARGET - rho) / (1.0 - rho), rho, tau_at(rho)


@pytest.mark.parametrize("kind", ["bw", "gs", "kv"])
def test_optimizer_equals_a_ternary_loop_over_tau_max(kind):
    # the refinement bisects without building queries; the optimum it picks
    # from tau's flat top must be the one tau_max's own values pick
    assert optimize_over_rho(kind) == _ternary_oracle(kind)


# table1() and table1(kv_q=11) as recorded before the solver computed rho's
# terms once per query and squared by multiplication: label, R, rho, then
# the classical, bw, gs and kv columns
TABLE1_RECORDED = {
    None: [
        ("R=0.1", 0.1, 0.5, 0.55, 0.7179449489340186, 0.7206429205834866, 0.7215987397357821),
        ("R=0.75", 0.75, 0.5, 0.875, 0.9841229179874063, 1.0, 1.0),
        ("R=2/3", 0.6666666666666666, 0.5, 0.8333333333333333, 0.9714045207947493,
         0.9939807038754225, 1.0),
        ("opt-bw", 0.2336884235014938, 0.41277149686792297, 0.55, 0.7494641498732706,
         0.7597190008123269, 0.76334445441852),
        ("opt-gs", 0.25897944230782227, 0.39272939822145747, 0.55, 0.7484336963317041,
         0.7606569569621938, 0.7648800091153141),
        ("opt-kv", 0.26691551061086316, 0.3861553388273498, 0.55, 0.7476787322664884,
         0.7605631339659751, 0.7649745271267141),
    ],
    11: [
        ("R=0.1", 0.1, 0.5, 0.55, 0.7179449489340186, 0.7206429205834866, 0.6799065319990569),
        ("R=0.75", 0.75, 0.5, 0.875, 0.9841229179874063, 1.0, 1.0),
        ("R=2/3", 0.6666666666666666, 0.5, 0.8333333333333333, 0.9714045207947493,
         0.9939807038754225, 0.9976088005033406),
        ("opt-bw", 0.2336884235014938, 0.41277149686792297, 0.55, 0.7494641498732706,
         0.7597190008123269, 0.7984415514563972),
        ("opt-gs", 0.25897944230782227, 0.39272939822145747, 0.55, 0.7484336963317041,
         0.7606569569621938, 0.8162065497176213),
        ("opt-kv", 0.26691551061086316, 0.3861553388273498, 0.55, 0.7476787322664884,
         0.7605631339659751, 0.8215746273371306),
    ],
}


@pytest.mark.parametrize("kv_q", [None, 11])
def test_table1_matches_recorded_cells(kv_q):
    # the optimized rows' R and rho come from the ternary refinement's exact
    # sequence of points (tau is flat over about 3e-5 in rho there), so any
    # change to that sequence shows here
    rows = table1(kv_q=kv_q)
    assert [row.label for row in rows] == [want[0] for want in TABLE1_RECORDED[kv_q]]
    for row, (_, *want) in zip(rows, TABLE1_RECORDED[kv_q]):
        have = [row.r, row.rho, row.tau_classical, row.tau_bw, row.tau_gs, row.tau_kv]
        assert have == pytest.approx(want, abs=TOL.bisection, rel=0)
        assert have == want


def test_tau_max_saturates_for_generous_rates():
    # at R = 2/3 the fourth-power bound meets 1 - R over the whole range
    assert tau_max(ThresholdQuery("kv", 2 / 3, 0.5)) == 1.0
    assert tau_max(ThresholdQuery("gs", 0.75, 0.5)) == 1.0


def test_tau_max_monotone_in_rate():
    for kind in ("bw", "gs", "kv"):
        taus = [tau_max(ThresholdQuery(kind, r, 0.5))
                for r in (0.05, 0.1, 0.2, 0.4)]
        # a larger rate loosens the condition, so the threshold grows
        assert all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))


def test_query_validation():
    with pytest.raises(ValueError):
        ThresholdQuery("magic", 0.5, 0.5)
    with pytest.raises(ValueError):
        ThresholdQuery("bw", 0.0, 0.5)  # rate must be positive
    with pytest.raises(ValueError):
        ThresholdQuery("bw", 0.5, 0.0)
    for kind in ("classical", "magic"):  # the optimum is over bw, gs or kv
        with pytest.raises(ValueError, match="kind must be"):
            optimize_over_rho(kind)


@pytest.mark.parametrize("q", [3, 7, 11, 13, 101])
def test_kv_q_clamp_unchanged_at_odd_primes(q):
    # (q - 2) // 2 is the old odd-q bound (q - 3) // 2 on 2z+1 < q
    for r, rho in ((0.1, 0.5), (0.4, 0.9), (0.75, 0.999), (0.2, 0.01)):
        z = min(max(0, round((rho * q - 1) / 2)), (q - 3) // 2)
        assert _kv_query(r, rho, q) == ThresholdQuery("kv", r, (2 * z + 1) / q)


def test_kv_q_two_snaps_to_one_half():
    assert _kv_query(0.1, 0.5, 2).rho == 0.5
    assert _kv_query(0.1, 0.9, 2).rho == 0.5


@pytest.mark.parametrize("q", [4, 9, 1, 0, -7])
def test_kv_q_must_be_prime(q):
    with pytest.raises(ValueError, match="prime"):
        figure1_curves(0.5, [0.1], kv_q=q)


def test_discrete_kv_close_to_scale_free_at_large_q():
    # kv_q snaps rho to the nearest (2z+1)/q; at q = 1999 that moves 0.5 to
    # 999/1999, and the kv column barely moves with it
    free = tau_max(ThresholdQuery("kv", 0.3, 0.5))
    row = figure1_curves(0.5, [0.3], kv_q=1999)[0]
    assert row.tau_kv == tau_max(ThresholdQuery("kv", 0.3, 999 / 1999))
    assert row.tau_kv == pytest.approx(free, abs=2e-3)


def test_optimizer_hits_classical_target_curve():
    for kind in ("bw", "gs", "kv"):
        r, rho, best = optimize_over_rho(kind)
        assert all(isinstance(v, float) for v in (r, rho, best))
        assert rho + r * (1.0 - rho) == pytest.approx(0.55, abs=1e-9)
        assert best == pytest.approx(tau_max(ThresholdQuery(kind, r, rho)),
                                     abs=1e-12)
        # local optimality: nearby on-curve points do no better
        for d in (-1e-3, 1e-3):
            rho2 = rho + d
            r2 = (0.55 - rho2) / (1.0 - rho2)
            assert tau_max(ThresholdQuery(kind, r2, rho2)) <= best + 1e-6


def test_table1_shape_and_ordering():
    rows = table1()
    assert len(rows) == 6
    assert [row.label for row in rows[:3]] == ["R=0.1", "R=0.75", "R=2/3"]
    assert all(row.label.startswith("opt") for row in rows[3:])
    for row in rows:
        assert row.tau_gs >= row.tau_bw - 1e-12
        d = row.to_dict()
        json.dumps(d)  # pure python floats only
        assert d["tau_kv"] == row.tau_kv


def test_table1_saturated_rows():
    rows = {row.label: row for row in table1()}
    assert rows["R=0.75"].tau_gs == 1.0
    assert rows["R=2/3"].tau_kv == 1.0
    assert rows["R=0.75"].saturated
    assert not rows["R=0.1"].saturated


def test_figure1_curves_and_csv():
    grid = [0.1, 0.2, 0.3]
    rows = figure1_curves(0.5, grid)
    assert [row.r for row in rows] == grid
    text = curves_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "R,rho,tau_classical,tau_bw,tau_gs,tau_kv"
    assert len(lines) == 1 + len(grid)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert all(len(cell.split(".")[-1]) == 6 for cell in first[2:])
    assert not text.endswith("\r\n")


@pytest.mark.parametrize("kv_q", [None, 3, 11, 101])
@pytest.mark.parametrize("rho", [0.001, 0.3, 0.5, 0.999])
def test_figure1_rows_equal_rows_built_one_by_one(rho, kv_q):
    grid = [0.05 * i for i in range(1, 20)]
    rows = figure1_curves(rho, grid, kv_q=kv_q)
    assert rows == [_make_row(f"R={r:g}", r, rho, kv_q) for r in grid]


def test_figure1_checks_inputs_in_row_order():
    # as a row-by-row build would: a row's rate, then kv_q, then rho
    with pytest.raises(ValueError, match="grid rates"):
        figure1_curves(1.5, [0.0, 0.1], kv_q=4)
    with pytest.raises(ValueError, match="prime"):
        figure1_curves(1.5, [0.1, 0.0], kv_q=4)
    with pytest.raises(ValueError, match="rho must be"):
        figure1_curves(1.5, [0.1, 0.0], kv_q=11)
    # an empty grid has no row, but kv_q and rho are checked all the same
    with pytest.raises(ValueError, match="prime"):
        figure1_curves(1.5, [], kv_q=4)
    with pytest.raises(ValueError, match="rho must be"):
        figure1_curves(1.5, [], kv_q=11)
    with pytest.raises(ValueError, match="rho must be"):
        figure1_curves(1.5, [])
    assert figure1_curves(0.5, [], kv_q=11) == []


def test_figure1_checks_kv_q_once(monkeypatch):
    # one kv_q serves the whole grid: a 1000-rate curve tests it for primality once
    calls = []
    real = galois._is_prime
    monkeypatch.setattr(galois, "_is_prime", lambda q: calls.append(q) or real(q))
    figure1_curves(0.5, [(i + 1) / 1001 for i in range(1000)], kv_q=11)
    assert len(calls) <= 2


def test_rows_json_round_trip():
    # the rows' JSON form, as the CLI writes it, keeps every value exactly
    rows = table1()
    parsed = json.loads(json.dumps([row.to_dict() for row in rows]))
    assert parsed == [row.to_dict() for row in rows]


def test_decoder_kinds_constant():
    assert DECODER_KINDS == ("bw", "gs", "kv", "classical")
    assert math.isclose(tau_max(ThresholdQuery("classical", 0.1, 0.5)), 0.55)
