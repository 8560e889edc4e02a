import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.config import TOL, count_threshold
from cosetlab.galois import PrimeField, all_vectors, fourier_transform
from cosetlab.noise import (ConstraintSet, build_profile, center_probability,
                            center_probability_form, fourth_power_bound,
                            fourth_power_sum, interval_profile,
                            random_sets_profile, tail_mass)
from cosetlab.noise import _binomial_lower_tail
from oracles import constraint_contains


# ---- profile construction --------------------------------------------------------


def test_amplitude_values_match_formula():
    p = build_profile(5, 3, [(0, 1), (2, 3), (0, 4)], 0.8)
    on, off = math.sqrt(0.8 / 2), math.sqrt(0.2 / 3)
    assert p.uhat[0, 0] == pytest.approx(on, abs=1e-15)
    assert p.uhat[0, 1] == pytest.approx(on, abs=1e-15)
    assert p.uhat[0, 2] == pytest.approx(off, abs=1e-15)
    assert p.uhat[1, 2] == pytest.approx(on, abs=1e-15)
    assert np.max(np.abs(np.linalg.norm(p.uhat, axis=1) - 1)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(p.u, axis=1) - 1)) < 1e-12
    # joint amplitudes: the product of the rows, in index order, unit norm
    f = p.amplitudes()
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    for idx, e in enumerate(all_vectors(5, 3)):
        assert f[idx] == pytest.approx(p.u[0, e[0]] * p.u[1, e[1]] * p.u[2, e[2]],
                                       abs=1e-15)


def test_binary_profile_example():
    # q=2 with S = {0}: uhat = (sqrt(tau), sqrt(1-tau))
    p = build_profile(2, 1, [(0,)], 0.7)
    assert p.uhat[0, 0] == pytest.approx(math.sqrt(0.7), abs=1e-15)
    assert p.uhat[0, 1] == pytest.approx(math.sqrt(0.3), abs=1e-15)
    c = abs(p.u[0, 0]) ** 2
    want = (math.sqrt(0.7 / 2) + math.sqrt(0.3 / 2)) ** 2
    assert c == pytest.approx(want, abs=1e-12)


def test_build_profile_validation():
    with pytest.raises(ValueError, match="equal size"):
        build_profile(5, 2, [(0,), (1, 2)], 0.5)
    with pytest.raises(ValueError):
        build_profile(5, 1, [(0, 0)], 0.5)  # repeated residue
    with pytest.raises(ValueError):
        build_profile(5, 1, [(0, 1, 2, 3, 4)], 0.5)  # improper size
    with pytest.raises(ValueError):
        build_profile(5, 1, [(0,)], 0.0)  # tau out of range
    with pytest.raises(ValueError):
        build_profile(4, 1, [(0,)], 0.5)  # q not prime


def test_interval_profile_sets():
    p = interval_profile(7, 2, 1, 0.9)
    assert p.sets == ((0, 1, 6), (0, 1, 6))
    with pytest.raises(ValueError):
        interval_profile(7, 2, 3, 0.9)  # 2z+1 = q


def test_random_sets_profile_reproducible():
    a = random_sets_profile(5, 4, 2, 0.8, seed=3)
    b = random_sets_profile(5, 4, 2, 0.8, seed=3)
    assert a.sets == b.sets
    assert all(len(s) == 2 for s in a.sets)


def test_product_state_fourier_factorizes():
    p = build_profile(3, 3, [(0,), (1,), (2,)], 0.6)
    f = p.amplitudes()
    fhat = fourier_transform(PrimeField(3), f)
    kron = np.ones(1)
    for row in p.uhat:
        kron = np.kron(kron, row)
    assert np.max(np.abs(fhat - kron)) < 1e-10


def test_center_probability_closed_form():
    # pinned point: q=5, |S|=2, tau=0.8
    p = build_profile(5, 1, [(0, 1)], 0.8)
    closed = center_probability(p)
    numeric = abs(p.u[0, 0]) ** 2
    assert closed == pytest.approx(numeric, abs=1e-10)
    assert center_probability_form(1.0, 1.0) == 1.0
    assert center_probability_form(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    # saturated boundary is exact in floats: c(1, 0.5) = 0.5
    assert center_probability_form(1.0, 0.5) == 0.5


# ---- constraint sets and tails -----------------------------------------------------


def test_count_threshold_float_guard():
    assert count_threshold(0.4, 5) == 2  # 0.4*5 = 2.0000000000000004 in floats
    assert count_threshold(0.6, 5) == 3
    assert count_threshold(0.0, 5) == 0
    assert count_threshold(1.0, 7) == 7


def test_constraint_membership():
    p = build_profile(3, 3, [(0,), (0,), (1,)], 0.9)
    c = ConstraintSet(p, 2 / 3)
    assert constraint_contains(c, np.array([0, 0, 1]))
    assert constraint_contains(c, np.array([0, 0, 0]))
    assert not constraint_contains(c, np.array([1, 2, 0]))
    mask = c.membership_mask()
    vecs = all_vectors(3, 3)
    assert mask.tolist() == [constraint_contains(c, v) for v in vecs]


def test_constraint_monotone():
    p = interval_profile(5, 4, 1, 0.9)
    low = ConstraintSet(p, 0.3).membership_mask()
    high = ConstraintSet(p, 0.8).membership_mask()
    assert np.all(low[high])  # high-threshold set is a subset
    with pytest.raises(ValueError):
        ConstraintSet(p, 0.95)  # tau_tilde above tau


def _tail_oracle(n, tau, min_count):
    """P[#successes < min_count] by enumerating all 2^n outcome patterns."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        hits = sum(bits)
        if hits < min_count:
            total += tau**hits * (1 - tau) ** (n - hits)
    return total


@pytest.mark.parametrize("n,tau,ttilde", [(1, 0.7, 0.5), (4, 0.8, 0.6),
                                          (5, 0.9, 0.4), (6, 0.55, 0.55)])
def test_tail_mass_against_enumeration(n, tau, ttilde):
    p = interval_profile(5, n, 1, tau)
    exact, hoeffding = tail_mass(p, ttilde)
    oracle = _tail_oracle(n, tau, count_threshold(ttilde, n))
    assert exact == pytest.approx(oracle, abs=1e-12)
    assert exact <= hoeffding + 1e-15
    assert hoeffding == pytest.approx(2 * math.exp(-2 * n * (tau - ttilde) ** 2),
                                      abs=1e-15)


def test_tail_mass_trivial_cases():
    p = interval_profile(5, 3, 1, 0.8)
    assert tail_mass(p, 0.0)[0] == 0.0
    p1 = interval_profile(5, 1, 1, 0.8)
    assert tail_mass(p1, 0.5)[0] == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError):
        tail_mass(p, 0.9)


def test_tail_mass_moderate_n():
    # larger scale: n=20, rho=0.4, tau=0.8, ttilde=0.6, via the binomial
    # distribution of per-coordinate hits (q plays no role in the tail)
    p = build_profile(5, 20, [(0, 2)] * 20, 0.8)
    exact, _ = tail_mass(p, 0.6)
    m = count_threshold(0.6, 20)
    oracle = sum(math.comb(20, j) * 0.8**j * 0.2 ** (20 - j) for j in range(m))
    assert exact == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("n", [1031, 2003])
def test_tail_mass_is_finite_at_large_n(n):
    # comb(n, j) exceeds the float range from n = 1030 on
    exact, _ = tail_mass(interval_profile(n, n, 1, 0.9), 0.8)
    assert math.isfinite(exact) and 0.0 <= exact <= 1.0
    half = _binomial_lower_tail(n, 0.5, n // 2 + 1)  # P[Bin(n, 1/2) <= n // 2], n odd
    assert half == pytest.approx(0.5, rel=1e-9)


def test_binomial_lower_tail_matches_exact_fractions():
    rng = np.random.default_rng(40)
    for n in range(1, 41):
        for p, m in zip(rng.uniform(0.01, 0.99, 4).tolist(),
                        rng.integers(1, n + 2, 4).tolist()):
            exact = sum(math.comb(n, j) * Fraction(p) ** j * (1 - Fraction(p)) ** (n - j)
                        for j in range(min(m, n + 1)))
            assert _binomial_lower_tail(n, p, m) == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_fourier_mass_complements_tail():
    p = build_profile(3, 4, [(0,), (1,), (2,), (0,)], 0.75)
    for ttilde in (0.25, 0.5, 0.75):
        c = ConstraintSet(p, ttilde)
        eta, _ = tail_mass(p, ttilde)
        assert c.fourier_mass() == pytest.approx(1.0 - eta, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_tail_always_below_hoeffding(n, tau, frac):
    ttilde = tau * frac
    p = build_profile(3, n, [(0,)] * n, tau)
    exact, hoeffding = tail_mass(p, ttilde)
    assert 0.0 <= exact <= 1.0
    assert exact <= hoeffding + 1e-12


# ---- fourth powers -------------------------------------------------------------------


def _fourth_power_oracle(q, z, tau):
    """Direct numeric |u|^4 sum from the materialized profile."""
    p = interval_profile(q, 1, z, tau)
    return float(np.sum(np.abs(p.u[0]) ** 4))


@pytest.mark.parametrize("q,z,tau", [(11, 2, 0.9), (13, 4, 0.6), (17, 7, 0.8),
                                     (11, 0, 1.0), (13, 5, 1.0)])
def test_fourth_power_sum_exact_and_bound(q, z, tau):
    report = fourth_power_sum(q, z, tau)
    assert report.exact == pytest.approx(_fourth_power_oracle(q, z, tau),
                                         rel=1e-12)
    assert report.exact >= report.bound - TOL.fourth_power


def test_fourth_power_rejects_degenerate():
    with pytest.raises(ValueError):
        fourth_power_sum(7, 3, 0.9)  # 2z+1 = q


def test_fourth_power_bound_tau_one():
    # closed form collapses to 2*rho/3 for rho <= 1/2 at tau = 1
    for rho in (0.1, 0.3, 0.5):
        assert fourth_power_bound(1.0, rho) == pytest.approx(2 * rho / 3,
                                                             abs=1e-12)
    assert fourth_power_bound(1.0, 0.5) == 1 / 3  # exact in floats


_fraction = st.one_of(st.floats(1e-9, 1.0 - 1e-9),
                      st.sampled_from([1e-9, 1e-3, 0.5, 0.999, 1.0 - 1e-9]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_fraction, _fraction, st.booleans()), min_size=1, max_size=16))
def test_closed_forms_on_arrays_equal_their_float_calls(points):
    # bit for bit, entry by entry, on both sides of rho = 1/2 and at tau = 1
    tau = np.array([1.0 if saturated else t for t, _, saturated in points])
    rho = np.array([r for _, r, _ in points])
    for form in (center_probability_form, fourth_power_bound):
        want = [form(t, r) for t, r in zip(tau.tolist(), rho.tolist())]
        assert form(tau, rho).tolist() == want
        # one float against an array, either way round, broadcasts
        assert form(tau, rho[0]).tolist() == [form(t, rho[0]) for t in tau.tolist()]
        assert form(tau[0], rho).tolist() == [form(tau[0], r) for r in rho.tolist()]


@pytest.mark.parametrize("tau,rho,message", [
    ([0.6, 1.5, 0.7], 0.4, r"tau must be in \(0, 1\], got 1.5"),
    ([0.6, 0.7], [0.4, 0.0], r"rho must be in \(0, 1\), got 0.0"),
    (0.6, [0.4, float("nan")], r"rho must be in \(0, 1\), got nan"),
])
def test_fourth_power_bound_rejects_an_array_with_one_bad_entry(tau, rho, message):
    tau, rho = np.asarray(tau, dtype=float), np.asarray(rho, dtype=float)
    with pytest.raises(ValueError, match=message):
        fourth_power_bound(tau, rho)
    # the message is the float call's for that entry
    bad = np.broadcast_arrays(tau, rho)
    i = next(i for i in range(bad[0].size)
             if not (0.0 < bad[0][i] <= 1.0 and 0.0 < bad[1][i] < 1.0))
    with pytest.raises(ValueError, match=message):
        fourth_power_bound(float(bad[0][i]), float(bad[1][i]))


def _fourth_power_bound_discrete(q, z, tau):
    """The (q, z)-explicit form of the fourth-power bound for [-z, z]."""
    width = 2 * z + 1
    ell = q - width
    b = math.sqrt((1.0 - tau) / ell)
    a = math.sqrt(tau / width) - b
    gamma = 2.0 * a * b * width + q * b * b
    rho = width / q
    if rho <= 0.5:
        return (a**4 * (2.0 * rho**3 * q**2 / 3.0)
                + 2.0 * a**2 * gamma * rho**2 * q + gamma**2)
    combinatorial = (width + ell * (4 * z + 1 - ell)
                     + (width - ell) * (q - 2 * ell - 1))
    return (a**4 * q**2 * rho**2 * (10.0 * rho / 3.0 - 4.0 + 2.0 / rho
                                    - 1.0 / (3.0 * rho**2))
            + (2.0 * a**2 * gamma / q) * combinatorial + gamma**2)


def test_fourth_power_scale_free_matches_discrete():
    # the (q, z) closed form is the scale-free form at rho = (2z+1)/q, and
    # fourth_power_sum reports the scale-free form as its bound
    for q, z in [(11, 1), (11, 4), (13, 2), (17, 6), (17, 7), (251, 62)]:
        rho = (2 * z + 1) / q
        for tau in (0.6, 0.8, 1.0):
            want = _fourth_power_bound_discrete(q, z, tau)
            assert fourth_power_bound(tau, rho) == pytest.approx(want, abs=1e-12)
            if q < 100:
                assert fourth_power_sum(q, z, tau).bound == pytest.approx(want, abs=1e-12)


def test_convolution_identity():
    # sum over alpha of (uhat * uhat)^2 equals q * sum |u|^4
    for q, z, tau in [(11, 2, 0.9), (13, 3, 0.7), (17, 5, 1.0)]:
        p = interval_profile(q, 1, z, tau)
        uhat = p.uhat[0]
        conv = np.array([
            np.sum(uhat * np.roll(uhat[::-1], a + 1)) for a in range(q)
        ])
        lhs = float(np.sum(conv**2))
        rhs = q * float(np.sum(np.abs(p.u[0]) ** 4))
        assert lhs == pytest.approx(rhs, rel=1e-9)
