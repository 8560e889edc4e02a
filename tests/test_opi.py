import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.codes import rs_code, syndrome
from cosetlab.config import BudgetError
from cosetlab.opi import (OPIInstance, OPISolution, brute_force_icc,
                          brute_force_opi, generate_instance, icc_to_opi,
                          interpolate, opi_to_icc, satisfied_count, verify)


def _naive_eval(q, coeffs, x):
    return sum(int(c) * x**j for j, c in enumerate(coeffs)) % q


# ---- polynomial helpers --------------------------------------------------------


def test_poly_eval_against_naive_power_sum():
    # polynomial evaluation at every residue is RS encoding (RS needs k < q)
    rng = np.random.default_rng(0)
    for q in (2, 3, 5, 7):
        for _ in range(20):
            k = int(rng.integers(1, min(4, q)))
            coeffs = rng.integers(0, q, size=k)
            got = rs_code(q, k).encode(coeffs)
            want = [_naive_eval(q, coeffs, x) for x in range(q)]
            assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_interpolate_inverts_poly_eval(q, data):
    k = data.draw(st.integers(1, min(3, q - 1)))
    coeffs = np.array(
        data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)))
    values = rs_code(q, k).encode(coeffs)
    got = interpolate(q, values, k)
    assert got is not None and got.tolist() == (coeffs % q).tolist()


def test_interpolate_rejects_non_polynomial_values():
    # x^2 over F_5 is not degree < 2
    values = (np.arange(5) ** 2) % 5
    assert interpolate(5, values, 2) is None
    assert interpolate(5, values, 3) is not None
    with pytest.raises(ValueError):
        interpolate(5, values[:3], 2)


# ---- instances ------------------------------------------------------------------


def test_instance_validation():
    good = dict(q=3, k=1, sets=((0,), (1,), (2,)), tau=0.5, x=(0, 1, 2), seed=0)
    OPIInstance(**good)
    with pytest.raises(ValueError):
        OPIInstance(**{**good, "sets": ((0,), (1,))})  # one set per residue
    with pytest.raises(ValueError):
        OPIInstance(**{**good, "sets": ((0,), (1, 2), (2,))})  # equal sizes
    with pytest.raises(ValueError):
        OPIInstance(**{**good, "sets": ((0,), (1,), (3,))})  # residue range
    with pytest.raises(ValueError):
        OPIInstance(**{**good, "x": (0, 1)})
    with pytest.raises(ValueError):
        OPIInstance(**{**good, "tau": 1.5})
    with pytest.raises(ValueError, match="prime"):
        OPIInstance(**{**good, "q": 4, "sets": ((0,),) * 4, "x": (0,) * 4})


def test_instance_rejects_full_sets():
    # every residue allowed everywhere: any polynomial satisfies all q points
    full = tuple(tuple(range(3)) for _ in range(3))
    with pytest.raises(ValueError, match="size"):
        OPIInstance(q=3, k=2, sets=full, tau=1.0, x=(1, 2, 0), seed=0)
    with pytest.raises(ValueError, match="size"):
        generate_instance(5, 2, 5, 0.5, seed=0)


def test_generate_instance_deterministic():
    a = generate_instance(5, 2, 2, 0.6, seed=9)
    b = generate_instance(5, 2, 2, 0.6, seed=9)
    c = generate_instance(5, 2, 2, 0.6, seed=10)
    assert a == b
    assert a != c
    assert len(a.sets) == 5 and all(len(s) == 2 for s in a.sets)


def test_json_round_trip():
    inst = generate_instance(5, 2, 2, 0.6, seed=3)
    again = OPIInstance.from_json(json.dumps(inst.to_dict()))
    assert again == inst
    d = inst.to_dict()
    assert set(d) == {"q", "k", "tau", "sets", "x", "seed"}


# ---- counting and solving -------------------------------------------------------


def _count_oracle(inst, coeffs):
    hits = 0
    for i in range(inst.q):
        v = (_naive_eval(inst.q, coeffs, i) + inst.x[i]) % inst.q
        hits += v in inst.sets[i]
    return hits


def test_satisfied_count_oracle():
    inst = generate_instance(7, 3, 3, 0.5, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(25):
        coeffs = rng.integers(0, 7, size=3)
        assert satisfied_count(inst, coeffs) == _count_oracle(inst, coeffs)


def test_brute_force_opi_vs_double_loop():
    inst = generate_instance(3, 2, 1, 0.3, seed=4)
    best = brute_force_opi(inst)
    counts = {}
    for c0 in range(3):
        for c1 in range(3):
            counts[(c0, c1)] = _count_oracle(inst, (c0, c1))
    top = max(counts.values())
    assert best.count == top
    assert counts[best.coeffs] == top
    # tie break: no earlier coefficient vector reaches the same count
    for key in sorted(counts):
        if key == best.coeffs:
            break
        assert counts[key] < top


def test_brute_force_opi_budget_is_q_to_the_k_times_q():
    inst = generate_instance(5, 2, 2, 0.6, seed=6)
    assert brute_force_opi(inst, budget=5**2 * 5) == brute_force_opi(inst)
    with pytest.raises(BudgetError):
        brute_force_opi(inst, budget=5**2 * 5 - 1)


# ---- the coset-search equivalence -----------------------------------------------


def test_opi_to_icc_syndrome_matches_offsets():
    inst = generate_instance(5, 2, 2, 0.6, seed=6)
    code, u, constraint = opi_to_icc(inst)
    assert code.q == 5 and code.k == 2 and code.n == 5
    assert np.array_equal(u, syndrome(code, inst.x_array()))
    assert constraint.tau_tilde == inst.tau


def test_counts_agree_across_the_equivalence():
    inst = generate_instance(5, 2, 2, 0.8, seed=12)
    code, u, constraint = opi_to_icc(inst)
    y, icc_count = brute_force_icc(code, u, constraint)
    best = brute_force_opi(inst)
    assert icc_count == best.count
    back = icc_to_opi(inst, y)
    assert back.count == best.count


def test_icc_to_opi_rejects_wrong_coset():
    inst = generate_instance(5, 2, 2, 0.6, seed=6)
    bad = (inst.x_array() + np.array([1, 0, 0, 0, 0])) % 5
    with pytest.raises(ValueError, match="coset"):
        icc_to_opi(inst, bad)


def test_solution_roundtrip_through_interpolation():
    inst = generate_instance(7, 3, 3, 0.5, seed=8)
    best = brute_force_opi(inst)
    evals = rs_code(7, 3).encode(np.array(best.coeffs))
    got = interpolate(7, evals, 3)
    assert got is not None and tuple(got.tolist()) == best.coeffs
