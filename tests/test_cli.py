import dataclasses
import json
import time

import pytest

from cosetlab import cli, codes, decode, noise, opi, qsim
from cosetlab.cli import build_parser, main
from cosetlab.config import DEFAULT_AMPLITUDE_BUDGET, TOL


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _exit_status(capsys, *argv):
    """Exit code of a run that may end in argparse's SystemExit, plus stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


# ---- thresholds ----------------------------------------------------------------


def test_thresholds_table1_json(capsys):
    code, out = _run(capsys, "thresholds", "table1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert {"label", "R", "rho", "tau_classical", "tau_bw", "tau_gs",
            "tau_kv", "saturated"} <= set(rows[0])


def test_thresholds_table1_text_mentions_saturation(capsys):
    code, out = _run(capsys, "thresholds", "table1")
    assert code == 0
    assert "R=0.1" in out and "opt-kv" in out


def test_thresholds_curves_csv(capsys):
    code, out = _run(capsys, "thresholds", "curves", "--rho", "0.5",
                     "--grid", "0.1:0.3:0.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,rho,tau_classical,tau_bw,tau_gs,tau_kv"
    assert len(lines) == 4  # grid endpoints inclusive: 0.1, 0.2, 0.3


def test_thresholds_bad_grid_exits_2(capsys):
    code, err = _exit_status(capsys, "thresholds", "curves", "--rho", "0.5",
                             "--grid", "0.9:0.1:0.1")
    assert code == 2
    assert "grid" in err and "Traceback" not in err


@pytest.mark.parametrize("grid,message", [
    ("0.1:0.2:inf", "finite"), ("0.1:inf:0.1", "finite"), ("nan:0.2:0.1", "finite"),
    ("0.3:0.1:0.1", "bad grid range"),  # empty
    ("0.1:0.2:1e-300", "more than"), ("0.0:0.5:1e-6", "more than"),
])
def test_thresholds_unusable_grid_exits_2_at_once(capsys, grid, message):
    # checked from (stop - start) / step: a 1e299-point grid is never built
    code, err = _exit_status(capsys, "thresholds", "curves", "--rho", "0.5", "--grid", grid)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_thresholds_output_deterministic(capsys):
    _, first = _run(capsys, "thresholds", "table1", "--format", "json")
    _, second = _run(capsys, "thresholds", "table1", "--format", "json")
    assert first == second


@pytest.mark.parametrize("kv_q", ["4", "9", "1", "0", "-7"])
@pytest.mark.parametrize("what", [["table1"], ["curves", "--rho", "0.5", "--grid", "0.1:0.2:0.1"]])
def test_thresholds_kv_q_not_prime_exits_2(capsys, what, kv_q):
    code, err = _exit_status(capsys, "thresholds", *what, "--kv-q", kv_q)
    assert code == 2
    assert "prime" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["thresholds", "table1", "--kv-q", "1000000000000000003"],
    ["simulate", "--q", "1000000000000000003", "--n", "3", "--k", "1",
     "--code", "random", "--tau", "0.7", "--ttilde", "0.5"],
], ids=["kv-q", "simulate"])
def test_huge_prime_modulus_exits_2_at_once(capsys, argv):
    # 10^18 + 3 is prime: trial division up to its square root would run
    # for hours, so a modulus of 2^31 or more is refused before it starts
    start = time.perf_counter()
    code, err = _exit_status(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "prime" in err and "Traceback" not in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out = _run(capsys, "thresholds", "table1", "--format", "json",
                     "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())


# ---- simulate -------------------------------------------------------------------


def test_simulate_sweep_json(capsys):
    code, out = _run(capsys, "simulate", "--q", "3", "--n", "3", "--k", "1",
                     "--tau", "0.7", "--ttilde", "0.5", "--sets", "interval:0",
                     "--decoder", "nearest", "--u", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"  # the format json.dump streams
    assert len(doc["outcomes"]) == 3
    assert doc["report"]["ok"] is True
    assert doc["report"]["slack"] >= -1e-9


def test_simulate_single_u(capsys):
    code, out = _run(capsys, "simulate", "--q", "3", "--n", "3", "--k", "1",
                     "--tau", "0.8", "--ttilde", "0.6", "--sets", "interval:0",
                     "--decoder", "nearest", "--u", "random", "--seed", "5",
                     "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["outcomes"]) == 1
    assert doc["outcomes"][0]["slack"] >= -1e-9


def test_simulate_outcome_rows_keys_and_slack(capsys):
    # rows from the sweep's array and from the reference outcome share a layout
    for u in ("all", "random"):
        code, out = _run(capsys, "simulate", "--q", "3", "--n", "3", "--k", "1",
                         "--tau", "0.8", "--ttilde", "0.4", "--sets", "interval:0",
                         "--decoder", "nearest", "--u", u, "--format", "json")
        assert code == 0
        rows = json.loads(out)["outcomes"]
        assert len(rows) == (3 if u == "all" else 1)
        for row in rows:
            assert list(row) == ["u", "p_u", "post_select_prob", "p_dec", "eta",
                                 "bound", "slack"]
            assert row["slack"] == row["p_u"] - row["bound"]


def test_simulate_text_lists_u_in_message_index_order(capsys):
    code, out = _run(capsys, "simulate", "--q", "3", "--n", "3", "--k", "2",
                     "--tau", "0.7", "--ttilde", "0.5", "--sets", "interval:0",
                     "--decoder", "nearest", "--u", "all")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.startswith("u=")]
    assert [u for u, _ in rows] == [f"u={a},{b}" for a in range(3) for b in range(3)]
    # row j carries the sweep's p_u[j]
    decoder = decode.BruteForceNearestDecoder(codes.rs_code(3, 2))
    constraint = noise.ConstraintSet(noise.interval_profile(3, 3, 0, 0.7), 0.5)
    p_u = qsim.run_reduction_sweep(decoder, [constraint])[0].p_u
    assert [p for _, p in rows] == [f"p_u={p:.12f}" for p in p_u]


def _simulate_random_u(capsys, seed):
    return _run(capsys, "simulate", "--q", "5", "--n", "4", "--k", "2",
                "--code", "random", "--decoder", "nearest", "--tau", "0.7",
                "--ttilde", "0.5", "--sets", "random:3", "--u", "random",
                "--seed", str(seed), "--format", "json")


@pytest.mark.parametrize("seed", [21, 24, 34, 39])
def test_simulate_single_u_below_bound_is_ok(capsys, seed):
    # the bound holds for the mean over all syndromes: one syndrome may lie
    # below it, and the run checks that both engines agree on it instead
    code, out = _simulate_random_u(capsys, seed)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["slack"] < -TOL.bound_slack and report["ok"] is True


def test_simulate_single_u_exits_1_when_engines_disagree(capsys, monkeypatch):
    sweep = qsim.run_reduction_sweep
    monkeypatch.setattr(qsim, "run_reduction_sweep", lambda *args, **kwargs: [
        dataclasses.replace(r, p_u=r.p_u * (1 + 1e-6)) for r in sweep(*args, **kwargs)])
    code, out = _simulate_random_u(capsys, 0)
    assert code == 1
    assert json.loads(out)["report"]["ok"] is False


def test_simulate_sweeps_rs_7_5_within_default_budget(capsys):
    # the all-syndrome sweep reaches k = 5 at q = 7 without a budget flag
    code, out = _run(capsys, "simulate", "--q", "7", "--n", "7", "--k", "5",
                     "--code", "rs", "--decoder", "bw", "--tau", "0.7",
                     "--ttilde", "0.5", "--sets", "interval:2", "--u", "all",
                     "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["outcomes"]) == 7**5
    assert doc["report"]["ok"] is True


def test_simulate_random_u_runs_symmetrized_rs_7_1_within_default_budget(capsys):
    # the CLI checks the reference engine's symmetrized peak before it
    # knows which map the run needs; one amplitude per (received word,
    # shift), 7^8 of them, fits the default budget
    code, out = _run(capsys, "simulate", "--q", "7", "--n", "7", "--k", "1",
                     "--code", "rs", "--decoder", "bw", "--sets", "interval:2",
                     "--tau", "0.7", "--ttilde", "0.5", "--u", "random",
                     "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_simulate_budget_exceeded_exits_2(capsys):
    code, out = _run(capsys, "simulate", "--q", "5", "--n", "5", "--k", "2",
                     "--tau", "0.7", "--ttilde", "0.5", "--sets", "interval:1",
                     "--budget", "1000", "--u", "all")
    assert code == 2


def _refuse_codes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a code was built")
    monkeypatch.setattr(codes.LinearCode, "__init__", refuse)


@pytest.mark.parametrize("argv", [
    ("--q", "1009", "--n", "1009", "--k", "2", "--decoder", "bw"),
    ("--q", "2003", "--n", "2003", "--k", "2", "--decoder", "bw"),
    ("--q", "3", "--n", "600", "--k", "1", "--code", "random", "--u", "random"),
])
def test_oversized_simulate_exits_2_before_building_a_code(capsys, monkeypatch, argv):
    # the engines' stated peaks are checked from (q, n, k) alone, before
    # the O(q^3) rank checks of building the code
    _refuse_codes(monkeypatch)
    code, err = _exit_status(capsys, "simulate", *argv, "--tau", "0.7", "--ttilde", "0.5")
    assert code == 2
    assert err.startswith("error: requested at least 2^") and len(err) < 200
    assert err.endswith(f"exceeds budget {DEFAULT_AMPLITUDE_BUDGET}\n")


def test_simulate_random_u_too_large_for_reference_exits_2_before_building_a_code(
        capsys, monkeypatch):
    # at rs(7,2) the sweep fits the default budget but the reference
    # engine's 7^9 amplitudes do not
    _refuse_codes(monkeypatch)
    stated = -(-qsim._reference_peak_bytes(7, 7, 2, True) // 16)
    code, err = _exit_status(capsys, "simulate", "--q", "7", "--n", "7", "--k", "2",
                             "--code", "rs", "--decoder", "bw", "--tau", "0.7",
                             "--ttilde", "0.5", "--u", "random")
    assert code == 2
    assert err == (f"error: requested {stated} amplitudes exceeds budget "
                   f"{DEFAULT_AMPLITUDE_BUDGET}\n")
    qsim.require_peak(7, 7, 2)  # the sweep alone fits


def test_oversized_opi_search_exits_2_before_building_a_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    assert _run(capsys, "opi", "gen", "--q", "1009", "--k", "2", "--set-size", "1",
                "--tau", "0.5", "--out", str(inst))[0] == 0
    _refuse_codes(monkeypatch)
    code, err = _exit_status(capsys, "opi", "solve-bruteforce", "--instance", str(inst))
    assert code == 2
    assert err == (f"error: requested {1009**3} amplitudes exceeds budget "
                   f"{DEFAULT_AMPLITUDE_BUDGET}\n")


def test_simulate_bw_needs_full_support(capsys):
    code, _ = _run(capsys, "simulate", "--q", "3", "--n", "4", "--k", "1",
                   "--code", "random", "--decoder", "bw",
                   "--tau", "0.7", "--ttilde", "0.5", "--sets", "interval:0")
    assert code == 2


def test_simulate_oversized_random_sets_exits_2(capsys):
    code, err = _exit_status(capsys, "simulate", "--q", "5", "--n", "5", "--k", "2",
                             "--tau", "0.7", "--ttilde", "0.5", "--sets", "random:9")
    assert code == 2
    assert err == "error: set size must be in [1, 4], got 9\n"


# ---- opi pipeline ----------------------------------------------------------------


def test_opi_pipeline(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    code, _ = _run(capsys, "opi", "gen", "--q", "5", "--k", "2",
                   "--set-size", "2", "--tau", "0.55", "--seed", "7",
                   "--out", str(inst))
    assert code == 0
    code, _ = _run(capsys, "opi", "solve-bruteforce", "--instance", str(inst),
                   "--out", str(sol))
    assert code == 0
    solution = json.loads(sol.read_text())
    assert {"coeffs", "count"} <= set(solution)
    code, out = _run(capsys, "opi", "verify", "--instance", str(inst),
                     "--solution", str(sol))
    assert code == 0
    assert "meets=True" in out
    code, out = _run(capsys, "opi", "convert", "--instance", str(inst))
    assert code == 0
    conv = json.loads(out)
    assert conv["q"] == 5 and len(conv["syndrome"]) == 3  # n - k checks


def test_opi_verify_fails_below_bar(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    _run(capsys, "opi", "gen", "--q", "5", "--k", "1", "--set-size", "1",
         "--tau", "1.0", "--seed", "2", "--out", str(inst))
    # the file states the exact count, so only the bar can fail it
    instance = opi.OPIInstance.from_dict(json.loads(inst.read_text()))
    count = opi.satisfied_count(instance, [0])
    sol.write_text(json.dumps({"coeffs": [0], "count": count}))
    code, out = _run(capsys, "opi", "verify", "--instance", str(inst),
                     "--solution", str(sol))
    if "meets=True" in out:
        pytest.skip("constant 0 happens to satisfy this instance")
    assert code == 1 and "meets=False" in out


@pytest.mark.parametrize("stated", [None, 99, 3])
def test_opi_verify_fails_a_stated_count_that_is_not_exact(tmp_path, capsys, stated):
    # the brute-force solution of this instance satisfies 4 points; a file
    # stating any other count fails, whether the count is above or below it
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    _run(capsys, "opi", "gen", "--q", "5", "--k", "2", "--set-size", "2",
         "--tau", "0.4", "--seed", "7", "--out", str(inst))
    _run(capsys, "opi", "solve-bruteforce", "--instance", str(inst), "--out", str(sol))
    solution = json.loads(sol.read_text())
    assert solution["count"] == 4
    if stated is not None:
        solution["count"] = stated
        sol.write_text(json.dumps(solution))
    code = main(["opi", "verify", "--instance", str(inst), "--solution", str(sol)])
    captured = capsys.readouterr()
    assert captured.out == "count=4 needed=2 meets=True\n"
    if stated is None:
        assert code == 0 and captured.err == ""
    else:
        assert code == 1
        assert captured.err == (f"error: solution states count={stated}, "
                                "but its exact count is 4\n")


@pytest.mark.parametrize("coeff", [10**23, -1, 5])
def test_opi_verify_coefficients_that_are_not_residues_exit_2(tmp_path, capsys, coeff):
    # 10**23 does not fit an int64; -1 and q are integers outside 0..q-1
    inst = tmp_path / "inst.json"
    _run(capsys, "opi", "gen", "--q", "5", "--k", "2", "--set-size", "2",
         "--tau", "0.55", "--seed", "7", "--out", str(inst))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"coeffs": [coeff, 0], "count": 3}))
    code, err = _exit_status(capsys, "opi", "verify", "--instance", str(inst),
                             "--solution", str(sol))
    assert code == 2
    assert err == "error: coefficients must be residues mod q\n"


def test_opi_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, "opi", "solve-bruteforce", "--instance", str(bad))
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _ = _run(capsys, "opi", "solve-bruteforce",
                   "--instance", str(missing))
    assert code == 2


def test_opi_instance_or_solution_lacking_a_key_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    _run(capsys, "opi", "gen", "--q", "5", "--k", "1", "--set-size", "2",
         "--tau", "0.6", "--out", str(inst))
    doc = json.loads(inst.read_text())
    del doc["q"]
    no_q = tmp_path / "no_q.json"
    no_q.write_text(json.dumps(doc))
    code, err = _exit_status(capsys, "opi", "solve-bruteforce",
                             "--instance", str(no_q))
    assert code == 2
    assert "'q'" in err and "Traceback" not in err
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"count": 5}))
    code, err = _exit_status(capsys, "opi", "verify", "--instance", str(inst),
                             "--solution", str(sol))
    assert code == 2
    assert "'coeffs'" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, shown", [
    ("x", [1.7, 0, 3, 0, 2], "1.7"), ("q", 5.0, "5.0"), ("k", True, "true"), ("k", "2", '"2"'),
    ("sets", [[True, 4], [2, 3], [1, 3], [1, 4], [0, 3]], "true"), ("seed", 7.0, "7.0"),
    ("tau", True, "true"), ("tau", "0.55", '"0.55"'), ("tau", None, "null")])
def test_opi_instance_values_that_are_not_json_integers_exit_2(tmp_path, capsys, key, value,
                                                                shown):
    # int() and float() would read 1.7 as 1, 5.0 as 5, true as 1 and "2" as 2
    inst = tmp_path / "inst.json"
    _run(capsys, "opi", "gen", "--q", "5", "--k", "2", "--set-size", "2",
         "--tau", "0.55", "--seed", "7", "--out", str(inst))
    doc = json.loads(inst.read_text())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, err = _exit_status(capsys, "opi", "convert", "--instance", str(bad))
    assert code == 2
    kind = "a number" if key == "tau" else "an integer"
    assert err == f"error: malformed instance JSON in {bad}: expected {kind}, got {shown}\n"


@pytest.mark.parametrize("solution", [
    {"coeffs": [1.9, 0], "count": 3}, {"coeffs": [1, 0], "count": "3"},
    {"coeffs": [1, False], "count": 3}, {"coeffs": [1, 0], "count": 3.0},
    {"coeffs": "10", "count": 3}])
def test_opi_solution_values_that_are_not_json_integers_exit_2(tmp_path, capsys, solution):
    inst = tmp_path / "inst.json"
    _run(capsys, "opi", "gen", "--q", "5", "--k", "2", "--set-size", "2",
         "--tau", "0.55", "--seed", "7", "--out", str(inst))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(solution))
    code, err = _exit_status(capsys, "opi", "verify", "--instance", str(inst),
                             "--solution", str(sol))
    assert code == 2
    assert err.startswith(f"error: malformed solution JSON in {sol}: expected an integer")
    assert "Traceback" not in err


def test_opi_gen_output_round_trips_byte_identically(tmp_path, capsys):
    for seed, tau in ((7, "0.55"), (0, "1"), (3, "0.2")):
        inst, again = tmp_path / "inst.json", tmp_path / "again.json"
        _run(capsys, "opi", "gen", "--q", "7", "--k", "3", "--set-size", "3",
             "--tau", tau, "--seed", str(seed), "--out", str(inst))
        instance = opi.OPIInstance.from_dict(json.loads(inst.read_text()))
        cli._emit(instance.to_dict(), str(again))
        assert again.read_bytes() == inst.read_bytes()
        solution = tmp_path / "sol.json"
        assert _run(capsys, "opi", "solve-bruteforce", "--instance", str(inst),
                    "--out", str(solution))[0] == 0
        parsed = opi.OPISolution.from_dict(json.loads(solution.read_text()))
        cli._emit(parsed.to_dict(), str(again))
        assert again.read_bytes() == solution.read_bytes()


def test_opi_gen_oversized_sets_exits_2(capsys):
    code, err = _exit_status(capsys, "opi", "gen", "--q", "5", "--k", "2",
                             "--set-size", "6", "--tau", "0.5")
    assert code == 2
    assert err == "error: sets must have one size in [1, 4]\n"


def test_opi_non_prime_modulus_exits_2(tmp_path, capsys):
    code, err = _exit_status(capsys, "opi", "gen", "--q", "4", "--k", "2",
                             "--set-size", "2", "--tau", "0.5")
    assert code == 2
    assert "prime" in err and "Traceback" not in err
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"q": 4, "k": 2, "tau": 0.5, "seed": 0,
                                "sets": [[0, 1]] * 4, "x": [0, 1, 2, 3]}))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"coeffs": [0, 0], "count": 4}))
    for argv in (["solve-bruteforce", "--instance", str(inst)],
                 ["verify", "--instance", str(inst), "--solution", str(sol)],
                 ["convert", "--instance", str(inst)]):
        code, err = _exit_status(capsys, "opi", *argv)
        assert code == 2, argv
        assert "prime" in err and "Traceback" not in err


def test_opi_full_sets_exit_2(tmp_path, capsys):
    # every polynomial meets a full set, so such an instance is trivial
    code, err = _exit_status(capsys, "opi", "gen", "--q", "5", "--k", "2",
                             "--set-size", "5", "--tau", "0.5")
    assert code == 2
    assert "size" in err and "Traceback" not in err
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"q": 5, "k": 2, "tau": 0.5, "seed": 0,
                                "sets": [list(range(5))] * 5, "x": [0, 1, 2, 3, 4]}))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"coeffs": [0, 0], "count": 5}))
    for argv in (["solve-bruteforce", "--instance", str(inst)],
                 ["verify", "--instance", str(inst), "--solution", str(sol)],
                 ["convert", "--instance", str(inst)]):
        code, err = _exit_status(capsys, "opi", *argv)
        assert code == 2, argv
        assert "size" in err and "Traceback" not in err


# ---- selfcheck -------------------------------------------------------------------


def test_selfcheck_passes(capsys):
    code, out = _run(capsys, "selfcheck", "--seed", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)
    assert "8/8 suites passed" in out


def test_selfcheck_negative_control(capsys, monkeypatch):
    # one failing suite fails the run, and only its line reads FAIL
    monkeypatch.setattr(cli, "_suite_parseval", lambda seed: (False, "forced"))
    code, out = _run(capsys, "selfcheck", "--seed", "1")
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1
    assert "parseval" in fails[0]


# ---- argparse behaviour ------------------------------------------------------------


README_SIMULATE = ["simulate", "--q", "5", "--n", "5", "--k", "2", "--code", "rs",
                   "--decoder", "bw", "--tau", "0.7", "--ttilde", "0.5",
                   "--sets", "interval:1", "--u", "all", "--format", "json"]


def test_one_parser_per_process_gives_each_call_its_own_result(capsys):
    # main keeps one parser; each call still parses into a fresh namespace
    code, first = _run(capsys, *README_SIMULATE)
    assert code == 0 and json.loads(first)["report"]["ok"]
    assert _run(capsys, *README_SIMULATE, "--budget", "1")[0] == 2
    code, out = _run(capsys, "thresholds", "curves", "--rho", "0.5",
                     "--grid", "0.1:0.2:0.1")
    assert code == 0 and out.startswith("R,rho,tau_classical")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--q", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again = _run(capsys, *README_SIMULATE)
    assert code == 0 and again == first
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("argv", [
    ("opi", "verify", "--instance", "i.json", "--solution", "s.json", "--budget", "1"),
    ("opi", "convert", "--instance", "i.json", "--budget", "1"),
    ("selfcheck", "--parseval-tol", "1"),
])
def test_options_no_command_reads_are_usage_errors(capsys, argv):
    # only solve-bruteforce states a peak, and selfcheck's tolerances are fixed
    code, err = _exit_status(capsys, *argv)
    assert code == 2 and "unrecognized arguments" in err


def test_usage_error_raises_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--q", "3"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_no_args_shows_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
