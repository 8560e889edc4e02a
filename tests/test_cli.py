import dataclasses
import json

import pytest

from cosetlab import codes, qsim
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
    sol.write_text(json.dumps({"coeffs": [0], "count": 5}))
    code, out = _run(capsys, "opi", "verify", "--instance", str(inst),
                     "--solution", str(sol))
    if "meets=True" in out:
        pytest.skip("constant 0 happens to satisfy this instance")
    assert code == 1 and "meets=False" in out


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


def test_selfcheck_negative_control(capsys):
    # an impossible tolerance must fail exactly the transform suite
    code, out = _run(capsys, "selfcheck", "--seed", "1",
                     "--parseval-tol", "1e-20")
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


def test_usage_error_raises_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--q", "3"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_no_args_shows_usage(capsys):
    with pytest.raises(SystemExit):
        main([])
