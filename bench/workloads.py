"""The benchmark's workloads: seeded case lists and their correctness checks.

Every case is one timed call into cosetlab's public API (`run`) and an
untimed check of its output (`check`), which returns the problems it found
and a summary of the numbers that golden.json records. A case's `key` names
every input that determines its output; golden values are compared whenever
golden.json holds the key, which for seeded cases means the default seed 0.

Workloads are closed loops with one client: a pass runs the fixed case list
in order, each case after the previous one returns. Why each workload exists
and which layers it stresses is written in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cosetlab import cli, codes, decode, galois, opi
from cosetlab.config import TOL

WORKLOADS = ("sweep", "oracles", "thresholds")

# Criterion 01's reference cells (3 decimals), columns classical, bw, gs, kv.
REFERENCE_TABLE = [
    ("R=0.1", (0.55, 0.718, 0.721, 0.722)),
    ("R=0.75", (0.875, 0.984, 1.0, 1.0)),
    ("R=2/3", (0.833, 0.971, 0.994, 1.0)),
    ("opt-bw", (0.55, 0.749, 0.760, 0.763)),
    ("opt-gs", (0.55, 0.748, 0.761, 0.765)),
    ("opt-kv", (0.55, 0.748, 0.761, 0.765)),
]

# Golden fields compared within a config.TOL field; all others must be equal.
FIELD_TOL = {
    "p_u": TOL.bound_slack,
    "mean_p": TOL.bound_slack,
    "p_dec": TOL.bound_slack,
    "bound": TOL.bound_slack,
    "post_select_prob": TOL.bound_slack,
    "eta": TOL.identity,
    "cells": TOL.bisection,
}


@dataclass
class Case:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict]]


def compare_golden(summary: dict, golden: dict) -> list[str]:
    """Problems where `summary` departs from the recorded golden values."""
    problems = []
    for field, want in golden.items():
        have = summary.get(field)
        tol = FIELD_TOL.get(field)
        if tol is None:
            if have != want:
                problems.append(f"{field}: got {have!r}, golden {want!r}")
            continue
        have_arr = np.asarray(have, dtype=float)
        want_arr = np.asarray(want, dtype=float)
        if have_arr.shape != want_arr.shape:
            problems.append(f"{field}: shape {have_arr.shape}, golden {want_arr.shape}")
        elif np.any(np.abs(have_arr - want_arr) > tol):
            worst = float(np.max(np.abs(have_arr - want_arr)))
            problems.append(f"{field}: off golden by {worst:.3e} > {tol:.0e}")
    return problems


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _lower_bound(p_dec: float, eta: float) -> float:
    return p_dec * (1.0 - eta) - 2.0 * math.sqrt(max(eta * p_dec * (1.0 - p_dec), 0.0))


# ---- sweep and the reference engine: `cosetlab simulate` ------------------------


def _simulate_case(args: list[str], seed: int, n_outcomes: int) -> Case:
    argv = ["simulate", *args, "--seed", str(seed), "--format", "json"]

    def check(res):
        code, text, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"], {}
        payload = json.loads(text)
        outs, rep = payload["outcomes"], payload["report"]
        p_u = [o["p_u"] for o in outs]
        accept = outs[0]["post_select_prob"]
        summary = {"p_u": p_u, "mean_p": rep["mean_p"], "p_dec": rep["p_dec"],
                   "eta": rep["eta"], "bound": rep["bound"],
                   "post_select_prob": accept}
        problems = []
        if len(p_u) != n_outcomes:
            problems.append(f"{len(p_u)} outcomes, want {n_outcomes}")
        if not rep["ok"]:
            problems.append("report not ok")
        mean_p = math.fsum(p_u) / len(p_u)
        bound = _lower_bound(rep["p_dec"], rep["eta"])
        if mean_p - bound < -TOL.bound_slack:
            problems.append(f"mean p_u {mean_p:.12f} below bound {bound:.12f}")
        if abs(accept - rep["p_dec"]) > TOL.bound_slack:
            problems.append(f"acceptance - p_dec = {accept - rep['p_dec']:.3e}")
        return problems, summary

    return Case(" ".join(argv), lambda: _cli(argv), check)


def sweep_cases(seed: int) -> list[Case]:
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=7)
    q5 = ["--tau", "0.7", "--ttilde", "0.5"]
    specs = [
        # the README example: BW decoder, symmetrized sweep
        (["--q", "5", "--n", "5", "--k", "2", "--code", "rs", "--decoder", "bw",
          *q5, "--sets", "interval:1", "--u", "all"], 25),
        (["--q", "5", "--n", "5", "--k", "2", "--code", "rs", "--decoder", "nearest",
          *q5, "--sets", "interval:1", "--u", "all"], 25),
        (["--q", "5", "--n", "5", "--k", "1", "--code", "rs", "--decoder", "nearest",
          *q5, "--sets", "interval:1", "--u", "all"], 5),
        (["--q", "5", "--n", "5", "--k", "2", "--code", "random", "--decoder", "nearest",
          *q5, "--sets", "random:3", "--u", "all"], 25),
        (["--q", "3", "--n", "3", "--k", "1", "--code", "rs", "--decoder", "nearest",
          *q5, "--sets", "interval:0", "--u", "all"], 3),
        (["--q", "3", "--n", "3", "--k", "2", "--code", "rs", "--decoder", "nearest",
          *q5, "--sets", "interval:0", "--u", "all"], 9),
        (["--q", "3", "--n", "5", "--k", "2", "--code", "random", "--decoder", "nearest",
          *q5, "--sets", "random:1", "--u", "all"], 9),
    ]
    return [_simulate_case(args, int(s), n) for (args, n), s in zip(specs, seeds)]


# ---- oracles: decoders, elimination, reference engine, selfcheck, opi ----------


def _bw_words_case(seed: int, count: int = 1500) -> Case:
    """Codeword plus weight <= 2 error at rs(7,3): inside the unique radius."""
    code = codes.rs_code(7, 3)
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 7, size=(count, 3))
    words = (messages @ code.G) % 7
    weights = rng.integers(0, 3, size=count)
    for row, weight in zip(words, weights):
        spots = rng.choice(7, size=weight, replace=False)
        row[spots] = (row[spots] + rng.integers(1, 7, size=weight)) % 7

    def run():
        return [decode.berlekamp_welch(code, y) for y in words]

    def check(got):
        # nearest-codeword oracle: unique within radius 2 because d = 5
        codewords = code.codewords()
        dists = (words[:, None, :] != codewords[None, :, :]).sum(axis=2)
        nearest = code.messages()[dists.argmin(axis=1)]
        problems = []
        if np.any(dists.min(axis=1) > 2):
            problems.append("a received word lies outside radius 2")
        misses = [i for i, m in enumerate(got)
                  if m is None or not np.array_equal(m, nearest[i])]
        if misses:
            problems.append(f"{len(misses)} BW results differ from the oracle")
            return problems, {}
        return problems, {"bw_messages": _digest(np.stack(got))}

    return Case(f"berlekamp_welch rs(7,3) words={count} seed={seed}", run, check)


def _bw_table_case() -> Case:
    code = codes.rs_code(5, 2)

    def run():
        return decode.BerlekampWelchDecoder(code).table()

    def check(table):
        words = galois.all_vectors(5, 5)
        dists = (words[:, None, :] != code.codewords()[None, :, :]).sum(axis=2)
        radius = (code.n - code.k) // 2
        want = np.where(dists.min(axis=1) <= radius, dists.argmin(axis=1), 0)
        problems = [] if np.array_equal(table, want) else [
            "BW table differs from the nearest-codeword oracle within radius"]
        return problems, {"table": _digest(table)}

    return Case("BerlekampWelchDecoder(rs(5,2)).table", run, check)


def _nearest_table_case(seed: int) -> Case:
    code = codes.rs_code(7, 1)
    sample = np.random.default_rng(seed).integers(0, 7**7, size=200)

    def run():
        return decode.BruteForceNearestDecoder(code).table()

    def check(table):
        # the scalar nearest-codeword search on seeded words is the oracle
        radix = 7 ** np.arange(6, -1, -1)
        problems = []
        for idx in sample:
            y = (idx // radix) % 7
            want = int(decode.brute_force_nearest(code, y)[0])
            if table[idx] != want:
                problems.append(f"word {idx}: table {table[idx]}, oracle {want}")
                break
        return problems, {"table": _digest(table)}

    return Case("BruteForceNearestDecoder(rs(7,1)).table", run, check)


def _selfcheck_case(seed: int) -> Case:
    argv = ["selfcheck", "--seed", str(seed)]

    def check(res):
        code, text, err = res
        lines = text.strip().splitlines()
        problems = [] if code == 0 else [f"exit {code}: {err.strip()[-200:]}"]
        if not lines or lines[-1] != "8/8 suites passed":
            problems.append(f"selfcheck ended with {lines[-1:]!r}")
        return problems, {"suites": [line.split(":")[0] for line in lines[:-1]]}

    return Case(" ".join(argv), lambda: _cli(argv), check)


def _opi_case(seed: int, workdir: Path) -> Case:
    inst, sol = str(workdir / "instance.json"), str(workdir / "solution.json")
    gen = ["opi", "gen", "--q", "11", "--k", "2", "--set-size", "5", "--tau", "0.3",
           "--seed", str(seed), "--out", inst]

    def run():
        steps = [_cli(gen),
                 _cli(["opi", "solve-bruteforce", "--instance", inst, "--out", sol]),
                 _cli(["opi", "verify", "--instance", inst, "--solution", sol])]
        with open(inst) as fh:
            instance = opi.OPIInstance.from_json(fh.read())
        code, u, constraint = opi.opi_to_icc(instance)
        y, icc_count = opi.brute_force_icc(code, u, constraint)
        back = opi.icc_to_opi(instance, y)
        return steps, icc_count, back

    def check(res):
        steps, icc_count, back = res
        problems = [f"opi step {i} exit {code}: {err.strip()[-200:]}"
                    for i, (code, _, err) in enumerate(steps) if code != 0]
        if problems:
            return problems, {}
        with open(sol) as fh:
            opi_count = int(json.load(fh)["count"])
        verified = steps[2][1].strip()
        # tau 0.3 at q = 11 needs ceil(3.3) = 4 satisfied points
        if verified != f"count={opi_count} needed=4 meets=True":
            problems.append(f"verify printed {verified!r}")
        if not opi_count == icc_count == back.count:
            problems.append(f"counts disagree: opi {opi_count}, coset {icc_count}, "
                            f"back {back.count}")
        return problems, {"opi_count": opi_count, "icc_count": icc_count}

    return Case(" ".join(gen[:-2]), run, check)


def oracle_cases(seed: int, workdir: Path) -> list[Case]:
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=5)
    reference = _simulate_case(
        ["--q", "5", "--n", "4", "--k", "2", "--code", "random", "--decoder", "nearest",
         "--tau", "0.8", "--ttilde", "0.5", "--sets", "random:2", "--u", "random"],
        int(seeds[2]), 1)
    return [_bw_words_case(int(seeds[0])), _bw_table_case(),
            _nearest_table_case(int(seeds[1])), reference,
            _selfcheck_case(int(seeds[3])), _opi_case(int(seeds[4]), workdir)]


# ---- thresholds: the scalar solver -------------------------------------------


def _rows_summary(rows: list[dict]) -> list[list[float]]:
    return [[r["R"], r["rho"], r["tau_classical"], r["tau_bw"], r["tau_gs"], r["tau_kv"]]
            for r in rows]


def _range_problems(rows: list[dict]) -> list[str]:
    return [f"{r['label']}: {col} = {r[col]} outside [rho, 1]"
            for r in rows for col in ("tau_classical", "tau_bw", "tau_gs", "tau_kv")
            if not r["rho"] - TOL.bisection <= r[col] <= 1.0]


def _table1_case(kv_q: int | None) -> Case:
    argv = ["thresholds", "table1", "--format", "json"]
    if kv_q is not None:
        argv += ["--kv-q", str(kv_q)]
    # the kv column snaps to a concrete prime with --kv-q; the rest is unchanged
    columns = ("tau_classical", "tau_bw", "tau_gs") + (("tau_kv",) if kv_q is None else ())

    def check(res):
        code, text, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"], {}
        rows = json.loads(text)
        problems = _range_problems(rows)
        if [r["label"] for r in rows] != [label for label, _ in REFERENCE_TABLE]:
            return problems + ["row labels differ from the reference"], {}
        for row, (label, cells) in zip(rows, REFERENCE_TABLE):
            for col, want in zip(("tau_classical", "tau_bw", "tau_gs", "tau_kv"), cells):
                if col in columns and abs(row[col] - want) > TOL.table_cells:
                    problems.append(f"{label}/{col}: {row[col]:.6f} vs reference {want}")
        return problems, {"cells": _rows_summary(rows)}

    return Case(" ".join(argv), lambda: _cli(argv), check)


def _curves_case(rho: float, grid: str = "0.05:0.95:0.01") -> Case:
    argv = ["thresholds", "curves", "--rho", str(rho), "--grid", grid,
            "--format", "json"]

    def check(res):
        code, text, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"], {}
        rows = json.loads(text)
        problems = _range_problems(rows)
        if len(rows) != 91:
            problems.append(f"{len(rows)} rows, want 91")
        for r in rows:
            closed = r["rho"] + r["R"] * (1.0 - r["rho"])
            if abs(r["tau_classical"] - closed) > TOL.identity:
                problems.append(f"{r['label']}: classical {r['tau_classical']} != {closed}")
        return problems, {"cells": _rows_summary(rows)}

    return Case(" ".join(argv), lambda: _cli(argv), check)


def threshold_cases() -> list[Case]:
    return [_table1_case(None), _table1_case(11),
            _curves_case(0.3), _curves_case(0.5), _curves_case(0.7)]


# ---- entry points ---------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """The workload's fixed case list for one seed."""
    seed &= 2**64 - 1  # numpy seeds must be non-negative
    if workload == "sweep":
        return sweep_cases(seed)
    if workload == "oracles":
        return oracle_cases(seed, workdir)
    if workload == "thresholds":
        return threshold_cases()
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warm_up(workload: str) -> None:
    """One small call on each code path the workload times, untimed."""
    if workload == "thresholds":
        _cli(["thresholds", "curves", "--rho", "0.5", "--grid", "0.1:0.2:0.1"])
        return
    _cli(["simulate", "--q", "3", "--n", "3", "--k", "1", "--tau", "0.7",
          "--ttilde", "0.5", "--u", "all", "--format", "json"])
    if workload == "oracles":
        _cli(["simulate", "--q", "3", "--n", "3", "--k", "1", "--tau", "0.7",
              "--ttilde", "0.5", "--u", "random", "--format", "json"])
        decode.berlekamp_welch(codes.rs_code(7, 3), np.zeros(7, dtype=np.int64))


def scratch_dir(root: Path):
    """A temporary directory under `root` for CLI files; removed on exit."""
    root.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root)
