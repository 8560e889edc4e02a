"""cosetlab benchmark launcher.

    python3 bench/run.py --workload sweep --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --smoke

Runs one workload (sweep, oracles or thresholds; see README.md beside this
file) in a fresh worker process with the BLAS/OpenMP thread count pinned,
and prints every metric by name and unit. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--smoke runs one pass of every workload and prints the end-to-end lines.

cosetlab is imported from src/ beside this directory; without it the
launcher exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep", "oracles", "thresholds")
# single-threaded BLAS (at most nproc): the steadiest setting on a small
# shared machine, and the plain single-threaded baseline
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up-only processes started besides the measuring one; set-up time is
# the median over all of them
SETUP_PROCESSES = 4
# every run ends within this many seconds (a 180 s limit less a margin)
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "case_p50_ms": "ms",
                    "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of every workload, end-to-end metrics only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py once and return its JSON; raise on any failure."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: str(THREADS) for name in THREAD_VARS})
    command = [sys.executable, str(BENCH_DIR / "worker.py"), *args,
               "--t0", repr(time.time())]
    # subprocess.run kills and reaps the worker if the deadline passes
    proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw: dict, setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        # each case's fastest run, not a median: see "Run-to-run spread" in README.md
        "pass_s": raw["best_pass_s"],
        "case_p50_ms": 1e3 * statistics.median(raw["latencies"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".peak_mib"):
        return "MiB"
    if name.endswith(".amp_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report_line(workload: str, raw: dict, metrics: dict[str, float]) -> str:
    cells = [f"{name}={metrics[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()]
    fail_frac = raw["failed"] / raw["attempted"]
    return (f"{workload}: {' '.join(cells)} fail_frac={fail_frac:.6g} ratio "
            f"(passes {len(raw['pass_times'])}, cases {raw['attempted']}, "
            f"case samples {len(raw['latencies'])})")


def environment(raw: dict) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "threads_pinned": THREADS, **raw["env"]}


def run_workload(args: argparse.Namespace, deadline: float) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            setups.append(worker([*common, "--setup-only"], deadline)["setup_s"])
    raw = worker([*common, "--trace", str(args.trace)], deadline)
    print("env: " + json.dumps(environment(raw), sort_keys=True))
    for problem in raw["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.trace:
        metrics = raw["layers"]
        units = {name: layer_unit(name) for name in metrics}
        print(f"{args.workload}: tracing overhead {metrics['trace.overhead_s']:.3f} s per pass "
              f"(traced {metrics['trace.traced_pass_s']:.3f} s, "
              f"untraced {metrics['trace.untraced_pass_s']:.3f} s)")
    else:
        setups.append(raw["setup_s"])
        metrics = end_to_end(raw, setups)
        units = END_TO_END_UNITS
        print(report_line(args.workload, raw, metrics))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def smoke(args: argparse.Namespace, deadline: float) -> dict:
    attempted = failed = 0
    for workload in WORKLOADS:
        raw = worker(["--workload", workload, "--seed", str(args.seed),
                      "--seconds", "0", "--passes", "1"], deadline)
        if workload == WORKLOADS[0]:
            print("env: " + json.dumps(environment(raw), sort_keys=True))
        for problem in raw["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
        print(report_line(workload, raw, end_to_end(raw, [raw["setup_s"]])))
        attempted += raw["attempted"]
        failed += raw["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "cosetlab" / "__init__.py").is_file():
        print(f"error: no cosetlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = smoke(args, deadline) if args.smoke else run_workload(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
