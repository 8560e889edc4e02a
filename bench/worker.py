"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by run.py with the thread-count variables already pinned; prints one
JSON line of raw measurements for run.py to aggregate. With --setup-only it
stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import layers
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=0,
                        help="stop after this many passes (0: run for --seconds)")
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time at which the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Loop:
    """Closed-loop passes over a case list, with checks outside the timing."""

    def __init__(self, cases, golden: dict, recorder=None):
        self.cases = cases
        self.golden = golden
        self.recorder = recorder
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.best: list[float] = [math.inf] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> None:
        total = 0.0
        for index, case in enumerate(self.cases):
            self.attempted += 1
            error = None
            # start each case with the collector empty, so that garbage from
            # earlier cases and from the checks is not collected on its clock
            gc.collect()
            if self.recorder is not None:
                self.recorder.enabled = True
            start = time.perf_counter_ns()
            try:
                out = case.run()
            except Exception:  # a failing case is counted, the run goes on
                error = traceback.format_exc()
            elapsed = (time.perf_counter_ns() - start) / 1e9
            if self.recorder is not None:
                self.recorder.enabled = False
            total += elapsed
            self.latencies.append(elapsed)
            self.best[index] = min(self.best[index], elapsed)
            if error is None:
                problems, summary = case.check(out)
                if case.key in self.golden and not problems:
                    problems = workloads.compare_golden(summary, self.golden[case.key])
            else:
                problems = [error]
            if problems:
                self.failed += 1
                self.problems.append(f"{case.key}: {'; '.join(problems)}")
        self.pass_times.append(total)

    def best_pass(self) -> float:
        """One pass made of each case's fastest run (see README.md)."""
        return sum(self.best)

    def run_for(self, seconds: float, passes: int) -> None:
        """At least one pass; more while time remains (or until `passes`)."""
        begin = time.perf_counter()
        while True:
            self.one_pass()
            done = len(self.pass_times)
            if passes and done >= passes:
                return
            if not passes and time.perf_counter() - begin >= seconds:
                return


def layer_metrics(recorder, passes: int) -> dict[str, float]:
    """Per-pass self time and calls, peak MiB, and the counters, by name."""
    out = {}
    for name, (self_s, calls, peak_mib) in recorder.layer_stats().items():
        out[f"{name}.s"] = self_s / passes
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.peak_mib"] = peak_mib
    c = recorder.counters
    out["decode.table.words"] = c.get("table_words", 0.0) / passes
    bw_calls = c.get("bw_calls", 0.0)
    out["decode.berlekamp_welch.hit_frac"] = c.get("bw_hits", 0.0) / bw_calls if bw_calls else 0.0
    out["qsim.run_reduction_sweep.amp_bytes"] = c.get("sweep_amp_bytes", 0.0) / passes
    out["qsim.run_reduction.amp_bytes"] = c.get("reduction_amp_bytes", 0.0) / passes
    sweeps = c.get("sweeps", 0.0)
    out["qsim.symmetrized_frac"] = c.get("sweeps_symmetrized", 0.0) / sweeps if sweeps else 0.0
    return out


def environment() -> dict:
    """numpy and BLAS versions, and the thread variables this process saw."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    with workloads.scratch_dir(BENCH_DIR / ".work") as workdir:
        cases = workloads.build(args.workload, args.seed, Path(workdir))
        workloads.warm_up(args.workload)
        setup_s = time.time() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        result = {"setup_s": setup_s}
        if args.trace:
            # one untraced pass first: traced minus untraced is the overhead
            baseline = Loop(cases, golden)
            baseline.run_for(0.0, 1)
            recorder = spans.Recorder(list(layers.TARGETS))
            restore = spans.install(recorder, layers.TARGETS, layers.MODULES)
            tracemalloc.start()
            try:
                loop = Loop(cases, golden, recorder)
                loop.run_for(args.seconds - sum(baseline.pass_times), args.passes)
            finally:
                tracemalloc.stop()
                restore()
            # the same statistic as the end-to-end pass_s
            untraced = baseline.best_pass()
            traced = loop.best_pass()
            result["layers"] = layer_metrics(recorder, len(loop.pass_times))
            result["layers"].update({
                "trace.untraced_pass_s": untraced,
                "trace.traced_pass_s": traced,
                "trace.overhead_s": traced - untraced,
            })
            loops = (baseline, loop)
        else:
            loop = Loop(cases, golden)
            loop.run_for(args.seconds, args.passes)
            loops = (loop,)

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update({
        "env": environment(),
        "pass_times": loop.pass_times,
        "best_pass_s": loop.best_pass(),
        "latencies": loop.latencies,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "problems": [p for lp in loops for p in lp.problems],
        "peak_rss_mib": rss_kib / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
