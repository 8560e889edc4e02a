"""Smoke test of the benchmark: one pass of every workload at seed 0.

    python3 -m pytest bench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
UNITS = {"setup_s": "s", "pass_s": "s", "case_p50_ms": "ms",
         "peak_rss_mib": "MiB", "fail_frac": "ratio"}


def test_smoke_prints_end_to_end_metrics_and_no_case_fails():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    by_workload = {line.split(":")[0]: line for line in lines[:-1]}
    for workload in ("sweep", "oracles", "thresholds"):
        line = by_workload[workload]
        values = {}
        for name, unit in UNITS.items():
            match = re.search(rf"\b{name}=(\S+) {unit}\b", line)
            assert match, f"{workload}: no {name} in {unit} in {line!r}"
            values[name] = float(match.group(1))
        assert values["fail_frac"] == 0.0, proc.stderr
        assert values["pass_s"] > 0 and values["setup_s"] > 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
