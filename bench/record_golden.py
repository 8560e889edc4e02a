"""Record golden.json: every workload's outputs at the default seed 0.

    PYTHONPATH=src python3 bench/record_golden.py

Runs each case of each workload once, refuses to record if any invariant
check fails, and writes the summaries the checks return, keyed by case.
Record only from a commit whose outputs are the reference; the benchmark
then compares later commits against them within the config.TOL fields.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main() -> int:
    golden = {}
    with workloads.scratch_dir(GOLDEN.parent / ".work") as workdir:
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, 0, Path(workdir)):
                problems, summary = case.check(case.run())
                if problems:
                    print(f"{case.key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                golden[case.key] = summary
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
