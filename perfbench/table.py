"""Run every workload once and print each end-to-end metric by name and unit.

    python3 perfbench/table.py

Each workload runs as the benchmark runs it: ``--seconds`` is BENCHMARK.json's
``run_seconds``, ``--trace 0`` and a fixed seed.  ``ops`` and ``ops_failed``
are the ``attempted`` and ``failed`` counts of each run; the exit code is 1 if
any run could not complete or any operation failed its correctness gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    print(f"{'workload':<18} {'metric':<36} {'value':>20}  unit")
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(SEED),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name:<18} run failed (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        rows = [("ops", result["attempted"], "count"), ("ops_failed", result["failed"], "count")]
        rows += [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        for metric, value, unit in rows:
            print(f"{name:<18} {metric:<36} {value:>20.6g}  {unit}")
        status |= result["failed"] > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
