"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Every workload runs at a tiny size (``--max-ops 3``), untraced and traced.
The test passes when

1. every metric ``BENCHMARK.json`` names is emitted, with its unit;
2. no op fails (``fail_ratio`` is 0);
3. with every reference row deliberately corrupted, each workload reports
   failures — the correctness gate can fail.

Exits 0 when all three hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from oracle import REFERENCE_DIR, STATS_FIELDS

MAX_OPS = 3


def _run(workload: str, trace: int, *extra) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
        "--max-ops", str(MAX_OPS), *extra,
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _corrupt_references(target: Path) -> None:
    """Copy the references with every cell's instruction count off by one."""
    index = STATS_FIELDS.index("instructions")
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for path in REFERENCE_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        for row in doc["cells"].values():
            row[index] += 1
        (target / path.name).write_text(json.dumps(doc))


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if result["failed"] or not result["correct"]:
                problems.append(
                    f"{workload} trace={trace}: {result['failed']} of "
                    f"{result['attempted']} ops failed"
                )
            print(f"{workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(got)} metrics")
    corrupt = Path(".perfbench_out") / "smoke-reference"
    _corrupt_references(corrupt)
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            result = _run(workload, 0, "--reference-dir", str(corrupt))
            if result["correct"] or result["failed"] != result["attempted"]:
                problems.append(
                    f"{workload}: corrupted reference gave {result['failed']} "
                    f"failures in {result['attempted']} ops"
                )
            print(f"{workload} corrupted reference: "
                  f"{result['failed']}/{result['attempted']} ops failed")
    finally:
        shutil.rmtree(corrupt, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
