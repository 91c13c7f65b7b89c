"""Rebuild the stored reference statistics rows.

Run from the root of a checkout, on code whose simulated statistics are
known good (the benchmark then holds every later change to them):

    python3 perfbench/make_reference.py [workload ...]

Each workload runs over its whole input pool; every output must match its
oracle before ``reference/<workload>.json`` is written.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from run import _prepare_checkout


def main(argv) -> int:
    root = Path.cwd()
    _prepare_checkout(root)
    from oracle import digest, save_reference
    from workloads import WORKLOADS

    names = argv or sorted(WORKLOADS)
    status = 0
    for name in names:
        cls = WORKLOADS[name]
        workload = cls(0, 0, None, full=True)
        workload.units = workload.max_units() if name == "input-sweep" else 1
        started = time.perf_counter()
        workload.setup()
        try:
            ops, _wall = workload.run()
        finally:
            workload.teardown()
        rows = workload.check(ops, None)
        failed = [op for op in ops if op.error]
        for op in failed:
            print(f"{name}: FAILED {op.cell}: {op.error}")
        if failed:
            status = 1
            continue
        path = save_reference(name, rows)
        print(
            f"{name}: {len(rows)} cells, digest {digest(rows)[:16]}, "
            f"{time.perf_counter() - started:.1f} s -> {path.relative_to(root)}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
