"""Compile identity: every pinned cell links to the same image as before.

``tests/golden/compile_identity.json`` records, per (workload, config)
cell, :meth:`CompiledBinary.fingerprint`, the per-function
``alloc_stats`` and the ``pass_stats`` of a cold compile.  It guards the
compile memo in :mod:`repro.eval.harness` and every compile-time
analysis that must not change its output (register allocation,
predecessor maps, dominators): a diff here means some linked image moved.

The cells are the 14-program roster under the five presets plus
``bitspec-max`` with inverted handler weights, and every cell of the DSE
``mini`` grid.  The test compiles them through ``harness.get_binary``, so
shared profiles and binaries are exercised exactly as a sweep uses them.

Regenerate intentionally (and review the diff) with::

    PYTHONPATH=src python tests/test_compile_identity.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import CompilerConfig
from repro.dse.space import PRESETS
from repro.eval import harness

GOLDEN = Path(__file__).parent / "golden" / "compile_identity.json"


def roster_configs() -> list:
    return [
        CompilerConfig.baseline(),
        CompilerConfig.bitspec("max"),
        CompilerConfig.bitspec("avg"),
        CompilerConfig.nospec(),
        CompilerConfig.thumb(),
        CompilerConfig.bitspec(
            "max", name="bitspec-max-inverted", invert_handler_weights=True
        ),
    ]


def cells() -> list:
    """``(cell id, workload, config)`` in a fixed order."""
    out = [
        (f"{w}/{c.name}", w, c)
        for c in roster_configs()
        for w in harness.BENCHMARKS
    ]
    space, roster = PRESETS["mini"]
    for point in space.points():
        config = point.to_config()
        out.extend((f"{w}/{config.name}", w, config) for w in roster)
    return out


def _alloc_entry(stats) -> dict:
    """``AllocationStats`` as JSON, its per-vreg map folded to a digest."""
    entry = dataclasses.asdict(stats)
    assignments = json.dumps(entry.pop("assignments"), sort_keys=True)
    entry["assignments_sha256"] = hashlib.sha256(assignments.encode()).hexdigest()
    return entry


def identity(binary) -> dict:
    return {
        "fingerprint": binary.fingerprint(),
        "alloc_stats": {
            name: _alloc_entry(stats)
            for name, stats in sorted(binary.alloc_stats.items())
        },
        "pass_stats": binary.pass_stats,
    }


def snapshot() -> dict:
    harness.clear_caches()
    try:
        return {
            cell: json.loads(json.dumps(identity(harness.get_binary(w, c))))
            for cell, w, c in cells()
        }
    finally:
        harness.clear_caches()


@pytest.mark.slow
def test_compile_identity_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert sorted(got) == sorted(golden)
    drifted = [cell for cell in golden if got[cell] != golden[cell]]
    assert not drifted, f"{len(drifted)} cell(s) drifted, first: {drifted[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
