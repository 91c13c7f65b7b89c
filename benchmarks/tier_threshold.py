"""Measure the two costs that set ``repro.arch.predecode.HOT_THRESHOLD``.

Ski rental: interpreting one pass through a region is the rent,
translating it (emit + ``compile()``) is the purchase, and the
break-even entry count is purchase / rent.  For each program of
perfbench's input-sweep (``bitspec-max``, profiled on ``train:0``, run
on ``test:1``) this script times

* the dispatch loop alone (threshold ``math.inf``), less a run stopped
  by ``checkpoint_at=0`` (set-up, no instructions), giving the
  interpreted cost per instruction, and
* ``repro.arch.tier.translate`` for every region the run enters (those
  a run at threshold 0 translates),

then prints the break-even count per region length and the median over
all entered regions.  Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/tier_threshold.py
"""

from __future__ import annotations

import math
import statistics
import time

from repro.arch.machine import Machine
from repro.arch.predecode import predecode, run_fast
from repro.arch.tier import translate, translations
from repro.arch.widths import slice_mask
from repro.eval import harness
from repro.workloads import get_workload

PROGRAMS = ("crc32", "bitcount", "patricia", "qsort", "stringsearch",
            "susan-smoothing", "susan-corners")


def _best_of(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure(program):
    """``[(region length, translate seconds, interpreted seconds/entry)]``."""
    binary = harness.get_binary(program, harness.bitspec_config("max"),
                                profile_kind="train", profile_seed=0)
    linked = binary.linked
    inputs = get_workload(program).inputs("test", 1)
    machine = Machine(linked, binary.module, inputs=inputs)
    run_fast(machine, _threshold=math.inf)  # predecode outside the timing
    seconds, sim = _best_of(lambda: run_fast(machine, _threshold=math.inf))
    setup, _ = _best_of(
        lambda: run_fast(machine, checkpoint_at=0, _threshold=math.inf))
    per_inst = (seconds - setup) / sim.instructions
    code, _ = predecode(linked, machine.narrow_rf)
    spec_mask = slice_mask(machine.slice_width)
    run_fast(machine, _threshold=0)
    rows = []
    for pc in sorted(translations(linked, machine.narrow_rf, machine.slice_width)):
        cost, region = _best_of(
            lambda: translate(code, pc, linked.inst_bytes, spec_mask))
        rows.append((region.length, cost, region.length * per_inst))
    return per_inst, rows


def main():
    everything = []
    for program in PROGRAMS:
        per_inst, rows = measure(program)
        everything.extend(rows)
        print(f"{program:16s} interpreted {per_inst * 1e9:6.0f} ns/inst, "
              f"{len(rows):3d} regions entered, translate median "
              f"{statistics.median(r[1] for r in rows) * 1e6:6.0f} us")
    print("\nlength  regions  translate_us  rent_us  break-even entries")
    for lo, hi in ((1, 4), (5, 8), (9, 16), (17, 32), (33, 10**9)):
        rows = [r for r in everything if lo <= r[0] <= hi]
        if rows:
            cost = statistics.median(r[1] for r in rows)
            rent = statistics.median(r[2] for r in rows)
            print(f"{lo:>3}-{min(hi, 999):<3} {len(rows):8d} {cost * 1e6:13.0f} "
                  f"{rent * 1e6:8.1f} {cost / rent:10.0f}")
    print(f"\nmedian break-even over {len(everything)} regions: "
          f"{statistics.median(r[1] / r[2] for r in everything):.0f} entries")


if __name__ == "__main__":
    main()
