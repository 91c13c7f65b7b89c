"""Compiles and simulations are re-entrant across threads.

Serve's inline mode (``ServeConfig.workers=0``) runs jobs on a thread
pool, so two compiles can interleave in one process.  Everything a
compile scopes — the pass-statistics registry (``repro.passes.stats``),
armed toolchain faults and compiler bends (``repro.faults.toolchain``) —
is context-local: a thread's compile counts into its own scope and never
sees another thread's armed fault.  A simulation takes its inputs
without writing them into the binary's module, so threads can run one
memoized binary on different inputs at once, and share the regions its
runs translate (:mod:`repro.arch.tier`, cached on the binary).  Serve's
``execute_request`` is a pure function of the request under threads too.
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.pipeline import CompilerConfig, compile_binary
from repro.eval import harness
from repro.faults.toolchain import bend_compiler, inject_compile_faults
from repro.fuzz.generator import generate_program
from repro.passes.expander import ExpanderConfig
from repro.serve.loadtest import build_traffic
from repro.serve.report import execute_request
from repro.serve.schema import request_key, validate_request
from repro.serve.server import canonical_body

THREADS = 6

HELPER_SOURCE = """u32 in0;
u32 helper(u32 x) { return (x * 3) + 7; }
void main() { out(helper(in0)); }
"""


def _compile(program):
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(CompilerConfig.bitspec("max"), expander=expander)
    return compile_binary(
        program.source, config, profile_inputs=program.inputs_profile
    )


def _in_threads(fn, items):
    """Run ``fn`` over ``items``, one thread each, all released together,
    with a short interpreter switch interval so the threads interleave."""
    barrier = threading.Barrier(len(items))

    def task(item):
        barrier.wait(timeout=60)
        return fn(item)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(items)) as pool:
            return list(pool.map(task, items, timeout=300))
    finally:
        sys.setswitchinterval(interval)


def _image(binary) -> list:
    return [repr(inst) for inst in binary.linked.insts]


def test_concurrent_compiles_keep_their_own_pass_stats():
    programs = [generate_program(seed) for seed in range(THREADS)]
    sequential = [_compile(p).pass_stats for p in programs]
    assert all(sequential)
    concurrent = _in_threads(lambda p: _compile(p).pass_stats, programs)
    for seed, (got, want) in enumerate(zip(concurrent, sequential)):
        assert got == want, f"program {seed}: pass_stats differ under threads"


def test_armed_compile_fault_stays_in_its_thread():
    config = CompilerConfig.bitspec("max")
    profile = {"in0": 5}
    with inject_compile_faults({("helper", "squeeze")}):
        here = compile_binary(HELPER_SOURCE, config, profile_inputs=profile)
        (there,) = _in_threads(
            lambda _: compile_binary(HELPER_SOURCE, config, profile_inputs=profile),
            [None],
        )
    assert "helper" in here.linked.fallback_functions
    assert not there.linked.fallback_functions


def test_armed_bend_stays_in_its_thread():
    config = CompilerConfig.bitspec("max")
    profile = {"in0": 5}
    with bend_compiler("bs-op-swap"):
        here = compile_binary(HELPER_SOURCE, config, profile_inputs=profile)
        (there,) = _in_threads(
            lambda _: compile_binary(HELPER_SOURCE, config, profile_inputs=profile),
            [None],
        )
    clean = _image(compile_binary(HELPER_SOURCE, config, profile_inputs=profile))
    assert _image(here) != clean
    assert _image(there) == clean


def _row(record) -> tuple:
    sim = record.sim
    return (
        tuple(sim.output),
        sim.instructions,
        sim.cycles,
        sim.misspeculations,
        record.total_energy,
    )


def _shared_binary_cells():
    config = CompilerConfig.bitspec("max")
    cells = [
        (workload, kind, seed)
        for workload in ("crc32", "bitcount")
        for kind in ("test", "alt")
        for seed in (0, 1, 2)
    ]

    def run(cell):
        workload, kind, seed = cell
        return _row(harness.run(workload, config, run_kind=kind, run_seed=seed))

    return config, cells, run


def test_threads_share_memoized_binaries_across_run_inputs():
    config, cells, run = _shared_binary_cells()
    harness.clear_caches()
    try:
        sequential = [run(cell) for cell in cells]
        harness.clear_caches()
        for workload in ("crc32", "bitcount"):
            harness.get_binary(workload, config)  # every thread shares these
        concurrent = _in_threads(run, cells)
    finally:
        harness.clear_caches()
    for cell, got, want in zip(cells, concurrent, sequential):
        assert got == want, f"{cell}: threaded run differs from sequential"


def test_threads_share_translated_regions(tier):
    """12 threads run two fresh binaries with every region translated on
    first entry, so they translate into, and run from, one cache."""
    assert tier == 0
    config, cells, run = _shared_binary_cells()
    harness.clear_caches()
    try:
        sequential = [run(cell) for cell in cells]
        harness.clear_caches()
        binaries = [harness.get_binary(w, config) for w in ("crc32", "bitcount")]
        concurrent = _in_threads(run, cells)
    finally:
        harness.clear_caches()
    for binary in binaries:
        assert binary.linked._tier_cache, "the runs translated nothing"
    for cell, got, want in zip(cells, concurrent, sequential):
        assert got == want, f"{cell}: threaded run differs from sequential"


def test_concurrent_execute_requests_match_sequential_bytes():
    """THREADS threads × 2 fuzz requests each through serve's
    ``execute_request``: every body equals its sequential bytes."""
    requests = [validate_request(doc) for doc in build_traffic(2 * THREADS, seed=7)]

    def body(canonical):
        return canonical_body(execute_request(canonical, request_key(canonical))["body"])

    sequential = [body(c) for c in requests]
    pairs = [requests[i::THREADS] for i in range(THREADS)]
    concurrent = _in_threads(lambda pair: [body(c) for c in pair], pairs)
    for i, bodies in enumerate(concurrent):
        for j, got in enumerate(bodies):
            assert got == sequential[i + j * THREADS], f"request {i + j * THREADS}"
