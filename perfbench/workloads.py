"""The benchmark's three workloads.

An *op* is the unit a user of the system waits for:

* ``dse-sweep`` — one cell of the DSE ``mini`` grid, evaluated through
  ``repro.dse.runner.evaluate_points`` (``run_sweep``'s grid path) with
  ``jobs=1``, no disk cache, memos cleared at the start of the sweep;
* ``input-sweep`` — one ``harness.run`` of a ``bitspec-max`` binary
  profiled on ``train`` inputs and run on a ``test`` or ``alt`` input;
* ``serve-mix`` — one ``POST /v1/reports`` to an in-process server with
  one worker process, over two closed-loop connections.

The seed fixes everything a run feeds the system: the DSE point order,
the input sequence of the input sweep, and the repeats of the serve mix.  All
inputs come from fixed pools, so every cell has a stored reference row
(``oracle.py``).
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from oracle import report_row, sim_row

from repro.eval import harness


@dataclass
class Op:
    """One timed op and what it produced."""

    op_id: int
    cell: str
    #: what the oracle needs to recompute the expected output
    key: tuple = ()
    start: float = 0.0
    end: float = 0.0
    error: str = ""
    row: Optional[list] = None
    output: Optional[list] = None
    #: serve-mix only: the raw response body and its X-Repro-Source
    body: bytes = b""
    source: str = ""

    @property
    def latency(self) -> float:
        return self.end - self.start


def record_row(record) -> list:
    return sim_row(record.sim, record.total_energy, record.binary.code_size)


class Workload:
    """Shared run loop: whole *units* (a pass, a sweep, a round) of ops.

    ``seconds`` fixes how many units a run measures, at about
    ``UNIT_SECONDS`` per unit on a 2-core development container; the count
    never depends on elapsed time, so every run of a workload measures the
    same amount of work however fast the host is at the moment.
    ``max_ops`` shrinks a run for the smoke test.
    """

    name = ""
    UNIT_SECONDS = 1.0
    #: lines every run prints about what the workload leaves out
    notes: tuple = ()

    def __init__(self, seed: int, seconds: float, max_ops: Optional[int] = None):
        self.seed = seed
        self.max_ops = max_ops
        self.units = min(self.max_units(), max(1, round(seconds / self.UNIT_SECONDS)))
        self.rng = random.Random(f"{self.name}:{seed}")
        self._expected: dict = {}
        #: wall-clock start and end of the last run
        self.span = (0.0, 0.0)

    def max_units(self) -> int:
        return 1_000_000

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first op can be issued."""

    def teardown(self) -> None:
        """Release what ``setup`` started."""

    def reset(self) -> None:
        """Return to the cold state before a replay."""
        harness.clear_caches()

    def run(self, tracer=None):
        """Run the workload's units; returns ``(ops, wall_seconds)``."""
        self.reset()
        ops: list = []
        started = time.perf_counter()
        for index in range(self.units):
            self.run_unit(index, ops, tracer)
            if self._full(ops):
                break
        self.span = (started, time.perf_counter())
        return ops, self.span[1] - started

    def run_unit(self, index: int, ops: list, tracer) -> None:
        raise NotImplementedError

    def _full(self, ops) -> bool:
        return self.max_ops is not None and len(ops) >= self.max_ops

    def _timed(self, ops: list, cell: str, key: tuple, tracer, fn):
        """Run ``fn`` as one op; returns ``(op, result or None)``."""
        op = Op(op_id=len(ops), cell=cell, key=key)
        ops.append(op)
        if tracer is not None:
            tracer.op = op.op_id
        op.start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            op.end = time.perf_counter()
            op.error = f"{type(exc).__name__}: {exc}"
            return op, None
        op.end = time.perf_counter()
        return op, result

    # -- correctness -----------------------------------------------------------

    def expected_output(self, key: tuple) -> list:
        """The compiler-independent oracle's output for an op's input."""
        if key not in self._expected:
            name, kind, seed = key
            workload = harness.get_workload(name)
            self._expected[key] = workload.expected_output(
                workload.inputs(kind, seed)
            )
        return self._expected[key]

    def check(self, ops: list, reference: Optional[dict]) -> dict:
        """Mark failed ops; returns ``{cell: row}`` of the checked ops.

        ``reference=None`` skips the reference comparison (used when the
        references are being built).
        """
        rows: dict = {}
        for op in ops:
            if op.error:
                continue
            if op.row is None or op.output is None:
                op.error = "op produced no statistics"
                continue
            if op.output != self.expected_output(op.key):
                op.error = "output differs from the oracle"
                continue
            rows[op.cell] = op.row
            if reference is None:
                continue
            ref = reference.get(op.cell)
            if ref is None:
                op.error = "cell has no reference row"
            elif op.row != ref:
                op.error = f"statistics {op.row} differ from reference {ref}"
        return rows


def _record(op: Op, record) -> None:
    if record is not None:
        op.row = record_row(record)
        op.output = list(record.sim.output)


class DseSweep(Workload):
    """The DSE ``mini`` grid, cold, in a seed-permuted point order.

    Points share front ends, profiles and often whole binaries, so this
    is where compile reuse shows.  Each op is one grid cell, timed at the
    ``harness.run`` call the sweep executor makes for it.
    """

    name = "dse-sweep"
    UNIT_SECONDS = 24.0
    PRESET = "mini"

    def __init__(self, seed, seconds, max_ops=None, *, full=False):
        super().__init__(seed, seconds, max_ops)
        from repro.dse.space import PRESETS

        space, self.roster = PRESETS[self.PRESET]
        self.points = space.points()
        self.rng.shuffle(self.points)
        if max_ops is not None:
            self.points = self.points[: max(1, max_ops // len(self.roster))]

    def run_unit(self, index, ops, tracer):
        from repro.dse.runner import evaluate_points

        harness.clear_caches()
        original = harness.run

        def cell(workload, config, **kw):
            op, record = self._timed(
                ops,
                f"{config.name}/{workload}",
                (workload, kw.get("run_kind", "test"), kw.get("run_seed", 0)),
                tracer,
                lambda: original(workload, config, **kw),
            )
            if op.error:
                raise RuntimeError(op.error)
            _record(op, record)
            return record

        harness.run = cell
        try:
            rows = evaluate_points(
                self.points, self.roster, jobs=1, cache_dir=None
            )
        finally:
            harness.run = original
        for row in rows:
            label = f"{row.point.label()}/{row.workload}"
            if row.status != "ok" and not any(
                op.cell == label and op.error for op in ops
            ):
                ops.append(Op(op_id=len(ops), cell=label, error=row.error))


class InputSweep(Workload):
    """RQ6 shape: profile once on ``train``, run on many other inputs.

    The programs are the simulation-heavy part of the roster; qsort,
    crc32 and susan-corners misspeculate on off-profile inputs, so the
    recovery handlers run.  Each round runs every program once, in a
    seeded order, on the next input of its seeded input sequence; the
    first op of each program compiles (a ``get_binary`` miss), the rest
    reuse the binary.  A run of ``len(POOL)`` rounds runs every program on
    every pool input once, so runs of any seed measure the same ops in
    different orders; letting the seed draw the inputs moved op_tail_s by
    up to 20% between seeds.
    """

    name = "input-sweep"
    #: one round: every program once
    UNIT_SECONDS = 1.0
    PROGRAMS = (
        "crc32",
        "bitcount",
        "patricia",
        "qsort",
        "stringsearch",
        "susan-smoothing",
        "susan-corners",
    )
    CONFIG = harness.bitspec_config("max")
    POOL = tuple((kind, s) for kind in ("test", "alt") for s in range(12))

    def __init__(self, seed, seconds, max_ops=None, *, full=False):
        super().__init__(seed, seconds, max_ops)
        # a program's first op compiles; pairing the compile with the same
        # input on every seed keeps every seed's ops the same multiset
        self.inputs = {
            prog: [self.POOL[0]] + self.rng.sample(self.POOL[1:], len(self.POOL) - 1)
            for prog in self.PROGRAMS
        }
        self.orders = [
            self.rng.sample(self.PROGRAMS, len(self.PROGRAMS))
            for _ in self.POOL
        ]

    def max_units(self):
        return len(self.POOL)

    def run_unit(self, index, ops, tracer):
        for prog in self.orders[index]:
            kind, s = self.inputs[prog][index]
            op, record = self._timed(
                ops,
                f"{prog}/bitspec-max/train:0/{kind}:{s}",
                (prog, kind, s),
                tracer,
                lambda: harness.run(
                    prog,
                    self.CONFIG,
                    profile_kind="train",
                    profile_seed=0,
                    run_kind=kind,
                    run_seed=s,
                ),
            )
            _record(op, record)
            if self._full(ops):
                return


class ServeMix(Workload):
    """Fuzz-program report requests against an in-process server.

    The pool is ``build_traffic``'s request list (presets cycled,
    attribution on every other request) over fixed generator seeds.  One
    worker process, quotas off, a fresh cache and journal directory per
    server, and a closed loop over two connections:

    * the *cold* connection sends every pool request once, in
      ``build_traffic``'s order — cold executes and cache writes;
    * the *repeat* connection sends a seeded quarter as many requests
      again, each when the cold connection sends a seeded pool request,
      repeating a seeded request the cold connection has already
      completed — report-cache reads beside a cold execute.

    The worker process shares the benchmark's CPU, which the host clock
    samples: a cold request's work moves between the server and the
    worker, never running on both at once, and with the worker on a CPU
    of its own the server's part of a short request (about a quarter)
    would be scaled by the other CPU's speed.
    """

    name = "serve-mix"
    #: first ``generate_program`` seed of the pool
    PROGRAM_SEED = 50_000
    #: pool requests per second of ``--seconds``, capped at POOL_MAX; a
    #: second pass over the pool would be all cache hits, so a run is one
    POOL_PER_SECOND = 1.8
    POOL_MAX = 80
    REPEAT_SHARE = 0.25
    #: generator seeds left out of the pool because the code that defined
    #: the benchmark already answers them wrongly; each run prints them
    KNOWN_DEFECTS = {
        50027: "every bitspec heuristic miscompiles it: out[10] is "
        "2557678762 where the fuzz reference, baseline and thumb give "
        "2586307913 (one misspeculation)",
    }

    def __init__(self, seed, seconds, max_ops=None, *, full=False):
        super().__init__(seed, seconds, max_ops)
        from repro.serve.loadtest import build_traffic
        from repro.serve.schema import request_key, validate_request

        if full:
            size = self.POOL_MAX
        elif max_ops is not None:
            size = max(1, max_ops)
        else:
            size = min(self.POOL_MAX, max(4, round(self.POOL_PER_SECOND * seconds)))
        traffic = build_traffic(size + len(self.KNOWN_DEFECTS), self.PROGRAM_SEED)
        self.docs = [
            doc
            for i, doc in enumerate(traffic)
            if self.PROGRAM_SEED + i not in self.KNOWN_DEFECTS
        ][:size]
        self.notes = [
            f"known defect, left out of the pool: generate_program({seed}): {why}"
            for seed, why in self.KNOWN_DEFECTS.items()
        ]
        self.canonical = [validate_request(doc) for doc in self.docs]
        self.keys = [request_key(c) for c in self.canonical]
        # Request costs are heavy-tailed (0.04-1.8 s).  Cold requests on
        # both connections would each wait for whatever share of the
        # neighbour's execute was left, which moves op_p50_s by 15% between
        # runs of one seed; so cold requests go out one at a time, in
        # build_traffic's order, and the seed decides the repeats:
        # (pool request whose send triggers it, pool request it repeats).
        self.repeats = []
        if not full and size > 1:
            triggers = sorted(
                self.rng.randrange(1, size)
                for _ in range(round(self.REPEAT_SHARE * size))
            )
            self.repeats = [(t, self.rng.randrange(t)) for t in triggers]
        self.server = None
        self.loop = None
        self.tmp = None

    def setup(self):
        from repro.serve.server import ReproServer, ServeConfig

        self.tmp = tempfile.mkdtemp(prefix="serve-")
        self.loop = asyncio.new_event_loop()
        self.server = ReproServer(
            ServeConfig(
                workers=1,
                cache_dir=str(Path(self.tmp) / "cache"),
                journal_path=str(Path(self.tmp) / "journal.jsonl"),
                quota_capacity=0,
            )
        )
        self.loop.run_until_complete(self.server.start())

    def teardown(self):
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def reset(self):
        """A fresh server: an empty report cache is this workload's cold state."""
        if self.server is not None:
            self.teardown()
            self.setup()

    def max_units(self):
        return 1

    def run(self, tracer=None):
        # the server of a fresh setup() is already cold
        started = time.perf_counter()
        ops = self.loop.run_until_complete(self._drive())
        self.span = (started, time.perf_counter())
        return ops, self.span[1] - started

    async def _drive(self):
        from repro.serve.client import submit_report

        port = self.server.port
        size = len(self.docs)
        slots = [None] * (size + len(self.repeats))
        sent = [asyncio.Event() for _ in range(size)]

        async def request(i, pool):
            op = Op(op_id=i, cell=self.keys[pool], key=(pool,))
            slots[i] = op
            op.start = time.perf_counter()
            try:
                response = await submit_report(
                    "127.0.0.1", port, self.docs[pool], timeout=120.0
                )
            except Exception as exc:
                op.end = time.perf_counter()
                op.error = f"{type(exc).__name__}: {exc}"
                return
            op.end = time.perf_counter()
            op.body = response.body
            op.source = response.headers.get("x-repro-source", "")
            if response.status != 200:
                op.error = f"HTTP {response.status}: {response.body[:200]!r}"
                return
            body = json.loads(response.body)
            op.row = report_row(body)
            op.output = body["result"]["output"]

        async def cold():
            for pool in range(size):
                sent[pool].set()
                await request(pool, pool)

        async def repeat():
            for j, (trigger, pool) in enumerate(self.repeats):
                await sent[trigger].wait()
                await request(size + j, pool)

        await asyncio.gather(cold(), repeat())
        return slots

    async def _stats(self):
        from repro.serve.client import get_stats

        return await get_stats("127.0.0.1", self.server.port)

    def server_stats(self) -> dict:
        return self.loop.run_until_complete(self._stats())

    def replay(self, ops: list, tracer) -> list:
        """Re-execute each distinct request in-process, traced.

        The worker process's layers are measured here: the same canonical
        request goes through ``execute_request``, and its body must be
        byte-identical to the one the server returned.
        """
        from repro.serve.report import execute_request
        from repro.serve.server import canonical_body

        first: dict = {}
        for op in ops:
            first.setdefault(op.key[0], op)
        replayed = []
        for pool, served in first.items():
            op = Op(op_id=served.op_id, cell=self.keys[pool], key=(pool,))
            tracer.op = op.op_id
            op.start = time.perf_counter()
            envelope = execute_request(self.canonical[pool], self.keys[pool])
            op.end = time.perf_counter()
            op.body = canonical_body(envelope["body"])
            if envelope["status"] != 200:
                op.error = f"status {envelope['status']}"
            elif served.body and op.body != served.body:
                op.error = "in-process body differs from the served body"
            else:
                op.row = report_row(envelope["body"])
                op.output = envelope["body"]["result"]["output"]
            replayed.append(op)
        return replayed

    def expected_output(self, key):
        if key not in self._expected:
            from repro.frontend.parser import parse
            from repro.fuzz.reference import Reference

            doc = self.docs[key[0]]
            self._expected[key] = Reference(
                parse(doc["source"]), doc["inputs"]["run"]
            ).run()
        return self._expected[key]

    def check(self, ops, reference):
        rows = super().check(ops, reference)
        first_body: dict = {}
        for op in sorted(ops, key=lambda o: o.op_id):
            if not op.body:
                continue
            body = first_body.setdefault(op.cell, op.body)
            if op.body != body and not op.error:
                op.error = "repeated request is not byte-identical to the first"
        return rows


WORKLOADS = {
    cls.name: cls for cls in (DseSweep, InputSweep, ServeMix)
}
