"""The translated tier of the ``fast`` engine (:mod:`repro.arch.tier`).

A translated region must leave exactly what the dispatch loop leaves:
every SimResult field, the nine per-pc event arrays, snapshots (cache
statistics included) and errors.  The binaries are profiled on ``train``
and run on ``test``, so the Δ-handler side exits run too.  Pinned here:

* the per-pc obs arrays with every region translated equal the dispatch
  loop's;
* ``run(checkpoint_at=N)`` + resume is bit-identical with the tier on,
  also when the resumed pc is no region entry, and the snapshot itself
  does not depend on the tier;
* a live fault session runs the whole run in the dispatch loop;
* a region never runs past the step limit;
* translations are cached per binary, survive pickling as an empty
  cache, and a later run of the binary translates nothing.
"""

import math
import pickle

import pytest

from repro.arch import tier as tier_module
from repro.arch.checkpoint import Snapshot
from repro.arch.machine import Machine, MachineError
from repro.arch.predecode import run_fast
from repro.core.pipeline import CompilerConfig, compile_binary
from repro.eval import harness
from repro.faults.campaign import golden_profile
from repro.faults.plan import FAULT_KINDS, RECOVERY_KINDS, derive_plan
from repro.faults.session import FaultSession
from repro.obs.events import PcSample
from repro.workloads import get_workload

from test_machine_predecode import assert_sims_identical

PROGRAMS = ("crc32", "qsort")


def _binary(name):
    return harness.get_binary(
        name, CompilerConfig.bitspec("max"), profile_kind="train", profile_seed=0
    )


def _fresh_binary(name):
    """A binary no other test has translated."""
    workload = get_workload(name)
    return compile_binary(
        workload.source, CompilerConfig.bitspec("max"),
        profile_inputs=workload.inputs("train", 0), name=name,
    )


def _inputs(name):
    return get_workload(name).inputs("test", 1)


def _machine(binary, name, **kw):
    return Machine(binary.linked, binary.module, inputs=_inputs(name),
                   engine="fast", **kw)


def _regions(binary):
    return sum(len(regions) for regions in binary.linked._tier_cache.values())


@pytest.mark.parametrize("name", PROGRAMS)
def test_translated_obs_arrays_equal_the_dispatch_loop(name):
    binary = _binary(name)
    ref = run_fast(_machine(binary, name, obs=True), _threshold=math.inf)
    sim = run_fast(_machine(binary, name, obs=True), _threshold=0)
    assert ref.misspeculations > 0, "side exits must run"
    assert _regions(binary) > 0
    assert_sims_identical(sim, ref, name)
    for field in PcSample.__dataclass_fields__:
        assert getattr(sim.obs, field) == getattr(ref.obs, field), field


@pytest.mark.parametrize("name", PROGRAMS)
def test_checkpoint_resume_is_bit_identical_with_the_tier_on(name, tier):
    binary = _binary(name)
    ref = run_fast(_machine(binary, name), _threshold=math.inf)
    n = ref.instructions
    mid_region = 0
    for cut in sorted({1, 7, n // 3, n // 2, n - 1}):
        snap = _machine(binary, name).run(checkpoint_at=cut)
        assert isinstance(snap, Snapshot) and snap.instructions == cut
        # every region entered so far is translated at threshold 0
        mid_region += snap.pc not in binary.linked._tier_cache[(True, 8)]
        untranslated = run_fast(_machine(binary, name), checkpoint_at=cut,
                                _threshold=math.inf)
        assert snap.to_dict() == untranslated.to_dict(), f"{name}@{cut}"
        legacy = Machine(binary.linked, binary.module, inputs=_inputs(name),
                         engine="legacy").run(checkpoint_at=cut)
        # elided fetches still count as icache accesses
        assert snap.hierarchy == legacy.hierarchy, f"{name}@{cut}"
        sim = _machine(binary, name).run(resume_from=snap)
        assert_sims_identical(sim, ref, f"{name}@{cut}")
    assert mid_region


@pytest.mark.parametrize("kind", sorted(set(FAULT_KINDS) - RECOVERY_KINDS))
def test_a_fault_session_runs_in_the_dispatch_loop(kind):
    binary = _fresh_binary("crc32")
    golden = run_fast(_machine(binary, "crc32", obs=True), _threshold=math.inf)
    plan = derive_plan(kind, 0, golden_profile(binary, golden))

    def outcome(threshold):
        session = FaultSession(plan)
        try:
            sim = run_fast(_machine(binary, "crc32", faults=session),
                           _threshold=threshold)
        except Exception as exc:  # a trap is an outcome too
            return repr(exc), session.triggered
        return (sim.output, sim.instructions, sim.cycles,
                sim.misspeculations, session.triggered)

    assert outcome(0) == outcome(math.inf)
    assert getattr(binary.linked, "_tier_cache", None) is None


def test_no_region_runs_past_the_step_limit():
    binary = _binary("crc32")
    n = run_fast(_machine(binary, "crc32"), _threshold=math.inf).instructions
    assert _machine(binary, "crc32", step_limit=n).run().instructions == n
    for limit in (n - 1, n // 2):
        with pytest.raises(MachineError, match="step limit"):
            run_fast(_machine(binary, "crc32", step_limit=limit), _threshold=0)


def test_a_binary_translates_once(monkeypatch):
    binary = _fresh_binary("crc32")
    calls = []
    translate = tier_module.translate

    def counting(*args):
        calls.append(args[1])
        return translate(*args)

    monkeypatch.setattr(tier_module, "translate", counting)
    first = _machine(binary, "crc32").run()
    assert calls, "a hot region crossed the threshold"
    assert len(set(calls)) == len(calls) == _regions(binary)
    del calls[:]
    assert_sims_identical(_machine(binary, "crc32").run(), first, "warm")
    assert not calls


def test_a_pickled_binary_drops_its_translations():
    binary = _binary("crc32")
    ref = run_fast(_machine(binary, "crc32"), _threshold=0)
    linked = pickle.loads(pickle.dumps(binary.linked))
    assert not getattr(linked, "_tier_cache", {})
    sim = run_fast(Machine(linked, binary.module, inputs=_inputs("crc32")),
                   _threshold=0)
    assert_sims_identical(sim, ref, "unpickled")
