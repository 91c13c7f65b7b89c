"""The cross-engine differential matrix: three engines, one semantics.

This is the enforcement arm of the three-engine contract (docs/engines.md):
the legacy reference stepper and the predecoded fast path must be
*bit-identical* on every observable — ``SimResult`` aggregates and energy
counters, final memory images, and fault-injection classification
matrices — while the out-of-order
engine (:mod:`repro.arch.ooo`), whose cycles and energy belong to its own
timing model, must match the *committed* architectural view: traps, out
stream, memory image, committed instruction/misspeculation counts.

Coverage axes:

* the full fuzz corpus under three configs (full matrix ``slow``; a
  three-program smoke slice always runs);
* the full 14-workload benchmark roster under T=MAX (``slow``; a
  three-workload slice always runs);
* a DSE smoke grid routed through :func:`repro.dse.runner.evaluate_points`
  — the emitted rows must not depend on the engine;
* the fault-injection kind×seed parity grid — the canonical FAULTS JSON
  must be byte-identical across engines.

Per-pc observability samples come from the fast engine alone; their
conservation and their equivalence with a legacy trace are pinned in
``tests/test_obs.py``.

The whole matrix runs ``fast`` with every region translated on its first
entry (the ``tier`` fixture at 0); the corpus matrix runs again with the
translated tier off (``math.inf``).
"""

import dataclasses
import math
from pathlib import Path

import pytest

from repro.arch.machine import Machine
from repro.core.pipeline import CompilerConfig, compile_binary, set_global_inputs
from repro.eval.harness import get_binary
from repro.fuzz.corpus import load_program
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload

from test_machine_predecode import assert_engine_matches, assert_sims_identical

CORPUS_DIR = Path(__file__).parent / "corpus"

#: every saved corpus program, regressions included
FULL_CORPUS = tuple(sorted(p.stem for p in CORPUS_DIR.glob("*.json")))

SMOKE_CORPUS = ("seed000", "seed009", "regression-shl-slice-carry")

SMOKE_WORKLOADS = ("crc32", "sha", "bitcount")

CONFIGS = (
    CompilerConfig.baseline(),
    CompilerConfig.bitspec("max"),
    CompilerConfig.thumb(),
)

pytestmark = pytest.mark.usefixtures("tier")

UNTRANSLATED = pytest.mark.parametrize(
    "tier", [math.inf], indirect=True, ids=["untranslated"]
)

def _corpus_binary(name: str, config: CompilerConfig):
    program = load_program(CORPUS_DIR / f"{name}.json")
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(config, expander=expander)
    binary = compile_binary(
        program.source, config, profile_inputs=program.inputs_profile
    )
    return binary, program.inputs_run


def _run(binary, inputs, engine: str):
    if inputs:
        set_global_inputs(binary.module, inputs)
    return Machine(binary.linked, binary.module, engine=engine).run()


def _assert_all_engines_identical(binary, inputs, label: str) -> None:
    ref = _run(binary, inputs, "fast")
    for engine in ("legacy", "ooo"):
        assert_engine_matches(
            _run(binary, inputs, engine), ref, engine, f"{label}/{engine}"
        )


# -- corpus matrix ------------------------------------------------------------


@pytest.mark.parametrize("name", SMOKE_CORPUS)
def test_corpus_smoke_all_engines(name):
    binary, inputs = _corpus_binary(name, CompilerConfig.bitspec("max"))
    _assert_all_engines_identical(binary, inputs, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", FULL_CORPUS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_full_all_engines(name, config):
    binary, inputs = _corpus_binary(name, config)
    _assert_all_engines_identical(binary, inputs, f"{name}/{config.name}")


@UNTRANSLATED
@pytest.mark.parametrize("name", SMOKE_CORPUS)
def test_corpus_smoke_all_engines_dispatch_loop(name, tier):
    binary, inputs = _corpus_binary(name, CompilerConfig.bitspec("max"))
    _assert_all_engines_identical(binary, inputs, name)


@pytest.mark.slow
@UNTRANSLATED
@pytest.mark.parametrize("name", FULL_CORPUS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_full_all_engines_dispatch_loop(name, config, tier):
    binary, inputs = _corpus_binary(name, config)
    _assert_all_engines_identical(binary, inputs, f"{name}/{config.name}")


# -- workload roster ----------------------------------------------------------


@pytest.mark.parametrize("workload_name", SMOKE_WORKLOADS)
def test_workload_smoke_legacy_vs_fast(workload_name):
    config = CompilerConfig.bitspec("max")
    binary = get_binary(workload_name, config)
    inputs = get_workload(workload_name).inputs("test", 0)
    ref = _run(binary, inputs, "fast")
    assert_sims_identical(
        _run(binary, inputs, "legacy"), ref, f"{workload_name}/legacy"
    )


def test_workload_smoke_ooo_committed():
    """One smoke workload pins the OoO committed contract in tier-1."""
    config = CompilerConfig.bitspec("max")
    binary = get_binary("crc32", config)
    inputs = get_workload("crc32").inputs("test", 0)
    ref = _run(binary, inputs, "fast")
    sim = _run(binary, inputs, "ooo")
    assert_engine_matches(sim, ref, "ooo", "crc32/ooo")
    # the timing model is genuinely different, not a relabeled in-order run
    assert sim.cycles != ref.cycles
    assert sim.ooo.fetched_uops >= sim.instructions


@pytest.mark.slow
def test_workload_roster_all_engines():
    """All 14 benchmark workloads, every engine vs the fast path."""
    from repro.eval.harness import BENCHMARKS

    config = CompilerConfig.bitspec("max")
    for workload_name in BENCHMARKS:
        binary = get_binary(workload_name, config)
        inputs = get_workload(workload_name).inputs("test", 0)
        ref = _run(binary, inputs, "fast")
        assert ref.instructions > 0
        for engine in ("legacy", "ooo"):
            assert_engine_matches(
                _run(binary, inputs, engine), ref, engine,
                f"{workload_name}/{engine}",
            )


# -- DSE smoke grid -----------------------------------------------------------


def test_dse_smoke_grid_engine_invariant():
    """evaluate_points emits identical rows whichever engine simulates."""
    from repro.dse.runner import evaluate_points
    from repro.dse.space import SpecSpace

    space = SpecSpace(slice_width=(8, 32), l1_kb=(4, 8))
    rows = {}
    for engine in ("fast", "legacy"):
        rows[engine] = [
            r.as_dict()
            for r in evaluate_points(
                space.points(), ("crc32",), jobs=1, engine=engine
            )
        ]
    assert rows["fast"] == rows["legacy"]
    assert all(r["status"] == "ok" for r in rows["fast"])
    assert len(rows["fast"]) == space.size


# -- fault-injection parity ---------------------------------------------------


def test_fault_campaign_kind_seed_parity():
    """The kind×seed grid classifies identically and serializes
    byte-identically whichever in-order engine the campaign selects.

    Campaign runs attach an obs sample, so a ``legacy`` selection runs on
    the fast loop; the legacy stepper's own fault hooks are held to the
    fast path's in ``tests/test_faults.py``."""
    from repro.faults.campaign import run_campaign, to_canonical_json
    from repro.faults.plan import FAULT_KINDS

    documents = {}
    for engine in ("fast", "legacy"):
        documents[engine] = to_canonical_json(
            run_campaign(
                workloads=("crc32",),
                config_names=("bitspec-max",),
                kinds=FAULT_KINDS,
                seed=0,
                per_kind=2,
                jobs=1,
                engine=engine,
            )
        )
    assert documents["fast"] == documents["legacy"]
    assert '"engine"' not in documents["fast"]  # engines never leak into FAULTS json


@pytest.mark.slow
def test_fault_replay_corpus_parity():
    from repro.faults.campaign import replay_corpus, to_canonical_json

    documents = {
        engine: to_canonical_json(
            replay_corpus(CORPUS_DIR, count=2, per_kind=1, seed=0, engine=engine)
        )
        for engine in ("fast", "legacy")
    }
    assert documents["fast"] == documents["legacy"]
