"""Differential test: the dominator tree against the dense dataflow oracle.

``repro.ir.cfg.compute_dominators`` answers ``dominates`` from a
Cooper–Harvey–Kennedy immediate-dominator tree.  The oracle below is the
dense formulation it replaced: every block starts dominated by all
blocks, the entry and every predecessor-less block are pinned to
themselves, and intersections over predecessors iterate to a fixpoint.
The two must agree on every ordered block pair, for the plain relation
and for the SIR handler rule (``sir_predecessors``), at every
``verify_function`` call a compile makes.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.pipeline import CompilerConfig, compile_binary
from repro.eval.harness import BENCHMARKS
from repro.fuzz.corpus import iter_corpus
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import _verifying_stage_hook
from repro.ir import I32, Function, IRBuilder, verifier
from repro.ir.cfg import compute_dominators, predecessor_map, reverse_postorder
from repro.passes.expander import ExpanderConfig
from repro.sir.regions import sir_predecessors
from repro.workloads import get_workload

CORPUS_DIR = Path(__file__).parent / "corpus"

PRESETS = (
    CompilerConfig.baseline(),
    CompilerConfig.bitspec("max"),
    CompilerConfig.bitspec("avg"),
    CompilerConfig.nospec(),
    CompilerConfig.thumb(),
)

#: the fuzz oracle's speculating configurations; its BASELINE and THUMB
#: compiles verify only the front end's CFG, which these verify too
#: (``static`` narrowing is not a fuzz configuration: it rejects
#: generated programs)
FUZZ_PRESETS = (
    CompilerConfig.bitspec("max"),
    CompilerConfig.bitspec("avg"),
    CompilerConfig.bitspec("min"),
)

FUZZ_SEEDS = range(45)


def plain_predecessors(func) -> dict:
    """Each block's distinct branch sources, by a direct inversion."""
    preds = {b: [] for b in func.blocks}
    for block in func.blocks:
        for succ in dict.fromkeys(block.successors()):
            if succ in preds:
                preds[succ].append(block)
    return preds


def dense_dominators(func, sir: bool = False) -> dict:
    """The oracle: iterative set-based dominators (maximal fixpoint).

    ``sir`` applies the handler rule of ``sir_predecessors``: a handler's
    predecessors are those of its region's entry.
    """
    blocks = reverse_postorder(func)
    if not blocks:
        return {}
    entry = func.entry
    all_blocks = set(blocks)
    dom = {b: set(all_blocks) for b in blocks}
    dom[entry] = {entry}
    plain = plain_predecessors(func)
    preds = {}
    for b in blocks:
        source = b.handler_for.entry if sir and b.handler_for is not None else b
        preds[b] = plain.get(source, [])
    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block is entry:
                continue
            reachable_preds = [p for p in preds[block] if p in dom]
            if reachable_preds:
                new = set.intersection(*(dom[p] for p in reachable_preds))
            else:
                new = set()
            new.add(block)
            if new != dom[block]:
                dom[block] = new
                changed = True
    return dom


def assert_same_dominance(func) -> None:
    """All-pairs equality, plain and SIR relation."""
    for sir in (False, True):
        oracle = dense_dominators(func, sir)
        tree = compute_dominators(func, pred_fn=sir_predecessors if sir else None)
        dominates = tree.dominates
        for b in func.blocks:
            got = {a for a in func.blocks if dominates(a, b)}
            assert got == oracle[b], (
                f"{func.name}/{b.name}: tree {sorted(x.name for x in got)} != "
                f"oracle {sorted(x.name for x in oracle[b])}"
            )


def cfg_shape(func) -> tuple:
    """Everything dominance depends on: edges and handler links."""
    return (func.name,) + tuple(
        (
            b.name,
            tuple(s.name for s in b.successors()),
            b.handler_for.entry.name if b.handler_for is not None else None,
        )
        for b in func.blocks
    )


@pytest.fixture
def checked(monkeypatch):
    """Cross-check every function ``verify_function`` sees; counts the
    distinct CFG shapes checked (a shape seen before is not rechecked)."""
    shapes = set()
    real = verifier.compute_dominators

    def checking(func, pred_fn=None, preds=None):
        shape = cfg_shape(func)
        if shape not in shapes:
            assert_same_dominance(func)
            shapes.add(shape)
        return real(func, pred_fn=pred_fn, preds=preds)

    monkeypatch.setattr(verifier, "compute_dominators", checking)
    return shapes


def test_predecessorless_block_and_unreachable_cycle():
    """A block without predecessors roots its own subtree; a cycle no root
    reaches is dominated by every block."""
    func = Function("f", I32, [("x", I32)])
    entry = func.add_block("entry")
    mid = func.add_block("mid")
    orphan = func.add_block("orphan")
    join = func.add_block("join")
    cyc_a = func.add_block("cyc_a")
    cyc_b = func.add_block("cyc_b")
    b = IRBuilder(entry)
    b.br(mid)
    b.set_block(mid)
    b.br(join)
    b.set_block(orphan)
    b.br(join)
    b.set_block(join)
    b.ret(func.args[0])
    b.set_block(cyc_a)
    b.br(cyc_b)
    b.set_block(cyc_b)
    b.br(cyc_a)

    assert_same_dominance(func)
    tree = compute_dominators(func)
    assert tree.dominates(entry, mid)
    assert not tree.dominates(entry, join)  # orphan also reaches join
    assert not tree.dominates(entry, orphan)
    assert tree.dominates(orphan, orphan)
    assert tree.dominates(join, cyc_a) and tree.dominates(entry, cyc_b)
    assert not tree.dominates(cyc_a, join)
    stranger = Function("g", I32, []).add_block("elsewhere")
    assert not tree.dominates(entry, stranger)


def test_edge_into_entry_is_ignored():
    func = Function("f", I32, [("x", I32)])
    entry = func.add_block("entry")
    body = func.add_block("body")
    done = func.add_block("done")
    b = IRBuilder(entry)
    b.br(body)
    b.set_block(body)
    cond = b.icmp("ult", func.args[0], b.const(3))
    b.condbr(cond, entry, done)
    b.set_block(done)
    b.ret(func.args[0])
    assert_same_dominance(func)
    tree = compute_dominators(func)
    assert tree.dominates(entry, done) and not tree.dominates(body, entry)


def test_predecessor_map_matches_block_predecessors():
    """At every middle-end stage, handlers included."""
    seen = []

    def hook(stage, module):
        for func in module.functions.values():
            preds = predecessor_map(func)
            assert list(preds) == func.blocks
            for block in func.blocks:
                assert preds[block] == block.predecessors(), (stage, block.name)
            seen.append(stage)

    for name in ("crc32", "bitcount"):
        workload = get_workload(name)
        compile_binary(
            workload.source,
            CompilerConfig.bitspec("max"),
            profile_inputs=workload.inputs("test", 0),
            name=name,
            stage_hook=hook,
        )
    assert "squeeze" in seen


@pytest.mark.slow
def test_roster_under_presets(checked):
    for name in BENCHMARKS:
        workload = get_workload(name)
        for config in PRESETS:
            compile_binary(
                workload.source,
                config,
                profile_inputs=workload.inputs("test", 0),
                name=name,
                stage_hook=_verifying_stage_hook,
            )
    assert len(checked) > 100


def _compile_fuzz(program) -> None:
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    profile = None  # one profile serves every speculating config
    for config in FUZZ_PRESETS:
        binary = compile_binary(
            program.source,
            dataclasses.replace(config, expander=expander),
            profile_inputs=program.inputs_profile,
            stage_hook=_verifying_stage_hook,
            profile=profile,
        )
        profile = binary.profile


@pytest.mark.slow
def test_fuzz_corpus_and_generated_programs(checked):
    for _path, program in iter_corpus(CORPUS_DIR):
        _compile_fuzz(program)
    for seed in FUZZ_SEEDS:
        _compile_fuzz(generate_program(seed))
    assert len(checked) > 100
