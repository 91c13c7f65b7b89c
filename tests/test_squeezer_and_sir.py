"""The squeezer, SIR invariants, speculative optimizations, static narrowing."""

import pytest

from repro.core import set_global_inputs
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.ir import verify_module
from repro.ir.cfg import predecessor_map, remove_unreachable_blocks
from repro.ir.instructions import BinOp, Cast, Icmp
from repro.passes import (
    eliminate_dead_code_module,
    narrow_module,
    prepare_cfg_module,
    run_speculative_opts,
    simplify_module,
    squeeze_module,
)
from repro.profiler import BitwidthProfile, compute_squeeze_plan
from repro.sir import SpeculativeRegion, regions_of, sir_predecessors, smir_predecessors
from repro.sir.verifier import verify_sir_module


def squeeze(source, heuristic="max", inputs=None, opts=False):
    module = compile_source(source)
    prepare_cfg_module(module)
    if inputs:
        set_global_inputs(module, inputs)
    profile = BitwidthProfile.collect(module, "main")
    plans = {
        name: compute_squeeze_plan(func, profile, heuristic)
        for name, func in module.functions.items()
    }
    results = squeeze_module(module, plans)
    if opts:
        run_speculative_opts(module)
    for func in module.functions.values():
        remove_unreachable_blocks(func)
    eliminate_dead_code_module(module)
    verify_module(module)
    verify_sir_module(module)
    return module, results


COUNTER = """
u32 result;
void main() {
    u32 x = 0;
    do { x += 1; } while (x <= 255);
    result = x;
    out(x);
}
"""


class TestSqueezer:
    def test_paper_running_example(self):
        """§3's do-loop: squeezed at 8 bits, one misspeculation at 256."""
        module, results = squeeze(COUNTER, "avg")
        assert results["main"].narrowed >= 1
        assert results["main"].regions >= 1
        interp = Interpreter(module, trace=True)
        out = interp.run("main")
        assert out.output == [256]
        assert out.trace.misspeculations == 1

    def test_no_plan_no_change(self):
        module, results = squeeze(
            "void main() { u32 x = 123456; out(x * 7); }"
        )
        assert results["main"].narrowed == 0

    def test_worlds_are_tagged(self):
        module, _ = squeeze(COUNTER, "avg")
        worlds = {b.world for b in module.function("main").blocks}
        assert "spec" in worlds and "orig" in worlds and "handler" in worlds

    def test_handlers_not_branch_targets(self):
        module, _ = squeeze(COUNTER, "avg")
        func = module.function("main")
        targets = {id(s) for b in func.blocks for s in b.successors()}
        for block in func.blocks:
            if block.handler_for is not None:
                assert id(block) not in targets

    def test_theorem_3_1_region_defs_dead_in_handler(self):
        module, _ = squeeze(COUNTER, "avg")
        func = module.function("main")
        for region in regions_of(func):
            defs = {
                i
                for b in region.blocks
                for i in b.instructions
                if i.has_result
            }
            for inst in region.handler.instructions:
                assert not (set(inst.operands) & defs)

    @pytest.mark.parametrize("heuristic", ["max", "avg", "min"])
    def test_output_equivalence(self, heuristic):
        """Squeezed IR must be input-output equivalent to the source."""
        source = """
        u32 data[32]; u32 n; u32 sink;
        void main() {
            u32 s = 0;
            for (u32 i = 0; i < n; i += 1) {
                u32 v = data[i];
                if (v > 200) { s += v * 2; } else { s += v; }
            }
            sink = s;
            out(s);
        }
        """
        inputs = {"data": [(i * 37) % 256 for i in range(32)], "n": 32}
        expected = [
            sum(v * 2 if v > 200 else v for v in ((i * 37) % 256 for i in range(32)))
        ]
        module, _ = squeeze(source, heuristic, inputs)
        set_global_inputs(module, inputs)
        assert Interpreter(module).run("main").output == expected

    def test_argument_hoisting(self):
        source = """
        u32 vals[16]; u32 sink;
        u32 addup(u32 a, u32 b) { return a + b; }
        void main() {
            u32 s = 0;
            for (u32 i = 0; i < 16; i += 1) { s = addup(s, vals[i]) & 0xFF; }
            sink = s;
            out(s);
        }
        """
        inputs = {"vals": list(range(16))}
        module, results = squeeze(source, "max", inputs)
        set_global_inputs(module, inputs)
        expected = 0
        for i in range(16):
            expected = (expected + i) & 0xFF
        assert Interpreter(module).run("main").output == [expected]

    def test_misspec_over_alternate_input(self):
        """Profile on small values, run on large: misspec path is correct."""
        source = """
        u32 seedv; u32 sink;
        void main() {
            u32 x = seedv;
            u32 s = 0;
            for (u32 i = 0; i < 20; i += 1) {
                x = (x * 5 + 1) & 0xFFFF;
                s += x >> 4;
            }
            sink = s;
            out(s);
        }
        """
        module, _ = squeeze(source, "max", {"seedv": 1})

        def python_ref(seed):
            x, s = seed, 0
            for _ in range(20):
                x = (x * 5 + 1) & 0xFFFF
                s += x >> 4
            return s & 0xFFFFFFFF

        for seed in (1, 60000):
            set_global_inputs(module, {"seedv": seed})
            got = Interpreter(module).run("main").output
            assert got == [python_ref(seed)], seed


class TestRegions:
    def test_region_construction_rules(self):
        module = compile_source(COUNTER)
        func = module.function("main")
        region = SpeculativeRegion([func.blocks[0]])
        with pytest.raises(ValueError):
            SpeculativeRegion([func.blocks[0]])  # already owned
        handler = func.add_block("h")
        region.set_handler(handler)
        with pytest.raises(ValueError):
            region.set_handler(handler)  # double registration
        assert region.entry is func.blocks[0]

    def test_handler_cannot_be_in_region(self):
        module = compile_source(COUNTER)
        func = module.function("main")
        region = SpeculativeRegion([func.blocks[0]])
        inner = SpeculativeRegion([func.blocks[1]])
        with pytest.raises(ValueError):
            region.set_handler(func.blocks[1])

    def test_predecessor_rules(self):
        module, _ = squeeze(COUNTER, "avg")
        func = module.function("main")
        preds = predecessor_map(func)
        for region in regions_of(func):
            handler = region.handler
            assert sir_predecessors(handler, preds) == region.entry.predecessors()
            assert smir_predecessors(handler) == region.blocks


class TestSpeculativeOpts:
    def test_compare_elimination_folds_and_guards(self):
        source = """
        u32 limit; u32 sink;
        void main() {
            u32 x = 0;
            do { x += 1; } while (x < limit);
            sink = x;
            out(x);
        }
        """
        # limit = 300 cannot fit the slice: the compare depends on speculation
        module, _ = squeeze(source, "avg", {"limit": 200}, opts=True)
        simplify_module(module)
        verify_module(module)
        # correctness across both non-misspec and misspec executions
        for limit in (200, 300):
            set_global_inputs(module, {"limit": limit})
            assert Interpreter(module).run("main").output == [limit]

    def test_bitmask_elision_rewrites(self):
        source = """
        u32 g; u32 sink;
        void main() {
            u32 v = g;
            u32 masked = v & 0xFF;
            sink = masked;
            out(masked + 1);
        }
        """
        module = compile_source(source)
        prepare_cfg_module(module)
        counts = run_speculative_opts(module)
        assert counts["bitmasks_elided"] == 1
        main = module.function("main")
        assert not [
            i
            for i in main.instructions()
            if isinstance(i, BinOp) and i.opcode == "and"
        ]
        set_global_inputs(module, {"g": 0x1234})
        assert Interpreter(module).run("main").output == [0x35]

    def test_opt_toggles(self):
        module = compile_source("u32 g; void main() { out(g & 0xFF); }")
        counts = run_speculative_opts(
            module, compare_elimination=False, bitmask_elision=False
        )
        assert counts == {"compares_eliminated": 0, "bitmasks_elided": 0}


class TestStaticNarrowing:
    def test_narrowing_preserves_semantics(self):
        source = """
        u32 g; u32 sink;
        void main() {
            u32 lo = g & 0x3F;
            u32 s = 0;
            for (u32 i = 0; i < 10; i += 1) { s = (s + lo) & 0xFF; }
            sink = s;
            out(s);
        }
        """
        module = compile_source(source)
        count = narrow_module(module)
        assert count >= 1
        verify_module(module)
        set_global_inputs(module, {"g": 0xABCDEF})
        expected = 0
        lo = 0xABCDEF & 0x3F
        for _ in range(10):
            expected = (expected + lo) & 0xFF
        assert Interpreter(module).run("main").output == [expected]

    def test_no_speculation_introduced(self):
        module = compile_source("u32 g; void main() { out((g & 0xF) + 1); }")
        narrow_module(module)
        for func in module.functions.values():
            for inst in func.instructions():
                assert not inst.speculative

    def test_loads_stay_wide(self):
        module = compile_source("u32 g[4]; void main() { out(g[0] + g[1]); }")
        narrow_module(module)
        from repro.ir.instructions import Load

        loads = [
            i for i in module.function("main").instructions() if isinstance(i, Load)
        ]
        assert loads and all(i.type.bits == 32 for i in loads)
