"""Known miscompiles, recorded as strict expected failures.

Each test states the correct output (the AST reference, the unsqueezed
IR, BASELINE and THUMB all agree on it) and asserts that BITSPEC produces
it — first in the squeezed IR (``CompiledBinary.interpret``), then on the
machine.  Both cases are already wrong in the squeezed IR, so the fault
is in the squeeze middle end, not in isel, regalloc or the machine.  The
marks are strict: when a fix lands, the test passes, pytest reports the
XPASS as a failure, and the mark must come off.
"""

import dataclasses

import pytest

from repro.core.pipeline import CompilerConfig, compile_binary
from repro.fuzz.generator import generate_program
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload


def _squeezed_and_machine_outputs(source, config, profile, run, name="main"):
    """The squeezed IR's and the machine's output on ``run``, from one
    compile (neither level writes its inputs into the module)."""
    binary = compile_binary(source, config, profile_inputs=profile, name=name)
    return binary.interpret(dict(run)).output, binary.run(dict(run)).output


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="squeeze middle end miscompiles fuzz seed 50027",
)
def test_fuzz_seed_50027():
    """``generate_program(50027)`` under BITSPEC T=MAX.

    ``out[10]`` comes out as 2557678762 instead of 2586307913, in the
    squeezed IR (the fuzzer's ``interp-squeezed-*`` levels) as on the
    machine, and likewise under the AVG and MIN heuristics: the fault is
    in the squeeze middle end, not isel, regalloc or the machine.
    """
    expected = [
        0, 1048576000, 3, 0, 0, 0, 0, 0, 1, 64,
        2586307913, 4125982473, 1164460032,
    ]
    program = generate_program(50027)
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(CompilerConfig.bitspec("max"), expander=expander)
    squeezed, machine = _squeezed_and_machine_outputs(
        program.source, config, program.inputs_profile, program.inputs_run
    )
    assert squeezed == expected
    assert machine == expected


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="squeeze middle end miscompiles dijkstra test:2",
)
def test_dijkstra_profiled_on_train_run_on_test_2():
    """dijkstra, ``bitspec-max`` profiled on ``train:0``, run on ``test:2``.

    The output is ``[16777818]`` instead of ``[603]``, already in the
    squeezed IR (``CompiledBinary.interpret``): the fault is in the
    squeeze middle end, not isel, regalloc or the machine.
    """
    expected = [603]
    workload = get_workload("dijkstra")
    run = workload.inputs("test", 2)
    assert workload.expected_output(run) == expected
    squeezed, machine = _squeezed_and_machine_outputs(
        workload.source,
        CompilerConfig.bitspec("max"),
        workload.inputs("train", 0),
        run,
        name="dijkstra",
    )
    assert squeezed == expected
    assert machine == expected
