"""IR interpreter — the functional simulator of the compilation pipeline.

Executes a :class:`~repro.ir.function.Module` with exact wrapping integer
semantics, emulating SIR speculation: a speculative instruction whose result
does not fit its squeezed type *misspeculates*, transferring control to the
containing region's handler (the software path the BITSPEC hardware triggers
via PC+Δ).

The interpreter doubles as the *bitwidth profiler's* measurement engine: with
``trace=True`` it records, per SSA variable, the number of dynamic
assignments and the min/avg/max ``RequiredBits`` over them (§3.2.2), plus the
aggregate bitwidth histograms behind Figures 1 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.interp.memory import (
    FlatMemory,
    STACK_TOP,
    global_inputs,
    initialize_globals,
    layout_globals,
)
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    Gep,
    Icmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.types import IntType, required_bits
from repro.ir.values import Argument, Constant, GlobalVariable, Value


class TrapError(Exception):
    """The program performed an undefined operation (e.g. division by zero)."""


class StepLimitExceeded(Exception):
    """The program exceeded the interpreter's dynamic instruction budget."""


@dataclass
class VarStats:
    """Dynamic RequiredBits statistics for one SSA variable (§3.2.2)."""

    count: int = 0
    total_bits: int = 0
    min_bits: int = 64
    max_bits: int = 0

    def record(self, bits: int) -> None:
        self.count += 1
        self.total_bits += bits
        if bits < self.min_bits:
            self.min_bits = bits
        if bits > self.max_bits:
            self.max_bits = bits

    @property
    def avg_bits(self) -> float:
        return self.total_bits / self.count if self.count else 0.0


def bucket(bits: int) -> int:
    """Histogram bucket (8/16/32/64) for a bit count."""
    for edge in (8, 16, 32):
        if bits <= edge:
            return edge
    return 64


@dataclass
class Trace:
    """Aggregated dynamic statistics of one execution."""

    instructions: int = 0
    int_instructions: int = 0
    #: dynamic integer instructions bucketed by declared result width (Fig 1b)
    declared_hist: dict[int, int] = field(
        default_factory=lambda: {8: 0, 16: 0, 32: 0, 64: 0}
    )
    #: dynamic integer instructions bucketed by RequiredBits (Fig 1a)
    required_hist: dict[int, int] = field(
        default_factory=lambda: {8: 0, 16: 0, 32: 0, 64: 0}
    )
    #: per-variable RequiredBits statistics, keyed by (function, value name)
    var_stats: dict[tuple[str, str], VarStats] = field(default_factory=dict)
    misspeculations: int = 0
    #: misspeculations per (function, region id)
    misspec_by_region: dict[tuple[str, int], int] = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of a program run."""

    return_value: Optional[int]
    output: list[int]
    trace: Trace
    memory: FlatMemory
    global_addresses: dict[str, int]


class Interpreter:
    """Executes IR modules; see module docstring."""

    def __init__(
        self,
        module: Module,
        *,
        trace: bool = False,
        step_limit: int = 200_000_000,
        inputs: Optional[dict] = None,
    ) -> None:
        self.module = module
        self.tracing = trace
        self.step_limit = step_limit
        self.memory = FlatMemory()
        self.global_addresses = layout_globals(module)
        initialize_globals(
            self.memory,
            module,
            self.global_addresses,
            global_inputs(module, inputs) if inputs else None,
        )
        self.trace = Trace()
        self.output: list[int] = []
        self._sp = STACK_TOP
        self._steps = 0

    # -- public API ----------------------------------------------------------

    def run(self, entry: str = "main", args: Optional[list[int]] = None) -> RunResult:
        """Run ``entry`` with integer ``args``; returns the result bundle."""
        func = self.module.function(entry)
        value = self._call(func, list(args or []))
        return RunResult(
            return_value=value,
            output=self.output,
            trace=self.trace,
            memory=self.memory,
            global_addresses=self.global_addresses,
        )

    # -- evaluation ------------------------------------------------------------

    def _operand(self, env: dict[Value, int], value: Value) -> int:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.global_addresses[value.name]
        return env[value]

    def _call(self, func: Function, args: list[int]) -> Optional[int]:
        if len(args) != len(func.args):
            raise TrapError(
                f"{func.name}: expected {len(func.args)} args, got {len(args)}"
            )
        env: dict[Value, int] = {}
        for formal, actual in zip(func.args, args):
            value = formal.type.wrap(actual)
            env[formal] = value
            if self.tracing and isinstance(formal.type, IntType):
                # Arguments are profiled like variables (they are assigned a
                # value per invocation) but are not dynamic instructions.
                key = (func.name, formal.name)
                stats = self.trace.var_stats.get(key)
                if stats is None:
                    stats = VarStats()
                    self.trace.var_stats[key] = stats
                stats.record(required_bits(value))
        saved_sp = self._sp
        try:
            return self._run_blocks(func, env)
        finally:
            self._sp = saved_sp

    def _run_blocks(self, func: Function, env: dict[Value, int]) -> Optional[int]:
        tracing = self.tracing
        trace = self.trace
        block = func.entry
        pred = None
        while True:
            phis = block.phis()
            if phis:
                staged = [
                    (phi, self._operand(env, phi.incoming_for_block(pred)))
                    for phi in phis
                ]
                for phi, value in staged:
                    env[phi] = value
                    self._steps += 1
                    if tracing:
                        self._record(trace, func, phi, value)
            transfer = None
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue
                self._steps += 1
                if self._steps > self.step_limit:
                    raise StepLimitExceeded(f"at {func.name}:{block.name}")
                transfer = self._execute(func, env, block, inst)
                if transfer is not None:
                    break
            if transfer is None:
                raise TrapError(f"{func.name}:{block.name} fell off block end")
            kind, payload = transfer
            if kind == "ret":
                return payload
            pred, block = payload

    def _record(
        self, trace: Trace, func: Function, inst: Instruction, value: int
    ) -> None:
        trace.instructions += 1
        if isinstance(inst.type, IntType):
            trace.int_instructions += 1
            bits = required_bits(value)
            trace.declared_hist[bucket(inst.type.bits)] += 1
            trace.required_hist[bucket(bits)] += 1
            key = (func.name, inst.name)
            stats = trace.var_stats.get(key)
            if stats is None:
                stats = VarStats()
                trace.var_stats[key] = stats
            stats.record(bits)
        else:
            trace.instructions += 0

    def _misspeculate(self, func: Function, block) -> tuple:
        region = block.region
        if region is None or region.handler is None:
            raise TrapError(
                f"{func.name}:{block.name}: misspeculation outside a region"
            )
        self.trace.misspeculations += 1
        key = (func.name, region.id)
        self.trace.misspec_by_region[key] = (
            self.trace.misspec_by_region.get(key, 0) + 1
        )
        return ("jump", (block, region.handler))

    def _execute(
        self,
        func: Function,
        env: dict[Value, int],
        block,
        inst: Instruction,
    ):
        tracing = self.tracing
        result: Optional[int] = None

        if isinstance(inst, BinOp):
            lhs = self._operand(env, inst.lhs)
            rhs = self._operand(env, inst.rhs)
            ty: IntType = inst.type
            wide, result = _binop(inst.opcode, lhs, rhs, ty)
            if inst.speculative and wide != result:
                # Carry/borrow out of the 8-bit slice: misspeculation.
                return self._misspeculate(func, block)
        elif isinstance(inst, Icmp):
            result = int(_icmp(inst.pred, self._operand(env, inst.lhs),
                               self._operand(env, inst.rhs), inst.lhs.type))
        elif isinstance(inst, Select):
            cond = self._operand(env, inst.cond)
            result = self._operand(
                env, inst.true_value if cond else inst.false_value
            )
        elif isinstance(inst, Cast):
            value = self._operand(env, inst.value)
            if inst.opcode == "zext":
                result = value
            elif inst.opcode == "sext":
                result = inst.type.wrap(inst.value.type.to_signed(value))
            else:  # trunc
                result = inst.type.wrap(value)
                if inst.speculative and result != value:
                    return self._misspeculate(func, block)
        elif isinstance(inst, Load):
            ptr = self._operand(env, inst.ptr)
            elem = inst.ptr.type.pointee
            value = self.memory.load(ptr, elem.size_bytes)
            value &= elem.mask
            if inst.speculative:
                # Speculative load: full-width read, narrow result.
                result = inst.type.wrap(value)
                if result != value:
                    return self._misspeculate(func, block)
            else:
                result = inst.type.wrap(value)
        elif isinstance(inst, Store):
            ptr = self._operand(env, inst.ptr)
            elem = inst.ptr.type.pointee
            self.memory.store(ptr, self._operand(env, inst.value), elem.size_bytes)
        elif isinstance(inst, Gep):
            base = self._operand(env, inst.ptr)
            index = self._operand(env, inst.index)
            index = inst.index.type.to_signed(index)
            result = (base + index * inst.type.pointee.size_bytes) & 0xFFFFFFFF
        elif isinstance(inst, Alloca):
            size = inst.elem_type.size_bytes * inst.count
            align = inst.elem_type.size_bytes
            self._sp = (self._sp - size) & ~(align - 1)
            result = self._sp
        elif isinstance(inst, Call):
            if inst.callee == "__out":
                self.output.extend(self._operand(env, a) for a in inst.args)
            else:
                callee = self.module.function(inst.callee)
                value = self._call(callee, [self._operand(env, a) for a in inst.args])
                if inst.has_result:
                    result = inst.type.wrap(value if value is not None else 0)
        elif isinstance(inst, Br):
            if tracing:
                self.trace.instructions += 1
            return ("jump", (block, inst.target))
        elif isinstance(inst, CondBr):
            if tracing:
                self.trace.instructions += 1
            cond = self._operand(env, inst.cond)
            return ("jump", (block, inst.if_true if cond else inst.if_false))
        elif isinstance(inst, Ret):
            if tracing:
                self.trace.instructions += 1
            value = (
                self._operand(env, inst.value) if inst.value is not None else None
            )
            return ("ret", value)
        else:  # pragma: no cover - defensive
            raise TrapError(f"cannot interpret {inst.opcode}")

        if result is not None:
            env[inst] = result
            if tracing:
                self._record(self.trace, func, inst, result)
        elif tracing:
            self.trace.instructions += 1
        return None


def evaluate_binop(op: str, lhs: int, rhs: int, ty: IntType) -> int:
    """Public constant-folding helper: wrapped result of a binary op."""
    return _binop(op, lhs, rhs, ty)[1]


def evaluate_icmp(pred: str, lhs: int, rhs: int, ty: IntType) -> bool:
    """Public constant-folding helper: result of an integer comparison."""
    return _icmp(pred, lhs, rhs, ty)


def _binop(op: str, lhs: int, rhs: int, ty: IntType) -> tuple[int, int]:
    """Evaluate a binary op; returns (untruncated, wrapped) results.

    The untruncated value is used for misspeculation detection: a speculative
    op misspeculates iff wrapping changed the value (carry/borrow out of the
    slice, Table 1).
    """
    if op == "add":
        wide = lhs + rhs
    elif op == "sub":
        wide = lhs - rhs
        if wide < 0:
            # Borrow: wrapped result differs from the mathematical result.
            return wide, ty.wrap(wide)
    elif op == "mul":
        wide = lhs * rhs
    elif op == "and":
        wide = lhs & rhs
    elif op == "or":
        wide = lhs | rhs
    elif op == "xor":
        wide = lhs ^ rhs
    elif op == "shl":
        wide = lhs << rhs if rhs < 64 else 0
    elif op == "lshr":
        wide = lhs >> rhs if rhs < 64 else 0
    elif op == "ashr":
        signed = ty.to_signed(lhs)
        shift = min(rhs, ty.bits - 1) if rhs >= ty.bits else rhs
        wide = ty.wrap(signed >> shift)
    elif op == "udiv":
        if rhs == 0:
            raise TrapError("udiv by zero")
        wide = lhs // rhs
    elif op == "urem":
        if rhs == 0:
            raise TrapError("urem by zero")
        wide = lhs % rhs
    elif op == "sdiv":
        if rhs == 0:
            raise TrapError("sdiv by zero")
        a, b = ty.to_signed(lhs), ty.to_signed(rhs)
        q = abs(a) // abs(b)
        wide = ty.wrap(-q if (a < 0) != (b < 0) else q)
    elif op == "srem":
        if rhs == 0:
            raise TrapError("srem by zero")
        a, b = ty.to_signed(lhs), ty.to_signed(rhs)
        r = abs(a) % abs(b)
        wide = ty.wrap(-r if a < 0 else r)
    else:  # pragma: no cover - defensive
        raise TrapError(f"unknown binop {op}")
    return wide, ty.wrap(wide)


def _icmp(pred: str, lhs: int, rhs: int, ty) -> bool:
    if pred == "eq":
        return lhs == rhs
    if pred == "ne":
        return lhs != rhs
    if pred == "ult":
        return lhs < rhs
    if pred == "ule":
        return lhs <= rhs
    if pred == "ugt":
        return lhs > rhs
    if pred == "uge":
        return lhs >= rhs
    a, b = ty.to_signed(lhs), ty.to_signed(rhs)
    if pred == "slt":
        return a < b
    if pred == "sle":
        return a <= b
    if pred == "sgt":
        return a > b
    if pred == "sge":
        return a >= b
    raise TrapError(f"unknown icmp predicate {pred}")  # pragma: no cover
