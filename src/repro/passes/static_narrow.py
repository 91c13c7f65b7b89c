"""Static (non-speculative) bitwidth narrowing — the RQ2 baseline.

Narrows definitions the static analyses *prove* fit 8 bits (or whose users
provably demand only 8 bits, for low-bits-preserving ops).  No speculative
regions, handlers or ISA monitoring are needed: every truncate is exact.
This models "register packing without speculation": the BITSPEC hardware's
slice storage is used, but only where a production static analysis finds the
opportunity — Figure 12 measures what that leaves on the table.
"""

from __future__ import annotations

from repro.analysis.bitwidth import demanded_bits, known_bits
from repro.ir.block import BasicBlock
from repro.ir.cfg import reverse_postorder
from repro.ir.function import Function, Module
from repro.ir.instructions import BinOp, Cast, Icmp, Instruction, Load, Phi
from repro.ir.types import IntType, int_type, required_bits
from repro.ir.values import Constant, Value

WIDTH = 8
I8 = int_type(WIDTH)

#: ops whose low 8 result bits depend only on the low 8 operand bits
_LOW_BITS_PRESERVING = frozenset({"add", "sub", "and", "or", "xor", "shl"})
#: ops that are exact at 8 bits when operands provably fit 8 bits
_FIT_PRESERVING = frozenset({"add", "and", "or", "xor", "shl", "lshr"})
_UNSIGNED_PREDS = frozenset({"eq", "ne", "ult", "ule", "ugt", "uge"})


def plan_static_narrowing(func: Function) -> tuple[set, set]:
    """(definitions to narrow, comparisons to narrow), all proven safe."""
    known = known_bits(func)
    demanded = demanded_bits(func)

    def fits(value: Value) -> bool:
        if isinstance(value, Constant):
            return required_bits(value.value) <= WIDTH
        if isinstance(value, Instruction):
            return known.get(value, 64) <= WIDTH
        return False

    candidates: set[Instruction] = set()
    cmps: set[Icmp] = set()
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Icmp):
                if inst.pred in _UNSIGNED_PREDS and isinstance(
                    inst.lhs.type, IntType
                ) and inst.lhs.type.bits > WIDTH:
                    if fits(inst.lhs) and fits(inst.rhs):
                        cmps.add(inst)
                continue
            if not isinstance(inst.type, IntType) or inst.type.bits <= WIDTH:
                continue
            if isinstance(inst, BinOp):
                op = inst.opcode
                proven_fit = known.get(inst, 64) <= WIDTH and all(
                    fits(o) for o in (inst.lhs, inst.rhs)
                )
                low_demand = (
                    demanded.get(inst, 64) <= WIDTH and op in _LOW_BITS_PRESERVING
                )
                if (op in _FIT_PRESERVING and proven_fit) or low_demand:
                    # shift amounts must themselves fit the slice
                    if op in ("shl", "lshr") and not fits(inst.rhs):
                        continue
                    candidates.add(inst)
            elif isinstance(inst, Phi):
                if known.get(inst, 64) <= WIDTH or demanded.get(inst, 64) <= WIDTH:
                    candidates.add(inst)
            elif isinstance(inst, Cast) and inst.opcode in ("zext", "trunc"):
                if fits(inst.value) or demanded.get(inst, 64) <= WIDTH:
                    if inst.opcode == "trunc" or fits(inst.value):
                        candidates.add(inst)

    # Phi fixpoint: incomings must be narrowed values or small constants.
    changed = True
    while changed:
        changed = False
        for inst in list(candidates):
            if not isinstance(inst, Phi):
                continue
            for value in inst.operands:
                ok = (
                    (isinstance(value, Constant) and required_bits(value.value) <= WIDTH)
                    or value in candidates
                    or (
                        isinstance(value.type, IntType)
                        and value.type.bits <= WIDTH
                    )
                )
                if not ok:
                    candidates.discard(inst)
                    changed = True
                    break

    # Narrow-demand bridging uses plain truncs (drop bits we may rely on for
    # FIT-narrowed ops) — for proven-fit ops the trunc is exact anyway; for
    # demand-narrowed ops dropping high bits is precisely what is allowed.
    kept_cmps = set()
    for cmp in cmps:
        # Comparisons need *values*, not just low bits: both sides must be
        # proven-fit or narrowed proven-fit producers.
        kept_cmps.add(cmp)
    return candidates, kept_cmps


def _narrow_value(
    func: Function,
    block: BasicBlock,
    position: Instruction,
    value: Value,
    narrow_map: dict,
) -> Value:
    mapped = narrow_map.get(value)
    if mapped is not None:
        return mapped
    if isinstance(value, Constant):
        return Constant(I8, value.value)
    if isinstance(value.type, IntType) and value.type.bits == WIDTH:
        return value
    cast = _to_width(value, func.next_name("ntr"))
    index = block.instructions.index(position)
    block.insert(index, cast)
    return cast


def _to_width(value: Value, name: str) -> Cast:
    """``value`` at the narrow width: truncated, or zero-extended when it
    is narrower still (an i1 compare result)."""
    if isinstance(value.type, IntType) and value.type.bits < WIDTH:
        return Cast("zext", value, I8, name)
    return Cast("trunc", value, I8, name)


def narrow_function(func: Function) -> int:
    """Apply static narrowing; returns the number of narrowed definitions."""
    candidates, cmps = plan_static_narrowing(func)
    if not candidates and not cmps:
        return 0
    narrow_map: dict[Value, Value] = {}
    narrow_phis: list[tuple[Phi, Phi]] = []
    count = 0
    for block in reverse_postorder(func):
        for inst in list(block.instructions):
            if inst in candidates:
                if isinstance(inst, Phi):
                    narrow = Phi(I8, func.next_name(f"{inst.name}.n"))
                    block.insert(block.instructions.index(inst), narrow)
                    narrow_phis.append((inst, narrow))
                    narrow_map[inst] = narrow
                elif isinstance(inst, Cast):
                    source = inst.value
                    mapped = narrow_map.get(source)
                    if mapped is not None:
                        narrow_map[inst] = mapped
                    elif isinstance(source, Constant):
                        narrow_map[inst] = Constant(I8, I8.wrap(source.value))
                    elif (
                        isinstance(source.type, IntType)
                        and source.type.bits == WIDTH
                    ):
                        narrow_map[inst] = source
                    else:
                        narrow = _to_width(source, func.next_name(f"{inst.name}.n"))
                        block.insert(block.instructions.index(inst), narrow)
                        narrow_map[inst] = narrow
                else:
                    lhs = _narrow_value(func, block, inst, inst.lhs, narrow_map)
                    rhs = _narrow_value(func, block, inst, inst.rhs, narrow_map)
                    narrow = BinOp(inst.opcode, lhs, rhs, func.next_name(f"{inst.name}.n"))
                    block.insert(block.instructions.index(inst), narrow)
                    narrow_map[inst] = narrow
                count += 1
            elif inst in cmps:
                lhs = _narrow_value(func, block, inst, inst.lhs, narrow_map)
                rhs = _narrow_value(func, block, inst, inst.rhs, narrow_map)
                narrow_cmp = Icmp(inst.pred, lhs, rhs, func.next_name(f"{inst.name}.n"))
                block.insert(block.instructions.index(inst), narrow_cmp)
                inst.replace_all_uses_with(narrow_cmp)
                inst.erase_from_parent()
                count += 1

    for original, narrow in narrow_phis:
        for value, pred in original.incoming():
            if value in narrow_map:
                narrow.add_incoming(narrow_map[value], pred)
            elif isinstance(value, Constant):
                narrow.add_incoming(Constant(I8, value.value), pred)
            else:
                narrow.add_incoming(value, pred)

    for original in list(narrow_map):
        if not isinstance(original, Instruction) or original.parent is None:
            continue
        if original not in candidates:
            continue
        block = original.parent
        if original.users:
            ext = Cast(
                "zext",
                narrow_map[original],
                original.type,
                func.next_name(f"{original.name}.x"),
            )
            if isinstance(original, Phi):
                block.insert(len(block.phis()), ext)
            else:
                block.insert(block.instructions.index(original), ext)
            original.replace_all_uses_with(ext)
        original.erase_from_parent()
    return count


def narrow_module(module: Module) -> int:
    from repro.passes import stats

    narrowed = sum(narrow_function(f) for f in module.functions.values())
    stats.bump("static-narrow", "operations_narrowed", narrowed)
    return narrowed
