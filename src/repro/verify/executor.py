"""Bounded symbolic execution over the machine ISA.

Runs a linked binary on the :mod:`repro.verify.domain` valuation domain:
machine words are per-lane tables over the bounded input space, and every
instruction is evaluated pointwise with the exact semantics of the legacy
reference engine (:meth:`repro.arch.machine.Machine._run_legacy`) — the
same slice masks, sign extensions, Δ-redirect misspeculation rules and
trap conditions, minus the cost model (cycles/energy/caches), which is
out of scope for the architectural equivalence contract.

Control flow forks when lanes disagree:

* a conditional branch whose predicate differs across lanes splits the
  state into a taken and a fall-through child;
* a speculative ``bs_*`` op whose misspeculation verdict differs splits
  into a write-back child and a ``pc += Δ`` redirect child (so handler
  code is symbolically executed exactly like the hardware reaches it);
* a memory access or indirect branch through a lane-dependent address is
  concretized by forking per distinct address value;
* a lane-dependent zero divisor forks the trapping lanes off.

Each terminal state yields, per lane, an :class:`Observation` — the
architecturally visible exit state (trap, ``out()`` stream, final global
memory) that :mod:`repro.verify.checker` compares across worlds.  All
budgets are deterministic (lane-steps and live states), so a run either
completes identically every time or raises :class:`BoundExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.machine import HALT, _DIV_OPS
from repro.arch.widths import BYTE_MASKS as _MASKS, slice_mask
from repro.backend.mir import Imm, Slice
from repro.interp.interpreter import evaluate_icmp
from repro.interp.memory import (
    FlatMemory,
    STACK_TOP,
    global_inputs,
    initialize_globals,
)
from repro.ir.types import int_type
from repro.verify.domain import (
    Vec,
    expand,
    is_sym,
    lane,
    make,
    map1,
    map2,
    map3,
    partition,
    restrict,
    sxt,
)

#: default exploration budgets (overridable per run)
DEFAULT_STEP_BUDGET = 40_000_000  # lane-steps: sum over lanes of path length
DEFAULT_MAX_STATES = 4_096  # simultaneously live forked states


class BoundExceeded(Exception):
    """The bounded exploration ran out of budget (not a verdict either way)."""


@dataclass(frozen=True)
class Observation:
    """The architecturally visible exit state of one lane.

    ``trap`` is ``None`` for a clean halt, else the trap message; ``out``
    is the concrete ``out()`` stream; ``globals_image`` is a tuple of
    ``(name, element values)`` for every module global, read back from
    final memory — together the final register/memory state the
    BITSPEC ≡ BASELINE contract quantifies over (return values flow
    through ``out`` in driver programs; stack locals are dead on exit).
    """

    trap: object
    out: tuple
    globals_image: tuple


class _State:
    """One symbolically executing machine, restricted to a lane subset."""

    __slots__ = ("pc", "regs", "overlay", "out", "cmp", "carry", "lanes")

    def __init__(self, pc, regs, overlay, out, cmp, carry, lanes):
        self.pc = pc
        self.regs = regs
        self.overlay = overlay
        self.out = out
        self.cmp = cmp
        self.carry = carry
        self.lanes = lanes

    def split(self, positions: list) -> "_State":
        """A child state re-aligned to the lane subset ``positions``."""
        return _State(
            self.pc,
            [restrict(r, positions) for r in self.regs],
            {a: restrict(v, positions) for a, v in self.overlay.items()},
            [restrict(v, positions) for v in self.out],
            (
                restrict(self.cmp[0], positions),
                restrict(self.cmp[1], positions),
                self.cmp[2],
            ),
            restrict(self.carry, positions),
            tuple(self.lanes[p] for p in positions),
        )


class SymbolicMachine:
    """Symbolically executes one compiled binary over a bounded input domain.

    ``symbolic`` maps scalar global names to their per-lane value tables
    (every table the same length — the joint assignment enumeration built
    by :func:`repro.verify.checker.build_lanes`); ``inputs`` holds the
    concrete values for every other input global, applied exactly like a
    concrete ``CompiledBinary.run(inputs)``.
    """

    def __init__(
        self,
        binary,
        symbolic: dict,
        *,
        inputs: dict = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        max_states: int = DEFAULT_MAX_STATES,
    ) -> None:
        self.binary = binary
        self.linked = binary.linked
        self.module = binary.module
        self.symbolic = dict(symbolic)
        self.step_budget = step_budget
        self.max_states = max_states
        lane_counts = {len(v) for v in symbolic.values()} or {1}
        if len(lane_counts) != 1:
            raise ValueError("symbolic inputs must share one lane count")
        self.n_lanes = lane_counts.pop()
        self.spec_mask = slice_mask(getattr(self.linked, "slice_width", 8))

        self.base = FlatMemory()
        initialize_globals(
            self.base,
            self.module,
            self.linked.global_addresses,
            global_inputs(self.module, inputs) if inputs else None,
        )

        # exploration statistics (deterministic; surfaced in verdicts)
        self.lane_steps = 0
        self.paths = 0
        self.forks = 0
        self.misspec_lanes = 0

    # -- entry ----------------------------------------------------------------

    def _initial_state(self) -> _State:
        regs = [0] * 16
        regs[13] = STACK_TOP
        regs[14] = HALT
        overlay = {}
        for name, table in self.symbolic.items():
            gv = self.module.globals.get(name)
            if gv is None:
                raise KeyError(f"no such global: {name}")
            if gv.count != 1:
                raise ValueError(f"symbolic input {name} must be scalar")
            base = self.linked.global_addresses[name]
            size = gv.elem_type.size_bytes
            wrapped = make(gv.elem_type.wrap(v) for v in table)
            for i in range(size):
                byte = map1(lambda v, _i=i: (v >> (8 * _i)) & 0xFF, wrapped, 0)
                if is_sym(byte) or byte != self.base.data[base + i]:
                    overlay[base + i] = byte
        return _State(
            self.linked.entry_index,
            regs,
            overlay,
            [],
            (0, 0, 4),
            0,
            tuple(range(self.n_lanes)),
        )

    def run(self) -> dict:
        """Explore every path; returns ``{lane: Observation}`` (total map)."""
        stack = [self._initial_state()]
        results = []
        while stack:
            if len(stack) + self.paths > self.max_states:
                raise BoundExceeded(
                    f"state budget exceeded ({self.max_states} states)"
                )
            state = stack.pop()
            trap = self._run_state(state, stack)
            if trap is _FORKED:
                continue
            results.append((state, trap))
            self.paths += 1

        observations = {}
        for state, trap in results:
            n = len(state.lanes)
            outs = [expand(v, n) for v in state.out]
            image = self._globals_image(state)
            for i, lane_id in enumerate(state.lanes):
                observations[lane_id] = Observation(
                    trap=trap,
                    out=tuple(o[i] for o in outs),
                    globals_image=tuple(
                        (name, tuple(lane(e, i) for e in elems))
                        for name, elems in image
                    ),
                )
        return observations

    # -- memory ---------------------------------------------------------------

    def _load(self, state, addr: int, size: int):
        if addr < 0 or addr + size > self.base.size:
            return None  # trap, matches FlatMemory bounds check
        overlay = state.overlay
        base = self.base.data
        raw = []
        any_sym = False
        for i in range(size):
            byte = overlay.get(addr + i)
            if byte is None:
                byte = base[addr + i]
            elif is_sym(byte):
                any_sym = True
            raw.append(byte)
        if not any_sym:
            value = 0
            for i, byte in enumerate(raw):
                value |= byte << (8 * i)
            return value
        n = len(state.lanes)
        lanes = [0] * n
        for i, byte in enumerate(raw):
            shift = 8 * i
            for j, b in enumerate(expand(byte, n)):
                lanes[j] |= b << shift
        return make(lanes)

    def _store(self, state, addr: int, value, size: int) -> bool:
        if addr < 0 or addr + size > self.base.size:
            return False
        for i in range(size):
            state.overlay[addr + i] = map1(
                lambda v, _i=i: (v >> (8 * _i)) & 0xFF, value, 0
            )
        return True

    def _globals_image(self, state) -> list:
        image = []
        for name in sorted(self.module.globals):
            gv = self.module.globals[name]
            base = self.linked.global_addresses[name]
            size = gv.elem_type.size_bytes
            elems = [
                self._load(state, base + i * size, size)
                for i in range(gv.count)
            ]
            image.append((name, elems))
        return image

    # -- forking --------------------------------------------------------------

    def _fork(self, state, pred, stack, true_pc, false_pc) -> object:
        """Split ``state`` on a lane-dependent predicate; push both children."""
        true_pos, false_pos = partition(expand(pred, len(state.lanes)))
        self.forks += 1
        for positions, pc in ((false_pos, false_pc), (true_pos, true_pc)):
            child = state.split(positions)
            child.pc = pc
            stack.append(child)
        return _FORKED

    def _concretize_addr(self, state, addr, stack) -> object:
        """Fork per distinct lane-dependent address; reruns the same pc."""
        n = len(state.lanes)
        by_value = {}
        for i, v in enumerate(expand(addr, n)):
            by_value.setdefault(v, []).append(i)
        self.forks += 1
        for value in sorted(by_value):
            child = state.split(by_value[value])
            stack.append(child)
        return _FORKED

    # -- the step loop ---------------------------------------------------------

    def _run_state(self, state, stack):
        """Run ``state`` to halt/trap/fork.  Returns the trap message
        (``None`` for a clean halt) or :data:`_FORKED`."""
        linked = self.linked
        insts = linked.insts
        delta = linked.delta
        spec_mask = self.spec_mask
        budget = self.step_budget
        regs = state.regs

        while state.pc != HALT:
            pc = state.pc
            if pc is _TRAP_DIV:
                return "division by zero"
            if not 0 <= pc < len(insts):
                return f"pc out of range: {pc}"
            self.lane_steps += len(state.lanes)
            if self.lane_steps > budget:
                raise BoundExceeded(
                    f"step budget exceeded ({budget} lane-steps)"
                )
            inst = insts[pc]
            n = len(state.lanes)

            def read(op):
                t = type(op)
                if t is Slice:
                    size = op.size if op.size <= 4 else 4
                    mask = _MASKS[size]
                    shift = op.offset * 8
                    value = regs[op.reg]
                    if shift == 0 and mask == 0xFFFFFFFF:
                        return value
                    return map1(lambda v: (v >> shift) & mask, value, n)
                if t is Imm:
                    return op.value & 0xFFFFFFFF
                if op == "sp":
                    return regs[13]
                raise TypeError(f"cannot read operand {op!r}")

            def write(op, value):
                size = op.size if op.size <= 4 else 4
                mask = _MASKS[size]
                shift = op.offset * 8
                if shift == 0 and mask == 0xFFFFFFFF:
                    regs[op.reg] = map1(lambda v: v & 0xFFFFFFFF, value, n)
                    return
                keep = ~(mask << shift) & 0xFFFFFFFF
                regs[op.reg] = map2(
                    lambda old, v: (old & keep) | ((v & mask) << shift),
                    regs[op.reg],
                    value,
                    n,
                )

            opcode = inst.opcode
            next_pc = pc + 1

            if opcode == "mov" or opcode == "movi":
                write(inst.defs[0], read(inst.uses[0]))
            elif opcode in ("ldr", "ldrb", "ldrh"):
                base = read(inst.uses[0])
                disp = inst.uses[1].value if len(inst.uses) > 1 else 0
                addr = map1(lambda v: (v + disp) & 0xFFFFFFFF, base, n)
                if is_sym(addr):
                    return self._concretize_addr(state, addr, stack)
                size = {"ldr": 4, "ldrb": 1, "ldrh": 2}[opcode]
                value = self._load(state, addr, size)
                if value is None:
                    return f"load out of bounds: 0x{addr:x}+{size}"
                write(inst.defs[0], value)
            elif opcode in ("str", "strb", "strh"):
                value = read(inst.uses[0])
                base = read(inst.uses[1])
                disp = inst.uses[2].value if len(inst.uses) > 2 else 0
                addr = map1(lambda v: (v + disp) & 0xFFFFFFFF, base, n)
                if is_sym(addr):
                    return self._concretize_addr(state, addr, stack)
                size = {"str": 4, "strb": 1, "strh": 2}[opcode]
                if not self._store(state, addr, value, size):
                    return f"store out of bounds: 0x{addr:x}+{size}"
            elif opcode in ("add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr"):
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                mask = _MASKS.get(inst.width, 0xFFFFFFFF)
                if opcode == "add":
                    value = map2(lambda x, y: (x + y) & mask, a, b, n)
                elif opcode == "sub":
                    value = map2(lambda x, y: (x - y) & mask, a, b, n)
                elif opcode == "and":
                    value = map2(lambda x, y: x & y, a, b, n)
                elif opcode == "orr":
                    value = map2(lambda x, y: x | y, a, b, n)
                elif opcode == "eor":
                    value = map2(lambda x, y: x ^ y, a, b, n)
                elif opcode == "lsl":
                    value = map2(
                        lambda x, y: (x << y) & mask if y < 32 else 0, a, b, n
                    )
                elif opcode == "lsr":
                    value = map2(lambda x, y: (x >> y) if y < 32 else 0, a, b, n)
                else:  # asr
                    bits = inst.width * 8
                    ty = int_type(bits)
                    value = map2(
                        lambda x, y: ty.wrap(
                            ty.to_signed(x) >> min(y, bits - 1)
                        ),
                        a,
                        b,
                        n,
                    )
                write(inst.defs[0], value)
            elif opcode == "bs_ldr":
                addr = read(inst.uses[0])
                if is_sym(addr):
                    return self._concretize_addr(state, addr, stack)
                size = inst.uses[1].value
                value = self._load(state, addr, size)
                if value is None:
                    return f"load out of bounds: 0x{addr:x}+{size}"
                miss = map1(lambda v: v > spec_mask, value, n)
                if is_sym(miss):
                    # the clean child re-executes this op (its predicate is
                    # then uniformly false), so the write-back still happens
                    self.misspec_lanes += sum(miss.vals)
                    return self._fork(state, miss, stack, pc + delta, pc)
                if miss:
                    self.misspec_lanes += n
                    next_pc = pc + delta
                else:
                    write(inst.defs[0], value)
            elif opcode.startswith("bs_"):
                outcome = self._exec_bitspec(state, inst, read, write, n)
                if outcome == "misspec":
                    self.misspec_lanes += n
                    next_pc = pc + delta
                elif type(outcome) is tuple:
                    if outcome[0] == "fork-misspec":
                        # clean child re-executes the op, see bs_ldr above
                        miss = outcome[1]
                        self.misspec_lanes += sum(expand(miss, n))
                        return self._fork(state, miss, stack, pc + delta, pc)
                    state.cmp = outcome
            elif opcode == "cmp":
                state.cmp = (read(inst.uses[0]), read(inst.uses[1]), inst.width)
            elif opcode == "cmp64hi":
                state.cmp = (read(inst.uses[0]), read(inst.uses[1]), "hi")
            elif opcode == "cmp64lo":
                a_hi, b_hi, _tag = state.cmp
                a = map2(lambda hi, lo: (hi << 32) | lo, a_hi, read(inst.uses[0]), n)
                b = map2(lambda hi, lo: (hi << 32) | lo, b_hi, read(inst.uses[1]), n)
                state.cmp = (a, b, 8)
            elif opcode == "b":
                next_pc = inst.target
            elif opcode == "bcond":
                a, b, width = state.cmp
                ty = int_type(64 if width == 8 else width * 8)
                cond = map2(
                    lambda x, y: evaluate_icmp(inst.cond, x, y, ty), a, b, n
                )
                if is_sym(cond):
                    return self._fork(state, cond, stack, inst.target, pc + 1)
                if cond:
                    next_pc = inst.target
            elif opcode == "movcond":
                a, b, width = state.cmp
                ty = int_type(64 if width == 8 else width * 8)
                cond = map2(
                    lambda x, y: evaluate_icmp(inst.cond, x, y, ty), a, b, n
                )
                source = read(inst.uses[0])
                old = read(inst.defs[0])
                write(
                    inst.defs[0],
                    map3(lambda c, s, o: s if c else o, cond, source, old, n),
                )
            elif opcode in ("uxt", "sxt", "trunc"):
                src = inst.uses[0]
                value = read(src)
                if opcode == "sxt":
                    src_bits = (src.size if type(src) is Slice else 4) * 8
                    value = sxt(value, src_bits, n)
                write(inst.defs[0], value)
            elif opcode == "mul":
                mask = _MASKS.get(inst.width, 0xFFFFFFFF)
                value = map2(
                    lambda x, y: (x * y) & mask,
                    read(inst.uses[0]),
                    read(inst.uses[1]),
                    n,
                )
                write(inst.defs[0], value)
            elif opcode == "umull":
                product = map2(
                    lambda x, y: x * y, read(inst.uses[0]), read(inst.uses[1]), n
                )
                write(inst.defs[0], map1(lambda p: p & 0xFFFFFFFF, product, n))
                write(
                    inst.defs[1],
                    map1(lambda p: (p >> 32) & 0xFFFFFFFF, product, n),
                )
            elif opcode in _DIV_OPS:
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                zero = map1(lambda v: v == 0, b, n)
                if is_sym(zero):
                    return self._fork(state, zero, stack, _TRAP_DIV, pc)
                if zero:
                    return "division by zero"
                bits = inst.width * 8
                ty = int_type(bits)
                value = map2(
                    lambda x, y, _op=opcode, _ty=ty: _divide(_op, x, y, _ty),
                    a,
                    b,
                    n,
                )
                write(inst.defs[0], map1(ty.wrap, value, n))
            elif opcode == "adds":
                full = map2(
                    lambda x, y: x + y, read(inst.uses[0]), read(inst.uses[1]), n
                )
                state.carry = map1(lambda f: f >> 32, full, n)
                write(inst.defs[0], map1(lambda f: f & 0xFFFFFFFF, full, n))
            elif opcode == "adc":
                full = map3(
                    lambda x, y, c: x + y + c,
                    read(inst.uses[0]),
                    read(inst.uses[1]),
                    state.carry,
                    n,
                )
                state.carry = map1(lambda f: f >> 32, full, n)
                write(inst.defs[0], map1(lambda f: f & 0xFFFFFFFF, full, n))
            elif opcode == "subs":
                a = read(inst.uses[0])
                b = read(inst.uses[1])
                state.carry = map2(lambda x, y: 1 if x >= y else 0, a, b, n)
                write(inst.defs[0], map2(lambda x, y: (x - y) & 0xFFFFFFFF, a, b, n))
            elif opcode == "sbc":
                full = map3(
                    lambda x, y, c: x - y - (1 - c),
                    read(inst.uses[0]),
                    read(inst.uses[1]),
                    state.carry,
                    n,
                )
                state.carry = map1(lambda f: 1 if f >= 0 else 0, full, n)
                write(inst.defs[0], map1(lambda f: f & 0xFFFFFFFF, full, n))
            elif opcode == "addsl":
                shift = inst.uses[2].value
                value = map2(
                    lambda x, y: (x + (y << shift)) & 0xFFFFFFFF,
                    read(inst.uses[0]),
                    read(inst.uses[1]),
                    n,
                )
                write(inst.defs[0], value)
            elif opcode == "orrsl":
                shift = inst.uses[2].value
                value = map2(
                    lambda x, y: x
                    | ((y << shift) & 0xFFFFFFFF if shift >= 0 else y >> (-shift)),
                    read(inst.uses[0]),
                    read(inst.uses[1]),
                    n,
                )
                write(inst.defs[0], value)
            elif opcode == "bl":
                regs[14] = pc + 1
                next_pc = inst.target
            elif opcode == "bx":
                target = regs[14]
                if is_sym(target):
                    return self._concretize_addr(state, target, stack)
                next_pc = target
            elif opcode == "subspi":
                regs[13] = map1(
                    lambda v: (v - inst.uses[0].value) & 0xFFFFFFFF, regs[13], n
                )
            elif opcode == "addspi":
                regs[13] = map1(
                    lambda v: (v + inst.uses[0].value) & 0xFFFFFFFF, regs[13], n
                )
            elif opcode == "out":
                state.out.append(read(inst.uses[0]))
            elif opcode == "nop" or opcode == "mode":
                pass
            else:
                return f"unknown opcode {opcode!r} at {pc}"
            state.pc = next_pc
        return None

    def _exec_bitspec(self, state, inst, read, write, n):
        """One non-memory ``bs_*`` op.  Returns "misspec" (all lanes), a
        ``("fork-misspec", predicate)`` marker (lanes disagree), a new
        cmp-state tuple (``bs_cmp``), or None."""
        opcode = inst.opcode
        spec_mask = self.spec_mask
        if opcode == "bs_cmp":
            return (read(inst.uses[0]), read(inst.uses[1]), inst.width)
        if opcode == "bs_trunc":
            value = read(inst.uses[0])
            miss = map1(lambda v: v > spec_mask, value, n)
            if is_sym(miss):
                return ("fork-misspec", miss)
            if miss:
                return "misspec"
            write(inst.defs[0], value)
            return None
        if opcode == "bs_trunc_hi":
            miss = map1(lambda v: v != 0, read(inst.uses[0]), n)
            if is_sym(miss):
                return ("fork-misspec", miss)
            if miss:
                return "misspec"
            return None
        a = read(inst.uses[0])
        b = read(inst.uses[1])
        if opcode == "bs_add":
            wide = map2(lambda x, y: x + y, a, b, n)
        elif opcode == "bs_sub":
            wide = map2(lambda x, y: x - y, a, b, n)
        elif opcode == "bs_and":
            wide = map2(lambda x, y: x & y, a, b, n)
        elif opcode == "bs_orr":
            wide = map2(lambda x, y: x | y, a, b, n)
        elif opcode == "bs_eor":
            wide = map2(lambda x, y: x ^ y, a, b, n)
        elif opcode == "bs_lsl":
            wide = map2(lambda x, y: (x << y) if y < 32 else 0, a, b, n)
        elif opcode == "bs_lsr":
            wide = map2(lambda x, y: x >> y if y < 32 else 0, a, b, n)
        else:
            raise ValueError(f"unknown speculative opcode {opcode!r}")
        miss = map1(lambda w: w < 0 or w > spec_mask, wide, n)
        if is_sym(miss):
            return ("fork-misspec", miss)
        if miss:
            return "misspec"
        write(inst.defs[0], wide)
        return None


def _divide(opcode: str, a: int, b: int, ty) -> int:
    """C-style division/remainder (round toward zero), matching the machine."""
    if opcode == "udiv":
        return a // b
    if opcode == "urem":
        return a % b
    sa, sb = ty.to_signed(a), ty.to_signed(b)
    q = abs(sa) // abs(sb)
    r = abs(sa) % abs(sb)
    if opcode == "sdiv":
        return ty.wrap(-q if (sa < 0) != (sb < 0) else q)
    return ty.wrap(-r if sa < 0 else r)


#: sentinel returned by fork helpers: the state was replaced by children
_FORKED = object()

#: sentinel pc: the state trapped on a forked zero divisor
_TRAP_DIV = object()
