"""Hot-region tier of the ``fast`` engine: per-region Python translation.

:func:`repro.arch.predecode.run_fast` counts entries into *regions* — a
straight-line run of the linked image starting at a pc that a branch,
call, return or Δ-redirect reached, and ending at its first branch,
call, return or undecodable instruction; a ``bs_*`` misspeculation
redirect leaves it early through a side exit.  Once a region's entry count in one run
crosses :data:`repro.arch.predecode.HOT_THRESHOLD`, :func:`translate`
turns it into specialised Python source and ``compile()`` s it:

* operand registers become function locals, loaded on first read and
  written back at every exit; immediates, masks, shifts and the slice
  mask become literals, and the opcode dispatch disappears;
* execution counts and load-use hazards inside the region are not
  counted at run time: the region bumps one entry counter (``C[0]``),
  each misspeculation side exit bumps the counter after its offset, and
  :func:`fold_counts` rebuilds the per-pc arrays as entries minus
  earlier exits;
* instruction fetches are issued only at cache-line transitions — a
  fetch from the line fetched last is an L1 hit that leaves the cache
  unchanged (``Cache.lookup``'s last-line path) — and genuinely dynamic
  events (fetch and data-access levels, taken branches, committed
  ``movcond``, misspeculations) go to the same per-pc arrays the
  dispatch loop keeps, so both tiers fold through
  :func:`repro.arch.predecode.fold_result`.

A translation depends only on the predecoded image, so it is cached on
the :class:`LinkedProgram` beside ``_predecode_cache``, keyed by
(``narrow_rf``, slice width, entry pc): every later run of that binary
starts with its hot regions already translated.  Per-run state (the
registers, flags, memory, cache hierarchy and event arrays) reaches the
code through the globals dictionary :func:`instantiate` binds, and each
run gets its own counter list ``C`` per region (:func:`run_globals`,
:func:`instantiate`).
"""

from __future__ import annotations

import builtins
from struct import Struct
from types import CodeType, FunctionType

from repro.arch.cache import L1_LINE_SHIFT
from repro.arch.machine import MachineError
from repro.arch.predecode import (
    OP_ADC, OP_ADDS, OP_ADDSL, OP_ADDSPI, OP_ALU, OP_B, OP_BCOND, OP_BL,
    OP_BS_BIN, OP_BS_CMP, OP_BS_LDR, OP_BS_TRUNC, OP_BS_TRUNC_HI, OP_BX,
    OP_CMP, OP_CMP64HI, OP_CMP64LO, OP_DIV, OP_ERROR, OP_EXT, OP_LOAD,
    OP_MOV, OP_MOVCOND, OP_MUL, OP_NOP, OP_ORRSL, OP_OUT, OP_SBC, OP_STORE,
    OP_SUBS, OP_SUBSPI, OP_UMULL,
)
from repro.arch.widths import BYTE_MASKS as _MASKS
from repro.interp.interpreter import evaluate_icmp
from repro.interp.memory import MEMORY_SIZE
from repro.ir.types import int_type

_TERMINATORS = (OP_B, OP_BCOND, OP_BL, OP_BX, OP_ERROR)

_U16 = Struct("<H").unpack_from
_U32 = Struct("<I").unpack_from
_P16 = Struct("<H").pack_into
_P32 = Struct("<I").pack_into

_UNSIGNED = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
             "ugt": ">", "uge": ">="}
_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}


def _icmp_dynamic(cond, a, b, width):
    """A comparison on flags a region inherited (width known at run time)."""
    return evaluate_icmp(cond, a, b, int_type(64 if width == 8 else width * 8))


def run_globals(regs, flags, memory, output, hierarchy, events) -> dict:
    """The globals every translation reads in one run: the registers, the
    ``[compare state, carry]`` flags, memory, the out stream, the cache
    hierarchy and the eight dynamic per-pc event arrays, in
    :func:`repro.arch.predecode.fold_result` order."""
    ic2, icm, dc2, dcm, hz, ms, tk, mc = events
    return {
        "__builtins__": builtins, "MERR": MachineError, "ICD": _icmp_dynamic,
        "U16": _U16, "U32": _U32, "P16": _P16, "P32": _P32,
        "regs": regs, "F": flags, "data": memory.data, "out": output.append,
        "fetch": hierarchy.fetch, "data_access": hierarchy.data_access,
        "IC2": ic2, "ICM": icm, "DC2": dc2, "DCM": dcm,
        "HZ": hz, "MS": ms, "TK": tk, "MC": mc,
    }


class Region:
    """One translated region: a function code object plus fold metadata."""

    __slots__ = ("entry", "code", "length", "end_line", "hazards")

    def __init__(self, entry, code, length, end_line, hazards):
        self.entry = entry
        #: ``def _r(llr, ll, C)`` — the dispatch loop's pending load-use
        #: register and last fetched line in, the next pc out (a negative
        #: value ``-k`` is a misspeculation side exit after ``k``
        #: instructions); ``C`` is the run's counter list
        self.code = code
        #: instructions on the path that reaches the terminator
        self.length = length
        #: icache line of the terminator (the last line a full pass fetched)
        self.end_line = end_line
        #: offsets whose load-use hazard is fixed by the region itself
        self.hazards = hazards


class _TierCache(dict):
    """Translations of one binary; pickles (and copies) as empty, since
    code objects do not pickle and a copy can translate again."""

    def __reduce__(self):
        return (_TierCache, ())


def translations(linked, narrow_rf, slice_width) -> dict:
    """``{entry pc: Region}`` for one binary, cached on the
    :class:`LinkedProgram` and shared by every run and thread."""
    cache = getattr(linked, "_tier_cache", None)
    if cache is None:
        cache = linked._tier_cache = _TierCache()
    return cache.setdefault((narrow_rf, slice_width), {})


def translate(code, entry, inst_bytes, spec_mask) -> Region:
    """Emit and compile the region starting at ``entry``."""
    em = _Emitter(code, entry, inst_bytes, spec_mask)
    em.emit()
    lines = ["def _r(llr, ll, C):"]
    lines.extend("    " + "    " * indent + text for indent, text in em.body)
    module = compile("\n".join(lines) + "\n", f"<region {entry}>", "exec")
    fcode = next(c for c in module.co_consts if isinstance(c, CodeType))
    return Region(entry, fcode, em.length, em.end_line, tuple(em.hazards))


def instantiate(region, run_globals) -> tuple:
    """Bind a translation to one run: ``(function, counters)``."""
    counters = [0] * (region.length + 1)
    fn = FunctionType(region.code, run_globals, "_r", (counters,))
    return fn, counters


def fold_counts(live, exec_counts, hazard_pc) -> None:
    """Add each region's execution counts and static hazards to the per-pc
    arrays, then zero its counters (so a snapshot can fold mid-run).

    The instruction at offset ``j`` ran once per entry, minus once per
    side exit at an earlier offset."""
    for region, counters in live:
        running = counters[0]
        if not running:
            continue
        hazards = region.hazards
        pc = region.entry
        for j in range(region.length):
            exec_counts[pc + j] += running
            if hazards and j in hazards:
                hazard_pc[pc + j] += running
            running -= counters[j + 1]
        counters[:] = [0] * len(counters)


class _Emitter:
    """Generates the body of one region's function."""

    def __init__(self, code, entry, inst_bytes, spec_mask):
        self.code = code
        self.entry = entry
        self.inst_bytes = inst_bytes
        self.spec_mask = spec_mask
        self.body: list = []  # (indent, text)
        self.pending: list = []  # regs first read by the current inst
        self.bound: set = set()  # regs bound as locals
        self.dirty: list = []  # regs written, in write-back order
        # cmp flags: None (inherited, unread) | "loaded" | (width, amax, bmax)
        self.cmp = None
        self.carry = None  # None (inherited, unread) | "loaded" | "set"
        self.hazards: list = []
        self.length = 0
        self.end_line = -1

    # -- helpers ---------------------------------------------------------

    def line(self, indent, text):
        self.body.append((indent, text))

    def reg(self, r, read=True):
        if r not in self.bound:
            self.bound.add(r)
            if read:
                # loaded just before the instruction that first reads it,
                # so an early exit never pays for later instructions' regs
                self.pending.append(r)
        return f"r{r}"

    def wrote(self, r):
        if r not in self.dirty:
            self.dirty.append(r)

    def rd(self, d):
        """Read descriptor -> (expression, upper bound of its value)."""
        k = d[0]
        if k == 0:
            return repr(d[1]), d[1]
        if k == 2:
            return self.reg(13), 0xFFFFFFFF
        name = self.reg(d[1])
        shift, mask = d[2], d[3]
        if mask == 0xFFFFFFFF and shift == 0:
            return name, 0xFFFFFFFF
        if shift:
            return f"(({name} >> {shift}) & {mask:#x})", mask
        return f"({name} & {mask:#x})", mask

    def wr(self, indent, w, expr, vmax, force_load=False):
        """Write ``expr`` (at most ``vmax``) through write descriptor ``w``;
        ``force_load`` binds the old value of a full-width destination
        written under a condition, so every exit writes back a bound name."""
        r, shift, vmask, keep = w
        full = vmask == 0xFFFFFFFF and shift == 0
        name = self.reg(r, read=force_load or not full)
        self.wrote(r)
        if full:
            if vmax > vmask:
                expr = f"({expr}) & 0xFFFFFFFF"
            self.line(indent, f"{name} = {expr}")
            return
        sub = expr if vmax <= vmask else f"({expr}) & {vmask:#x}"
        if shift:
            sub = f"({sub}) << {shift}"
        self.line(indent, f"{name} = ({name} & {keep:#x}) | ({sub})")

    def load_cmp(self, indent):
        if self.cmp is None:
            self.line(indent, "ca, cb, cw = F[0]")
            self.cmp = "loaded"

    def set_cmp(self, a, b, width, amax, bmax):
        self.line(0, f"ca = {a}")
        self.line(0, f"cb = {b}")
        self.cmp = (width, amax, bmax)

    def cond(self, cond):
        """A boolean expression for comparison ``cond`` on the flags."""
        self.load_cmp(0)
        if self.cmp == "loaded":
            return f"ICD({cond!r}, ca, cb, cw)"
        width, amax, bmax = self.cmp
        if width == "hi":
            # a cmp64hi with no cmp64lo: reproduce the dispatch loop
            return f"ICD({cond!r}, ca, cb, 'hi')"
        op = _UNSIGNED.get(cond)
        if op is not None:
            return f"ca {op} cb"
        op = _SIGNED.get(cond)
        if op is None:
            return f"ICD({cond!r}, ca, cb, {width!r})"
        bits = 64 if width == 8 else width * 8
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        a = "ca" if amax is not None and amax <= mask else f"(ca & {mask:#x})"
        b = "cb" if bmax is not None and bmax <= mask else f"(cb & {mask:#x})"
        self.line(0, f"sa_ = {a}")
        self.line(0, f"sa_ = sa_ - {1 << bits} if sa_ >= {sign} else sa_")
        self.line(0, f"sb_ = {b}")
        self.line(0, f"sb_ = sb_ - {1 << bits} if sb_ >= {sign} else sb_")
        return f"sa_ {op} sb_"

    def load_carry(self):
        if self.carry is None:
            self.line(0, "cy = F[1]")
            self.carry = "loaded"

    def write_back(self, indent):
        """Write the flags and registers the region changed back."""
        if self.cmp is not None and self.cmp != "loaded":
            self.line(indent, f"F[0] = (ca, cb, {self.cmp[0]!r})")
        if self.carry == "set":
            self.line(indent, "F[1] = cy")
        for r in self.dirty:
            self.line(indent, f"regs[{r}] = r{r}")

    def exit(self, indent, ret):
        self.write_back(indent)
        self.line(indent, f"return {ret}")

    def fetch(self, pc, guard=""):
        self.line(0, f"if {guard}(lv_ := fetch({pc * self.inst_bytes})) != 'l1':")
        self.line(1, f"(IC2 if lv_ == 'l2' else ICM)[{pc}] += 1")

    def data(self, pc):
        self.line(0, "if (lv_ := data_access(a_)) != 'l1':")
        self.line(1, f"(DC2 if lv_ == 'l2' else DCM)[{pc}] += 1")

    def misspec(self, off, pc):
        """Side exit into the Δ-handler after the instruction at ``off``."""
        self.line(1, f"C[{off + 1}] += 1")
        self.line(1, f"MS[{pc}] += 1")
        self.exit(1, -(off + 1))

    def bounds(self, kind, size):
        self.line(0, f"if a_ > {MEMORY_SIZE - size}:")
        self.line(1, f'raise MemoryError("{kind} out of bounds: 0x%x+{size}" % a_)')

    def mem_read(self, size):
        self.bounds("load", size)
        if size == 1:
            self.line(0, "v_ = data[a_]")
        else:
            self.line(0, f"v_ = U{size * 8}(data, a_)[0]")

    # -- the walk --------------------------------------------------------

    def emit(self):
        code = self.code
        n = len(code)
        entry = self.entry
        hazard_regs = code[entry][1]
        if hazard_regs:
            cond = " or ".join(f"llr == {r}" for r in hazard_regs)
            self.line(0, f"if {cond}:")
            self.line(1, f"HZ[{entry}] += 1")
        line = (entry * self.inst_bytes) >> L1_LINE_SHIFT
        self.fetch(entry, guard=f"ll != {line} and ")
        self.line(0, "C[0] += 1")
        pc = entry
        off = 0
        llr = None
        while True:
            if pc >= n:
                # ran off the image: the dispatch loop raises on this pc
                self.exit(0, pc)
                break
            t = code[pc]
            if llr is not None and llr in t[1]:
                self.hazards.append(off)
            llr = None
            pc_line = (pc * self.inst_bytes) >> L1_LINE_SHIFT
            if pc_line != line:
                self.fetch(pc)
                line = pc_line
            mark = len(self.body)
            llr = self.inst(pc, off, t)
            self.body[mark:mark] = [(0, f"r{r} = regs[{r}]") for r in self.pending]
            self.pending = []
            off += 1
            if t[0] in _TERMINATORS:
                break
            pc += 1
        self.length = off
        self.end_line = line

    def inst(self, pc, off, t):
        """Emit one instruction; returns the reg a load leaves pending."""
        op = t[0]
        spec = self.spec_mask

        if op == OP_ALU:
            sub = t[2]
            a, amax = self.rd(t[3])
            b, bmax = self.rd(t[4])
            mask = t[6]
            if sub == 0:
                self.wr(0, t[5], f"({a} + {b}) & {mask:#x}", mask)
            elif sub == 1:
                self.wr(0, t[5], f"({a} - {b}) & {mask:#x}", mask)
            elif sub == 2:
                self.wr(0, t[5], f"{a} & {b}", min(amax, bmax))
            elif sub == 3:
                self.wr(0, t[5], f"{a} | {b}", amax | bmax)
            elif sub == 4:
                self.wr(0, t[5], f"{a} ^ {b}", amax | bmax)
            elif sub == 5 or sub == 6:
                shl = sub == 5
                if t[4][0] == 0:
                    c = t[4][1]
                    if c >= 32:
                        self.wr(0, t[5], "0", 0)
                    elif shl:
                        self.wr(0, t[5], f"({a} << {c}) & {mask:#x}", mask)
                    else:
                        self.wr(0, t[5], f"{a} >> {c}", amax >> c)
                else:
                    self.line(0, f"b_ = {b}")
                    if shl:
                        self.wr(0, t[5], f"(({a} << b_) & {mask:#x}) if b_ < 32 else 0",
                                mask)
                    else:
                        self.wr(0, t[5], f"({a} >> b_) if b_ < 32 else 0", amax)
            else:  # asr at the operation's signed width
                ty = t[7]
                bits = ty.bits
                tmask = ty.mask
                sign = 1 << (bits - 1)
                self.line(0, f"a_ = {a if amax <= tmask else f'({a} & {tmask:#x})'}")
                self.line(0, f"a_ = a_ - {1 << bits} if a_ >= {sign} else a_")
                if t[4][0] == 0:
                    shift = min(t[4][1], bits - 1)
                else:
                    self.line(0, f"b_ = {b}")
                    self.line(0, f"s_ = b_ if b_ < {bits - 1} else {bits - 1}")
                    shift = "s_"
                self.wr(0, t[5], f"(a_ >> {shift}) & {tmask:#x}", tmask)
            return None

        if op == OP_MOV:
            self.wr(0, t[3], *self.rd(t[2]))
            return None

        if op == OP_LOAD:
            base, _ = self.rd(t[2])
            size = t[4]
            self.line(0, f"a_ = ({base} + {t[3]}) & 0xFFFFFFFF" if t[3] else f"a_ = {base}")
            self.mem_read(size)
            self.wr(0, t[5], "v_", _MASKS[size])
            self.data(pc)
            return t[6]

        if op == OP_STORE:
            v, vmax = self.rd(t[2])
            base, _ = self.rd(t[3])
            size = t[5]
            self.line(0, f"a_ = ({base} + {t[4]}) & 0xFFFFFFFF" if t[4] else f"a_ = {base}")
            self.bounds("store", size)
            if size == 4:
                self.line(0, f"P32(data, a_, {v})")
            else:
                vmask = _MASKS[size]
                sv = v if vmax <= vmask else f"{v} & {vmask:#x}"
                self.line(0, f"data[a_] = {sv}" if size == 1 else f"P16(data, a_, {sv})")
            self.data(pc)
            return None

        if op == OP_BCOND:
            cond = self.cond(t[2])
            self.write_back(0)  # once, for both ways out
            self.line(0, f"if {cond}:")
            self.line(1, f"TK[{pc}] += 1")
            self.line(1, f"return {t[3]}")
            self.line(0, f"return {pc + 1}")
            return None

        if op == OP_B:
            self.exit(0, t[2])
            return None

        if op == OP_BL:
            self.reg(14, read=False)
            self.wrote(14)
            self.line(0, f"r14 = {pc + 1}")
            self.exit(0, t[2])
            return None

        if op == OP_BX:
            self.exit(0, self.reg(14))
            return None

        if op == OP_CMP or op == OP_BS_CMP:
            a, amax = self.rd(t[2])
            b, bmax = self.rd(t[3])
            self.set_cmp(a, b, t[4], amax, bmax)
            return None

        if op == OP_BS_BIN:
            sub = t[2]
            a, amax = self.rd(t[3])
            b, bmax = self.rd(t[4])
            wmax = None  # None: may be negative or unbounded
            if sub == 0:
                self.line(0, f"w_ = {a} + {b}")
                wmax = amax + bmax
            elif sub == 1:
                self.line(0, f"w_ = {a} - {b}")
            elif sub == 2:
                self.line(0, f"w_ = {a} & {b}")
                wmax = min(amax, bmax)
            elif sub in (3, 4):
                self.line(0, f"w_ = {a} {'|' if sub == 3 else '^'} {b}")
                wmax = amax | bmax
            elif t[4][0] == 0:
                c = t[4][1]
                if c >= 32:
                    self.line(0, "w_ = 0")
                    wmax = 0
                elif sub == 5:
                    self.line(0, f"w_ = {a} << {c}")
                    wmax = amax << c
                else:
                    self.line(0, f"w_ = {a} >> {c}")
                    wmax = amax >> c
            else:
                self.line(0, f"b_ = {b}")
                shift = "<<" if sub == 5 else ">>"
                self.line(0, f"w_ = ({a} {shift} b_) if b_ < 32 else 0")
                if sub == 6:
                    wmax = amax
            if wmax is not None and wmax <= spec:
                # provably inside the slice: this op never misspeculates
                self.wr(0, t[5], "w_", wmax)
            else:
                self.line(0, f"if w_ < 0 or w_ > {spec}:" if sub == 1
                          else f"if w_ > {spec}:")
                self.misspec(off, pc)
                self.wr(0, t[5], "w_", spec)
            return None

        if op == OP_BS_TRUNC:
            a, amax = self.rd(t[2])
            if amax <= spec:
                self.wr(0, t[3], a, amax)
            else:
                self.line(0, f"v_ = {a}")
                self.line(0, f"if v_ > {spec}:")
                self.misspec(off, pc)
                self.wr(0, t[3], "v_", spec)
            return None

        if op == OP_BS_TRUNC_HI:
            a, amax = self.rd(t[2])
            if amax:
                self.line(0, f"if {a} != 0:")
                self.misspec(off, pc)
            return None

        if op == OP_BS_LDR:
            addr, _ = self.rd(t[2])
            size = t[3]
            self.line(0, f"a_ = {addr}")
            self.mem_read(size)
            self.data(pc)
            if _MASKS[size] > spec:
                self.line(0, f"if v_ > {spec}:")
                self.misspec(off, pc)
            self.wr(0, t[4], "v_", min(_MASKS[size], spec))
            return t[6]

        if op == OP_EXT:
            e, vmax = self.rd(t[2])
            ty = t[3]
            if ty is not None and vmax >= 1 << (ty.bits - 1):  # sxt
                sign = 1 << (ty.bits - 1)
                self.line(0, f"v_ = {e if vmax <= ty.mask else f'{e} & {ty.mask:#x}'}")
                self.line(0, f"v_ = (v_ - {1 << ty.bits}) & 0xFFFFFFFF "
                             f"if v_ >= {sign} else v_")
                e, vmax = "v_", 0xFFFFFFFF
            self.wr(0, t[4], e, vmax)
            return None

        if op == OP_MOVCOND:
            cond = self.cond(t[2])
            self.line(0, f"if {cond}:")
            self.line(1, f"MC[{pc}] += 1")
            e, vmax = self.rd(t[3])
            self.wr(1, t[5], e, vmax, force_load=True)
            return None

        if op == OP_MUL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.wr(0, t[4], f"({a} * {b}) & {t[5]:#x}", t[5])
            return None

        if op == OP_UMULL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.line(0, f"p_ = {a} * {b}")
            self.wr(0, t[4], "p_ & 0xFFFFFFFF", 0xFFFFFFFF)
            self.wr(0, t[5], "(p_ >> 32) & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_DIV:
            sub = t[2]
            ty = t[6]
            tmask = ty.mask
            a, amax = self.rd(t[3])
            b, bmax = self.rd(t[4])
            self.line(0, f"b_ = {b}")
            self.line(0, "if b_ == 0:")
            self.line(1, 'raise MERR("division by zero")')
            if sub == 0 or sub == 2:  # udiv, urem
                e = f"{a} {'//' if sub == 0 else '%'} b_"
                self.line(0, f"v_ = ({e}) & {tmask:#x}" if amax > tmask else f"v_ = {e}")
            else:
                bits = ty.bits
                sign = 1 << (bits - 1)
                self.line(0, f"sa_ = {a if amax <= tmask else f'({a} & {tmask:#x})'}")
                self.line(0, f"sa_ = sa_ - {1 << bits} if sa_ >= {sign} else sa_")
                self.line(0, f"sb_ = {'b_' if bmax <= tmask else f'(b_ & {tmask:#x})'}")
                self.line(0, f"sb_ = sb_ - {1 << bits} if sb_ >= {sign} else sb_")
                if sub == 1:  # sdiv
                    self.line(0, "q_ = abs(sa_) // abs(sb_)")
                    self.line(0, f"v_ = (-q_ if (sa_ < 0) != (sb_ < 0) else q_) & {tmask:#x}")
                else:  # srem
                    self.line(0, "q_ = abs(sa_) % abs(sb_)")
                    self.line(0, f"v_ = (-q_ if sa_ < 0 else q_) & {tmask:#x}")
            self.wr(0, t[5], "v_", tmask)
            return None

        if op == OP_ADDS or op == OP_ADC:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            if op == OP_ADC:
                self.load_carry()
                self.line(0, f"f_ = {a} + {b} + cy")
            else:
                self.line(0, f"f_ = {a} + {b}")
            self.line(0, "cy = f_ >> 32")
            self.carry = "set"
            self.wr(0, t[4], "f_ & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_SUBS:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.line(0, f"a_ = {a}")
            self.line(0, f"b_ = {b}")
            self.line(0, "cy = 1 if a_ >= b_ else 0")
            self.carry = "set"
            self.wr(0, t[4], "(a_ - b_) & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_SBC:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.load_carry()
            self.line(0, f"f_ = {a} - {b} - 1 + cy")
            self.line(0, "cy = 1 if f_ >= 0 else 0")
            self.carry = "set"
            self.wr(0, t[4], "f_ & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_ADDSL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.wr(0, t[5], f"({a} + ({b} << {t[4]})) & 0xFFFFFFFF", 0xFFFFFFFF)
            return None

        if op == OP_ORRSL:
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            shift = t[4]
            shifted = (f"(({b} << {shift}) & 0xFFFFFFFF)" if shift >= 0
                       else f"({b} >> {-shift})")
            self.wr(0, t[5], f"{a} | {shifted}", 0xFFFFFFFF)
            return None

        if op == OP_SUBSPI or op == OP_ADDSPI:
            name = self.reg(13)
            self.wrote(13)
            sign = "-" if op == OP_SUBSPI else "+"
            self.line(0, f"{name} = ({name} {sign} {t[2]}) & 0xFFFFFFFF")
            return None

        if op == OP_CMP64HI:
            a, amax = self.rd(t[2])
            b, bmax = self.rd(t[3])
            self.set_cmp(a, b, "hi", amax, bmax)
            return None

        if op == OP_CMP64LO:
            self.load_cmp(0)
            a, _ = self.rd(t[2])
            b, _ = self.rd(t[3])
            self.line(0, f"ca = (ca << 32) | {a}")
            self.line(0, f"cb = (cb << 32) | {b}")
            self.cmp = (8, None, None)
            return None

        if op == OP_OUT:
            self.line(0, f"out({self.rd(t[2])[0]})")
            return None

        if op == OP_NOP:
            return None

        # OP_ERROR raises when, and only when, it executes
        self.line(0, f"raise MERR({(t[2] + ' at ' + str(pc))!r})")
        return None
