"""Compile-time fault injection: force pipeline stages to fail on demand.

Complements the machine-level injection layer: instead of breaking the
*hardware*, break the *toolchain* — make the squeezer, SIR verifier,
speculative optimizer or layout throw for a chosen function — and audit
that :func:`repro.core.pipeline.compile_binary` degrades gracefully
(per-function BASELINE fallback with a structured diagnostic) instead of
aborting.

This module is imported by the pipeline, so it must not import anything
from :mod:`repro` (keeping ``core → faults.toolchain`` cycle-free).

Usage::

    with inject_compile_faults({("main", "squeeze")}):
        binary = compile_binary(source, config, ...)
    assert "main" in binary.linked.fallback_functions

Stages checked by the pipeline: ``squeeze``, ``verify``, ``layout``
(``layout`` is module-wide — use ``*`` as the function name).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

#: active injection set of this context: {(function_name, stage)};
#: empty = disabled.  Context-local, so an armed fault never reaches a
#: compile running in another thread.
_ACTIVE: ContextVar[frozenset] = ContextVar("compile_faults", default=frozenset())


class InjectedCompileFault(Exception):
    """A deliberately injected toolchain failure (testing only)."""


@contextmanager
def inject_compile_faults(faults):
    """Arm ``{(function, stage)}`` injections for the enclosed compiles.

    The arming is local to the current thread (context); nested contexts
    compose by union.
    """
    token = _ACTIVE.set(_ACTIVE.get() | {tuple(f) for f in faults})
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def maybe_fail(stage: str, function: str) -> None:
    """Raise :class:`InjectedCompileFault` if (function, stage) is armed."""
    active = _ACTIVE.get()
    if active and ((function, stage) in active or ("*", stage) in active):
        raise InjectedCompileFault(
            f"injected {stage} fault in {function}()"
        )


# -- seeded silent miscompiles (compiler bends) --------------------------------
#
# The injections above make a stage *throw*; the pipeline's graceful
# degradation then produces a correct (BASELINE-fallback) binary.  A bend is
# the nastier failure mode: the squeezer/layout produce *wrong speculative
# code without any diagnostic* — a transform bug the SIR verifier missed.
# Bends are the soundness canaries for the bounded equivalence checker
# (:mod:`repro.verify`): a bent BITSPEC binary must yield a concrete
# counterexample, never a "proved" verdict.
#
# A bend is a pure function of ``(kind, seed)``: candidates are collected in
# image order and ``seed`` picks one, so the same arming always breaks the
# same instruction.  Bends only apply to ARM_BS images (they model squeezer
# output bugs, and the BASELINE twin must stay the trusted reference).

#: recognized bend kinds, each modeling one squeezer/layout bug class
BEND_KINDS = (
    "bs-op-swap",       # squeezed add emitted as sub (wrong opcode select)
    "bs-trunc-drop",    # bs_trunc emitted as mov: silent narrowing, no check
    "sxt-drop",         # sign-extension emitted as zero-extension
    "imm-off-by-one",   # speculative-world immediate operand off by one
    "handler-misroute", # Δ-skeleton branch wired to another region's handler
)

#: active bend of this context: ``(kind, function, seed)`` or None
_BEND: ContextVar = ContextVar("compiler_bend", default=None)


@contextmanager
def bend_compiler(kind: str, function: str = "*", seed: int = 0):
    """Arm one silent miscompile for the enclosed ARM_BS compiles.

    ``function`` restricts candidates to one function's instructions
    (``"*"`` = anywhere); ``seed`` deterministically picks among the
    candidate sites.  Nesting replaces the active bend for the inner scope;
    the arming is local to the current thread (context).
    """
    if kind not in BEND_KINDS:
        raise ValueError(f"unknown bend kind {kind!r}; expected {BEND_KINDS}")
    token = _BEND.set((kind, function, seed))
    try:
        yield
    finally:
        _BEND.reset(token)


def maybe_bend_linked(linked) -> list:
    """Apply the armed bend to a just-linked ARM_BS image, in place.

    Returns a list of bend records (``{"kind", "function", "pc",
    "detail"}``), empty when disarmed, not applicable to this image, or no
    candidate site matched.  Called by ``repro.core.pipeline`` as the last
    link step.
    """
    bend = _BEND.get()
    if bend is None or linked.isa != "ARM_BS":
        return []
    kind, function, seed = bend
    owner = linked.owner
    world = linked.debug.world
    insts = linked.insts

    def in_scope(pc):
        return function == "*" or owner[pc] == function

    from repro.backend.mir import Imm, MachineInst

    applied = []
    if kind == "bs-op-swap":
        swap = {"bs_add": "bs_sub", "bs_sub": "bs_add"}
        sites = [
            pc for pc, inst in enumerate(insts)
            if inst.opcode in swap and in_scope(pc)
        ]
        if sites:
            pc = sites[seed % len(sites)]
            old = insts[pc].opcode
            insts[pc].opcode = swap[old]
            applied.append(_record(kind, owner[pc], pc, f"{old} -> {insts[pc].opcode}"))
    elif kind == "bs-trunc-drop":
        sites = [
            pc for pc, inst in enumerate(insts)
            if inst.opcode == "bs_trunc" and in_scope(pc)
        ]
        if sites:
            pc = sites[seed % len(sites)]
            old = insts[pc]
            bent = MachineInst(
                "mov", list(old.defs), list(old.uses), width=1, kind=old.kind
            )
            bent.comment = old.comment
            insts[pc] = bent
            applied.append(_record(kind, owner[pc], pc, "bs_trunc -> mov"))
    elif kind == "sxt-drop":
        sites = [
            pc for pc, inst in enumerate(insts)
            if inst.opcode == "sxt" and in_scope(pc)
        ]
        if sites:
            pc = sites[seed % len(sites)]
            insts[pc].opcode = "uxt"
            applied.append(_record(kind, owner[pc], pc, "sxt -> uxt"))
    elif kind == "imm-off-by-one":
        # speculative ops only: an off-by-one on e.g. a stack adjustment
        # would shift both worlds' frames identically and stay unobservable
        sites = [
            pc for pc, inst in enumerate(insts)
            if inst.opcode.startswith("bs_") and in_scope(pc)
            and inst.opcode != "bs_ldr"
            and any(type(u) is Imm for u in inst.uses)
        ]
        if sites:
            pc = sites[seed % len(sites)]
            inst = insts[pc]
            slot = next(i for i, u in enumerate(inst.uses) if type(u) is Imm)
            old = inst.uses[slot].value
            inst.uses[slot] = Imm(old + 1)
            applied.append(_record(kind, owner[pc], pc, f"#{old} -> #{old + 1}"))
    elif kind == "handler-misroute":
        handler_of = linked.debug.handler_of
        targets = sorted(set(handler_of.values()))
        sites = [pc for pc in sorted(handler_of) if in_scope(pc)]
        if len(targets) >= 2 and sites:
            pc = sites[seed % len(sites)]
            skeleton_pc = pc + linked.delta
            right = handler_of[pc]
            wrong = targets[(targets.index(right) + 1) % len(targets)]
            insts[skeleton_pc].target = wrong
            applied.append(
                _record(kind, owner[pc], pc, f"handler {right} -> {wrong}")
            )
    return applied


def _record(kind: str, function: str, pc: int, detail: str) -> dict:
    return {"kind": kind, "function": function, "pc": pc, "detail": detail}
