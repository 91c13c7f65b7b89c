"""Flat byte-addressable memory shared by the interpreter and the machine.

Little-endian, fixed layout:

* globals start at :data:`GLOBALS_BASE`, laid out in declaration order with
  natural alignment;
* the stack starts at :data:`STACK_TOP` and grows downward.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Module
from repro.ir.types import IntType

GLOBALS_BASE = 0x1000
STACK_TOP = 0x400000
MEMORY_SIZE = 0x400000


class FlatMemory:
    """A flat little-endian byte array with typed accessors."""

    def __init__(self, size: int = MEMORY_SIZE) -> None:
        self.size = size
        self.data = bytearray(size)

    def load(self, addr: int, size_bytes: int) -> int:
        """Read an unsigned little-endian value of ``size_bytes`` bytes."""
        if addr < 0 or addr + size_bytes > self.size:
            raise MemoryError(f"load out of bounds: 0x{addr:x}+{size_bytes}")
        return int.from_bytes(self.data[addr : addr + size_bytes], "little")

    def store(self, addr: int, value: int, size_bytes: int) -> None:
        """Write an unsigned little-endian value of ``size_bytes`` bytes."""
        if addr < 0 or addr + size_bytes > self.size:
            raise MemoryError(f"store out of bounds: 0x{addr:x}+{size_bytes}")
        mask = (1 << (8 * size_bytes)) - 1
        self.data[addr : addr + size_bytes] = (value & mask).to_bytes(
            size_bytes, "little"
        )


def layout_globals(module: Module) -> dict[str, int]:
    """Assign addresses to module globals; returns name -> base address."""
    addresses: dict[str, int] = {}
    cursor = GLOBALS_BASE
    for gv in module.globals.values():
        align = gv.elem_type.size_bytes
        cursor = (cursor + align - 1) & ~(align - 1)
        addresses[gv.name] = cursor
        cursor += gv.size_bytes
    if cursor >= STACK_TOP:
        raise MemoryError("globals overflow into the stack region")
    return addresses


def global_inputs(module: Module, inputs: dict) -> dict[str, list[int]]:
    """Program inputs as full initializer lists, validated against ``module``.

    ``inputs`` maps global names to a scalar or list of element values;
    each result list is wrapped to the element type and zero-padded to
    the global's capacity.  The module itself is not touched.
    """
    out: dict[str, list[int]] = {}
    for name, value in inputs.items():
        gv = module.globals.get(name)
        if gv is None:
            raise KeyError(f"no such global: {name}")
        values = value if isinstance(value, (list, tuple)) else [value]
        if len(values) > gv.count:
            raise ValueError(
                f"{name}: {len(values)} values exceed capacity {gv.count}"
            )
        init = [gv.elem_type.wrap(v) for v in values]
        init += [0] * (gv.count - len(init))
        out[name] = init
    return out


def initialize_globals(
    memory: FlatMemory,
    module: Module,
    addresses: dict[str, int],
    inputs: Optional[dict] = None,
) -> None:
    """Write global initializers into memory.

    ``inputs`` (from :func:`global_inputs`) replaces the initializers of
    the globals it names, leaving the module untouched.
    """
    inputs = inputs or {}
    for gv in module.globals.values():
        base = addresses[gv.name]
        size = gv.elem_type.size_bytes
        for i, value in enumerate(inputs.get(gv.name, gv.initializer)):
            memory.store(base + i * size, value, size)


def read_global(
    memory: FlatMemory,
    module: Module,
    addresses: dict[str, int],
    name: str,
) -> list[int]:
    """Read back a global's current contents as a list of elements."""
    gv = module.globals[name]
    base = addresses[name]
    size = gv.elem_type.size_bytes
    return [memory.load(base + i * size, size) for i in range(gv.count)]
