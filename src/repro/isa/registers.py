"""SP32 register file definition.

Sixteen 32-bit general-purpose registers.  Three have a software
convention baked into the ISA's call/return instructions:

* ``r13`` (``lr``) — link register, written by ``CALL``/``CALLR``.
* ``r14`` (``fp``) — frame pointer by convention only.
* ``r15`` (``sp``) — stack pointer, used by ``PUSH``/``POP`` and by the
  exception engines when spilling CPU state.

The instruction pointer and the flags register are architecturally
separate and are not addressable as GPRs; the exception engines access
them directly on the CPU model.
"""

from __future__ import annotations

import enum

from repro.errors import IsaError

NUM_REGS = 16

WORD_MASK = 0xFFFF_FFFF
WORD_BITS = 32
WORD_BYTES = 4


class Reg(enum.IntEnum):
    """Architectural names for the sixteen general-purpose registers."""

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    LR = 13
    FP = 14
    SP = 15

    @classmethod
    def parse(cls, name: str) -> "Reg":
        """Resolve an assembler register name (``r4``, ``sp``, ``lr``)."""
        reg = _CANONICAL.get(name)
        if reg is not None:
            return reg
        text = name.strip().lower()
        if text in _CANONICAL:
            return _CANONICAL[text]
        if text.startswith("r") and text[1:].isdigit():
            index = int(text[1:])
            if 0 <= index < NUM_REGS:
                return cls(index)
        raise IsaError(f"unknown register name: {name!r}")

    @property
    def asm_name(self) -> str:
        """The canonical assembler spelling of this register."""
        if self is Reg.LR:
            return "lr"
        if self is Reg.FP:
            return "fp"
        if self is Reg.SP:
            return "sp"
        return f"r{int(self)}"


# Every lower-case spelling the assembler emits or accepts verbatim,
# so :meth:`Reg.parse` resolves the common case with one lookup.
_CANONICAL = {f"r{int(reg)}": reg for reg in Reg}
_CANONICAL.update({reg.asm_name: reg for reg in Reg})


def to_u32(value: int) -> int:
    """Truncate a Python int to an unsigned 32-bit value."""
    return value & WORD_MASK


def to_s32(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= WORD_MASK
    if value >= 0x8000_0000:
        return value - 0x1_0000_0000
    return value
