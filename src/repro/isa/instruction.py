"""Decoded SP32 instruction representation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IsaError
from repro.isa.opcodes import FORMATS, Fmt, Op
from repro.isa.registers import Reg


# Per format: (needs rd, needs rs1, needs rs2, immediate is 12-bit).
_OPERANDS = {
    Fmt.NONE: (False, False, False, False),
    Fmt.RD_RS1_RS2: (True, True, True, False),
    Fmt.RD_RS1: (True, True, False, False),
    Fmt.RD_IMM32: (True, False, False, False),
    Fmt.RD_RS1_IMM32: (True, True, False, False),
    Fmt.RS1_RS2: (False, True, True, False),
    Fmt.RS1_IMM32: (False, True, False, False),
    Fmt.MEM_LOAD: (True, True, False, True),
    Fmt.MEM_STORE: (False, True, True, True),
    Fmt.IMM32: (False, False, False, False),
    Fmt.RS1: (False, True, False, False),
    Fmt.RD: (True, False, False, False),
    Fmt.IMM12: (False, False, False, True),
}


@dataclass(frozen=True)
class Instruction:
    """One decoded SP32 instruction.

    Only the fields required by the instruction's format are meaningful;
    the rest default to ``None``/zero.  :meth:`validate` enforces that
    the populated fields match the format, which keeps hand-constructed
    instructions (tests, the assembler) honest.
    """

    op: Op
    rd: Reg | None = None
    rs1: Reg | None = None
    rs2: Reg | None = None
    imm: int = 0

    def __post_init__(self) -> None:
        self.validate()

    @property
    def fmt(self) -> Fmt:
        """The operand format of this instruction's opcode."""
        return FORMATS[self.op]

    def validate(self) -> None:
        """Raise :class:`IsaError` if operands do not match the format."""
        need_rd, need_rs1, need_rs2, imm12 = _OPERANDS[FORMATS[self.op]]
        if need_rd and self.rd is None:
            raise IsaError(f"{self.op.name} requires rd")
        if need_rs1 and self.rs1 is None:
            raise IsaError(f"{self.op.name} requires rs1")
        if need_rs2 and self.rs2 is None:
            raise IsaError(f"{self.op.name} requires rs2")
        if not need_rd and self.rd is not None:
            raise IsaError(f"{self.op.name} does not take rd")
        if not need_rs1 and self.rs1 is not None:
            raise IsaError(f"{self.op.name} does not take rs1")
        if not need_rs2 and self.rs2 is not None:
            raise IsaError(f"{self.op.name} does not take rs2")
        if imm12 and not -2048 <= self.imm <= 4095:
            raise IsaError(
                f"{self.op.name} immediate {self.imm} exceeds 12 bits"
            )

    def __str__(self) -> str:
        fmt = self.fmt
        name = self.op.name.lower()
        if fmt is Fmt.NONE:
            return name
        if fmt is Fmt.RD_RS1_RS2:
            return f"{name} {self.rd.asm_name}, {self.rs1.asm_name}, {self.rs2.asm_name}"
        if fmt is Fmt.RD_RS1:
            return f"{name} {self.rd.asm_name}, {self.rs1.asm_name}"
        if fmt is Fmt.RD_IMM32:
            return f"{name} {self.rd.asm_name}, #{self.imm:#x}"
        if fmt is Fmt.RD_RS1_IMM32:
            return f"{name} {self.rd.asm_name}, {self.rs1.asm_name}, #{self.imm:#x}"
        if fmt is Fmt.RS1_RS2:
            return f"{name} {self.rs1.asm_name}, {self.rs2.asm_name}"
        if fmt is Fmt.RS1_IMM32:
            return f"{name} {self.rs1.asm_name}, #{self.imm:#x}"
        if fmt is Fmt.MEM_LOAD:
            return f"{name} {self.rd.asm_name}, [{self.rs1.asm_name}+{self.imm}]"
        if fmt is Fmt.MEM_STORE:
            return f"{name} {self.rs2.asm_name}, [{self.rs1.asm_name}+{self.imm}]"
        if fmt is Fmt.IMM32:
            return f"{name} #{self.imm:#x}"
        if fmt is Fmt.RS1:
            return f"{name} {self.rs1.asm_name}"
        if fmt is Fmt.RD:
            return f"{name} {self.rd.asm_name}"
        if fmt is Fmt.IMM12:
            return f"{name} #{self.imm}"
        raise IsaError(f"unhandled format {fmt}")
