"""The SP32 CPU core.

A functional, cycle-annotated model of a 32-bit single-issue embedded
core in the spirit of the paper's Siskiyou Peak prototype.  Two hook
points make it TrustLite-capable without modifying this module:

* ``cpu.mpu`` — an object with ``check(subject_ip, address, size,
  access)`` that raises :class:`~repro.errors.MemoryProtectionFault` to
  deny an access.  Every fetch, load and store is routed through it,
  with the *currently executing* instruction address as the subject —
  exactly the ``curr_IP`` input of the paper's Fig. 2.
* ``cpu.exception_engine`` — an object receiving interrupts, faults and
  software traps.  :mod:`repro.core.exception_engine` provides the
  regular and the TrustLite secure variant.

Interrupts are recognized between instructions, as on a single-issue
pipeline where the exception point is the retire boundary.  An MPU
fault *invalidates* the executing instruction: all architectural writes
of the faulting instruction are squashed, because permission checks
happen before any state is mutated (each SP32 instruction performs at
most one memory access, so check-before-write gives exact squashing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import (
    EncodingError,
    InvalidInstruction,
    MachineError,
    MemoryProtectionFault,
)
from repro.isa.cycles import BRANCH_TAKEN_PENALTY, cycle_cost
from repro.isa.encoding import decode, instruction_length
from repro.isa.instruction import Instruction
from repro.isa.opcodes import BRANCH_CONDITIONS, Cond, Op
from repro.isa.registers import Reg, to_s32, to_u32
from repro.machine.access import AccessType
from repro.machine.bus import Bus
from repro.machine.fastpath import FastPath
from repro.machine.irq import InterruptController


@dataclass
class CpuFlags:
    """Architectural flags register (Z, N, C, V, IE)."""

    z: bool = False
    n: bool = False
    c: bool = False
    v: bool = False
    ie: bool = False

    _Z, _N, _C, _V, _IE = 1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4

    def to_word(self) -> int:
        """Pack the flags into the 32-bit flags word."""
        word = 0
        word |= self._Z if self.z else 0
        word |= self._N if self.n else 0
        word |= self._C if self.c else 0
        word |= self._V if self.v else 0
        word |= self._IE if self.ie else 0
        return word

    @classmethod
    def from_word(cls, word: int) -> "CpuFlags":
        """Unpack a flags word."""
        return cls(
            z=bool(word & cls._Z),
            n=bool(word & cls._N),
            c=bool(word & cls._C),
            v=bool(word & cls._V),
            ie=bool(word & cls._IE),
        )

    def copy(self) -> "CpuFlags":
        return CpuFlags(self.z, self.n, self.c, self.v, self.ie)


class Cpu:
    """SP32 core state and execution loop."""

    def __init__(
        self,
        bus: Bus,
        irq: InterruptController | None = None,
        reset_vector: int = 0,
        fastpath: bool = True,
        trace: bool = False,
    ) -> None:
        self.bus = bus
        self.irq = irq if irq is not None else InterruptController()
        self.reset_vector = reset_vector
        self.regs = [0] * 16
        self.ip = reset_vector
        self.flags = CpuFlags()
        self.halted = False
        self.cycles = 0
        self.instructions_retired = 0
        # The address of the instruction currently executing; this is
        # the curr_IP subject the EA-MPU sees (paper Fig. 2).
        self.curr_ip = reset_vector
        # ``fastpath=False`` is the reference engine: no decode cache,
        # no MPU lookaside.  ``trace=True`` stacks the recording trace
        # engine on top of the fast path.  Semantics are identical on
        # all three tiers — the lockstep differential harness enforces
        # that.
        if trace and not fastpath:
            raise MachineError("trace engine requires fastpath=True")
        self.fastpath = FastPath(self, trace=trace) if fastpath else None
        # Callable returning cycles until the next device event (set by
        # the SoC to ``bus.next_event_in``); bounds batched trace runs.
        self.event_horizon: Optional[Callable[[], int | None]] = None
        self._checker = None
        self._mpu = None
        self.exception_engine = None
        self.on_retire: Optional[Callable[["Cpu", Instruction], None]] = None

    @property
    def mpu(self):
        return self._mpu

    @mpu.setter
    def mpu(self, value) -> None:
        """Install the protection hook; resolves the check fast path once.

        ``_checker`` is the bound callable every access goes through:
        ``None`` (no MPU), the MPU's own ``check``, or a
        :class:`~repro.machine.fastpath.MpuLookaside` front end when the
        fast path is on and the MPU supports one.
        """
        self._mpu = value
        if value is None:
            self._checker = None
            fp = self.fastpath
            if fp is not None and fp._traces is not None:
                fp._traces.flush()
        elif self.fastpath is not None:
            self._checker = self.fastpath.attach_mpu(value)
        else:
            self._checker = value.check

    # ------------------------------------------------------------------
    # Register access helpers.

    def get_reg(self, reg: Reg) -> int:
        return self.regs[int(reg)]

    def set_reg(self, reg: Reg, value: int) -> None:
        self.regs[int(reg)] = to_u32(value)

    @property
    def sp(self) -> int:
        return self.regs[int(Reg.SP)]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[int(Reg.SP)] = to_u32(value)

    def clear_gprs(self) -> None:
        """Zero every general-purpose register (secure engine helper)."""
        for i in range(16):
            self.regs[i] = 0

    def reset(self) -> None:
        """Warm reset: registers cleared, IP back to the reset vector.

        Deliberately does *not* clear memory — the paper's Secure Loader
        makes hardware memory wipes unnecessary (Sec. 3.5), while SMART
        and Sancus must wipe; the baselines model that separately.
        """
        self.clear_gprs()
        self.ip = self.reset_vector
        self.curr_ip = self.reset_vector
        self.flags = CpuFlags()
        self.halted = False
        self.irq.clear_all()

    # ------------------------------------------------------------------
    # Checked memory paths (software accesses, subject = curr_ip).

    def _check(self, address: int, size: int, access: AccessType) -> None:
        if self._checker is not None:
            self._checker(self.curr_ip, address, size, access)

    def load(self, address: int, size: int = 4) -> int:
        """MPU-checked data read performed by the executing instruction."""
        self._check(address, size, AccessType.READ)
        return self.bus.read(address, size)

    def store(self, address: int, value: int, size: int = 4) -> None:
        """MPU-checked data write performed by the executing instruction."""
        self._check(address, size, AccessType.WRITE)
        self.bus.write(address, value, size)

    def _push_word(self, value: int) -> None:
        self.sp = self.sp - 4
        self.store(self.sp, to_u32(value))

    def _pop_word(self) -> int:
        value = self.load(self.sp)
        self.sp = self.sp + 4
        return value

    # ------------------------------------------------------------------
    # Fetch / decode.

    def _fetch(self) -> tuple[Instruction, int]:
        self._check(self.ip, 4, AccessType.FETCH)
        word = self.bus.read(self.ip, 4)
        opcode = (word >> 24) & 0xFF
        try:
            op = Op(opcode)
        except ValueError:
            raise InvalidInstruction(
                f"invalid opcode {opcode:#04x} at {self.ip:#010x}", ip=self.ip
            ) from None
        length = instruction_length(op)
        ext = None
        if length == 8:
            self._check(self.ip + 4, 4, AccessType.FETCH)
            ext = self.bus.read(self.ip + 4, 4)
        try:
            instr = decode(word, ext)
        except EncodingError as exc:
            raise InvalidInstruction(str(exc), ip=self.ip) from exc
        return instr, length

    # ------------------------------------------------------------------
    # Flag computation.

    def _set_zn(self, result: int) -> None:
        self.flags.z = result == 0
        self.flags.n = bool(result & 0x8000_0000)

    def _flags_add(self, a: int, b: int) -> int:
        total = a + b
        result = to_u32(total)
        self._set_zn(result)
        self.flags.c = total > 0xFFFF_FFFF
        self.flags.v = (to_s32(a) + to_s32(b)) != to_s32(result)
        return result

    def _flags_sub(self, a: int, b: int) -> int:
        result = to_u32(a - b)
        self._set_zn(result)
        # ARM convention: C set when no borrow occurred.
        self.flags.c = a >= b
        self.flags.v = (to_s32(a) - to_s32(b)) != to_s32(result)
        return result

    def _cond_true(self, cond: Cond) -> bool:
        f = self.flags
        if cond is Cond.EQ:
            return f.z
        if cond is Cond.NE:
            return not f.z
        if cond is Cond.LT:
            return f.n != f.v
        if cond is Cond.GE:
            return f.n == f.v
        if cond is Cond.GT:
            return (not f.z) and f.n == f.v
        if cond is Cond.LE:
            return f.z or f.n != f.v
        if cond is Cond.LTU:
            return not f.c
        if cond is Cond.GEU:
            return f.c
        raise MachineError(f"unknown condition {cond}")

    # ------------------------------------------------------------------
    # Execution.

    def step(self, budget: int | None = None) -> int:
        """Execute one instruction (or deliver one event); returns cycles.

        ``budget`` — remaining cycles the caller is willing to spend —
        unlocks the trace tier: with a budget the step may execute a
        whole recorded trace batch (many instructions, one return
        value), never exceeding it.  Without one (the default), the
        step retires exactly one instruction, so single-step callers
        see unchanged semantics even on a ``trace=True`` core.
        """
        if self.halted:
            return 0
        fp = self.fastpath
        traces = fp._traces if fp is not None else None
        engine = self.exception_engine
        if engine is not None:
            pending = self.irq.pending(ie=self.flags.ie)
            if pending is not None:
                self.irq.acknowledge(pending.line)
                cycles = engine.deliver_interrupt(self, pending)
                self._account(cycles)
                if traces is not None and budget is not None:
                    traces.note_entry(self.ip)
                return cycles
        if (
            traces is None and budget is not None
            and fp is not None and fp.trace
        ):
            # The first budgeted step on a trace-tier core builds its
            # engine.
            traces = fp.traces
        try:
            if traces is not None and budget is not None:
                cycles = traces.dispatch(budget)
                if cycles is not None:
                    self._account(cycles)
                    traces.note_entry(self.ip)
                    return cycles
            if fp is not None:
                instr, length, cost = fp.fetch()
            else:
                instr, length = self._fetch()
                cost = None
            cycles = self._execute(instr, length, cost)
        except MemoryProtectionFault as fault:
            if engine is None:
                raise
            cycles = engine.deliver_fault(self, fault)
        except InvalidInstruction as bad:
            if engine is None:
                raise
            cycles = engine.deliver_invalid(self, bad)
        else:
            self.instructions_retired += 1
            if self.on_retire is not None:
                self.on_retire(self, instr)
            if (
                traces is not None
                and budget is not None
                and self.ip != self.curr_ip + length
            ):
                traces.note_entry(self.ip)
        self._account(cycles)
        return cycles

    def _account(self, cycles: int) -> None:
        self.cycles += cycles

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run until HALT or the cycle budget is exhausted; returns cycles."""
        start = self.cycles
        while not self.halted and self.cycles - start < max_cycles:
            self.step(max_cycles - (self.cycles - start))
        return self.cycles - start

    def _execute(
        self, instr: Instruction, length: int, cost: int | None = None
    ) -> int:
        op = instr.op
        self.curr_ip = self.ip
        next_ip = self.ip + length
        cycles = cycle_cost(op) if cost is None else cost

        if op in _ALU_REG_OPS:
            a = self.get_reg(instr.rs1)
            b = self.get_reg(instr.rs2)
            self.set_reg(instr.rd, self._alu(op, a, b))
        elif op in _ALU_IMM_OPS:
            a = self.get_reg(instr.rs1)
            self.set_reg(instr.rd, self._alu(_ALU_IMM_OPS[op], a, to_u32(instr.imm)))
        elif op is Op.MOV:
            self.set_reg(instr.rd, self.get_reg(instr.rs1))
        elif op is Op.MOVI:
            self.set_reg(instr.rd, to_u32(instr.imm))
        elif op is Op.NOT:
            result = to_u32(~self.get_reg(instr.rs1))
            self._set_zn(result)
            self.set_reg(instr.rd, result)
        elif op is Op.NEG:
            result = self._flags_sub(0, self.get_reg(instr.rs1))
            self.set_reg(instr.rd, result)
        elif op is Op.CMP:
            self._flags_sub(self.get_reg(instr.rs1), self.get_reg(instr.rs2))
        elif op is Op.CMPI:
            self._flags_sub(self.get_reg(instr.rs1), to_u32(instr.imm))
        elif op is Op.TEST:
            result = self.get_reg(instr.rs1) & self.get_reg(instr.rs2)
            self._set_zn(result)
        elif op is Op.LDW:
            address = to_u32(self.get_reg(instr.rs1) + instr.imm)
            self.set_reg(instr.rd, self.load(address, 4))
        elif op is Op.STW:
            address = to_u32(self.get_reg(instr.rs1) + instr.imm)
            self.store(address, self.get_reg(instr.rs2), 4)
        elif op is Op.LDB:
            address = to_u32(self.get_reg(instr.rs1) + instr.imm)
            self.set_reg(instr.rd, self.load(address, 1))
        elif op is Op.STB:
            address = to_u32(self.get_reg(instr.rs1) + instr.imm)
            self.store(address, self.get_reg(instr.rs2) & 0xFF, 1)
        elif op is Op.JMP:
            next_ip = to_u32(instr.imm)
        elif op is Op.JMPR:
            next_ip = self.get_reg(instr.rs1)
        elif op is Op.CALL:
            self.set_reg(Reg.LR, next_ip)
            next_ip = to_u32(instr.imm)
        elif op is Op.CALLR:
            self.set_reg(Reg.LR, next_ip)
            next_ip = self.get_reg(instr.rs1)
        elif op is Op.RET:
            next_ip = self.get_reg(Reg.LR)
        elif op in BRANCH_CONDITIONS:
            if self._cond_true(BRANCH_CONDITIONS[op]):
                next_ip = to_u32(instr.imm)
                cycles += BRANCH_TAKEN_PENALTY
        elif op is Op.PUSH:
            self._push_word(self.get_reg(instr.rs1))
        elif op is Op.POP:
            self.set_reg(instr.rd, self._pop_word())
        elif op is Op.PUSHF:
            self._push_word(self.flags.to_word())
        elif op is Op.POPF:
            self.flags = CpuFlags.from_word(self._pop_word())
        elif op is Op.RETS:
            next_ip = self._pop_word()
        elif op is Op.NOP:
            pass
        elif op is Op.HALT:
            self.halted = True
        elif op is Op.CLI:
            self.flags.ie = False
        elif op is Op.STI:
            self.flags.ie = True
        elif op is Op.IRET:
            if self.exception_engine is None:
                raise MachineError("IRET without an exception engine")
            self.ip = next_ip  # engine overwrites; keep state consistent
            return cycles + self.exception_engine.iret(self)
        elif op is Op.SWI:
            if self.exception_engine is None:
                raise MachineError("SWI without an exception engine")
            self.ip = next_ip
            return cycles + self.exception_engine.deliver_software(
                self, instr.imm
            )
        else:
            raise MachineError(f"unimplemented opcode {op.name}")

        self.ip = next_ip
        return cycles

    def _alu(self, op: Op, a: int, b: int) -> int:
        if op is Op.ADD:
            return self._flags_add(a, b)
        if op is Op.SUB:
            return self._flags_sub(a, b)
        if op is Op.AND:
            result = a & b
        elif op is Op.OR:
            result = a | b
        elif op is Op.XOR:
            result = a ^ b
        elif op is Op.SHL:
            result = to_u32(a << (b & 31))
        elif op is Op.SHR:
            result = a >> (b & 31)
        elif op is Op.SAR:
            result = to_u32(to_s32(a) >> (b & 31))
        elif op is Op.MUL:
            result = to_u32(a * b)
        else:
            raise MachineError(f"not an ALU op: {op.name}")
        self._set_zn(result)
        return result


_ALU_REG_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SAR, Op.MUL}
)

_ALU_IMM_OPS: dict[Op, Op] = {
    Op.ADDI: Op.ADD,
    Op.SUBI: Op.SUB,
    Op.ANDI: Op.AND,
    Op.ORI: Op.OR,
    Op.XORI: Op.XOR,
    Op.SHLI: Op.SHL,
    Op.SHRI: Op.SHR,
    Op.SARI: Op.SAR,
    Op.MULI: Op.MUL,
}
