"""CPU exception engines: the regular flow and the TrustLite secure flow.

The regular engine models a conventional embedded exception unit: it
pushes the flags and return IP onto the *current* stack (plus fault
details for faults), masks interrupts and vectors to the handler; the
software ISR is responsible for saving any general-purpose registers it
uses — which is precisely the information-leak channel Sec. 3.4.1
identifies.

Both engines share one entry flow, :meth:`RegularExceptionEngine._enter`:
a context-save step yields the frame's flags word, return IP and entry
cycles; the frame ``[error words...][return ip][flags]`` is then stored
below the stack pointer as one block and the engine vectors to the
handler.  The secure engine (Fig. 4) overrides only the context-save
step.  When the interrupted instruction lies inside a non-OS row of the
Trustlet Table it:

1. spills the *complete* CPU state (the 15 GPRs other than SP, flags
   and saved IP, in :func:`repro.core.layout.resume_frame` order) onto
   the trustlet's current stack as one block,
2. stores the resulting stack pointer into the trustlet's table row and
   clears every general-purpose register,
3. switches to the OS stack (the saved SP of the table's OS row) and
   hands back a regular-looking frame whose return IP is *sanitized* to
   the trustlet's ``continue()`` entry vector — so an ISR that simply
   IRETs transparently resumes the trustlet, and the OS never observes
   the trustlet's registers or true interruption point.

The shared flow then builds that frame on the OS stack and vectors.

Cycle accounting reproduces Sec. 5.4 exactly: the regular entry flow
costs :data:`REGULAR_ENTRY_CYCLES` = 21; the secure engine adds
:data:`SECURE_DETECT_CYCLES` = 2 always, plus
:data:`SECURE_SAVE_CYCLES` = 10 and :data:`SECURE_CLEAR_CYCLES` = 9
when a trustlet is interrupted (21 extra in total, a 100% overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import layout
from repro.core.trustlet_table import TrustletTable, os_row_of, row_covering
from repro.errors import (
    InvalidInstruction,
    MachineError,
    MemoryProtectionFault,
)
from repro.machine.cpu import Cpu, CpuFlags
from repro.machine.irq import Interrupt

REGULAR_ENTRY_CYCLES = 21
SECURE_DETECT_CYCLES = 2
SECURE_SAVE_CYCLES = 10
SECURE_CLEAR_CYCLES = 9

IRET_CYCLES = 8

# Vector numbers for non-IRQ exceptions.
VEC_FAULT = 0
VEC_INVALID = 1
VEC_SOFTWARE = 2

# Error codes pushed with fault frames.
ERR_MPU_FAULT = 0x10
ERR_INVALID_INSTRUCTION = 0x11


@dataclass
class EngineStats:
    """Delivery counters for the evaluation harness."""

    interrupts: int = 0
    faults: int = 0
    software: int = 0
    trustlet_interruptions: int = 0
    engine_cycles: int = 0
    last_entry_cycles: int = 0


class RegularExceptionEngine:
    """Conventional exception engine (minimal state save, Sec. 3.4.1)."""

    def __init__(self) -> None:
        self.irq_vectors: dict[int, int] = {}
        self.exception_vectors: dict[int, int] = {}
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Configuration (performed by boot firmware / the OS model).

    def set_irq_vector(self, line: int, handler: int) -> None:
        self.irq_vectors[line] = handler

    def set_exception_vector(self, vector: int, handler: int) -> None:
        self.exception_vectors[vector] = handler

    # ------------------------------------------------------------------
    # The entry flow.  Stack accesses are hardware-path bus accesses
    # (they bypass the MPU by construction).

    def _save_context(self, cpu: Cpu) -> tuple[int, int, int]:
        """Context-save step: the frame's flags word and return IP, and
        the entry's cycle cost.  The regular engine saves nothing."""
        return cpu.flags.to_word(), cpu.ip, REGULAR_ENTRY_CYCLES

    def _enter(self, cpu: Cpu, handler: int, error_words: tuple[int, ...]) -> int:
        """Save context, push [error words...][return ip][flags], vector."""
        flags, return_ip, cycles = self._save_context(cpu)
        frame = (*reversed(error_words), return_ip, flags)
        sp = cpu.sp - layout.WORD * len(frame)
        layout.write_words(cpu.bus, sp, frame)
        cpu.sp = sp
        cpu.flags.ie = False
        cpu.ip = handler
        cpu.curr_ip = handler
        self.stats.engine_cycles += cycles
        self.stats.last_entry_cycles = cycles
        return cycles

    def _handler_for_irq(self, interrupt: Interrupt) -> int:
        if interrupt.handler is not None:
            return interrupt.handler
        if interrupt.line not in self.irq_vectors:
            raise MachineError(
                f"no handler installed for IRQ line {interrupt.line}"
            )
        return self.irq_vectors[interrupt.line]

    def _handler_for_exception(self, vector: int) -> int:
        if vector not in self.exception_vectors:
            raise MachineError(f"no handler installed for exception {vector}")
        return self.exception_vectors[vector]

    def deliver_interrupt(self, cpu: Cpu, interrupt: Interrupt) -> int:
        self.stats.interrupts += 1
        return self._enter(cpu, self._handler_for_irq(interrupt), ())

    def deliver_fault(self, cpu: Cpu, fault: MemoryProtectionFault) -> int:
        self.stats.faults += 1
        # The faulting instruction was invalidated; the frame reports
        # the violating IP and requested access (Sec. 3.2.2).
        return self._enter(
            cpu,
            self._handler_for_exception(VEC_FAULT),
            (fault.address, ERR_MPU_FAULT),
        )

    def deliver_invalid(self, cpu: Cpu, bad: InvalidInstruction) -> int:
        self.stats.faults += 1
        return self._enter(
            cpu,
            self._handler_for_exception(VEC_INVALID),
            (bad.ip or 0, ERR_INVALID_INSTRUCTION),
        )

    def deliver_software(self, cpu: Cpu, number: int) -> int:
        self.stats.software += 1
        return self._enter(
            cpu, self._handler_for_exception(VEC_SOFTWARE), (number,)
        )

    def iret(self, cpu: Cpu) -> int:
        """Return from exception: pop return IP, then flags."""
        return_ip, flags = layout.read_words(cpu.bus, cpu.sp, 2)
        cpu.sp = cpu.sp + 2 * layout.WORD
        cpu.ip = return_ip
        cpu.flags = CpuFlags.from_word(flags)
        return IRET_CYCLES


class SecureExceptionEngine(RegularExceptionEngine):
    """The TrustLite secure exception engine (Fig. 4, Sec. 3.4)."""

    def __init__(self, table: TrustletTable) -> None:
        super().__init__()
        self.table = table

    def _save_context(self, cpu: Cpu) -> tuple[int, int, int]:
        # One table read serves both lookups: the interrupted row and,
        # for a trustlet, the OS row whose stack takes over.
        rows = self.table.rows()
        row = row_covering(rows, cpu.curr_ip)
        if row is None or row.is_os:
            # Not a trustlet: the regular save plus the detection cost.
            flags, return_ip, cycles = super()._save_context(cpu)
            return flags, return_ip, cycles + SECURE_DETECT_CYCLES
        self.stats.trustlet_interruptions += 1
        # Step 1 (Fig. 4): the complete CPU state goes onto the
        # *trustlet's* stack, in the order its continue() prologue pops.
        sp = cpu.sp - layout.WORD * layout.RESUME_FRAME_WORDS
        layout.write_words(
            cpu.bus, sp,
            layout.resume_frame(cpu.regs, cpu.flags.to_word(), cpu.ip),
        )
        # Step 2: saved SP into the Trustlet Table, registers cleared.
        self.table.write_saved_sp(row.index, sp)
        cpu.clear_gprs()
        # Step 3: the OS stack, with the return IP sanitized to the
        # trustlet's entry vector.
        os_row = os_row_of(rows)
        if os_row is None:
            raise MachineError(
                "secure exception engine: trustlet table has no OS row"
            )
        cpu.sp = os_row.saved_sp
        return (
            CpuFlags(ie=True).to_word(), row.entry,
            REGULAR_ENTRY_CYCLES + SECURE_DETECT_CYCLES
            + SECURE_SAVE_CYCLES + SECURE_CLEAR_CYCLES,
        )
