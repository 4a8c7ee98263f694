"""Sancus memory access control running on the simulated SP32 machine.

Complements the behavioural :mod:`repro.baselines.sancus` model with
the actual enforcement matrix of the Sancus paper, installed as the
CPU's bus access-control rule so guest code experiences it:

* a protected module is one contiguous **text section** and one
  contiguous **data section**;
* the data section is accessible (r/w) *only* while the program
  counter is inside the module's own text section;
* text sections are world-readable (Sancus assumes public code for
  attestation) but never writable;
* execution may enter a text section only at its **single entry
  point** (the section base); once inside, execution proceeds freely;
* everything else (unprotected memory) is unrestricted.

Where TrustLite routes violations to a software fault handler, Sancus
resets the platform and wipes memory: :class:`SancusMachine` implements
exactly that, counting the wipe work so benchmarks can compare the
fault-tolerance cost (paper Sec. 6 "Fault Tolerance").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm import assemble
from repro.errors import MemoryProtectionFault, PlatformError
from repro.machine.access import AccessType
from repro.machine.soc import SRAM_BASE, SoC


@dataclass(frozen=True)
class ProtectedSection:
    """One Sancus protected module's layout."""

    name: str
    text_base: int
    text_end: int
    data_base: int
    data_end: int

    @property
    def entry(self) -> int:
        return self.text_base

    def in_text(self, address: int) -> bool:
        return self.text_base <= address < self.text_end


class SancusAccessControl:
    """The Sancus enforcement matrix (CPU ``mpu`` hook compatible)."""

    def __init__(self, modules: list[ProtectedSection]) -> None:
        for module in modules:
            if module.text_end <= module.text_base or \
                    module.data_end <= module.data_base:
                raise PlatformError(
                    f"module {module.name!r} has empty sections"
                )
        self.modules = list(modules)
        self.violations = 0

    def _owner_of_data(self, address: int, size: int):
        for module in self.modules:
            if module.data_base < address + size and \
                    address < module.data_end:
                return module
        return None

    def _owner_of_text(self, address: int):
        for module in self.modules:
            if module.in_text(address):
                return module
        return None

    def check(
        self, subject_ip: int, address: int, size: int, access: AccessType
    ) -> None:
        problem = None
        data_owner = self._owner_of_data(address, size)
        text_owner = self._owner_of_text(address)
        if access is AccessType.FETCH:
            if text_owner is not None and not text_owner.in_text(subject_ip) \
                    and address != text_owner.entry:
                problem = (
                    f"entry into {text_owner.name!r} text at "
                    f"{address:#x} (only the entry point is callable)"
                )
            elif data_owner is not None:
                problem = f"execute from {data_owner.name!r} data section"
        elif access is AccessType.WRITE:
            if text_owner is not None:
                problem = f"write to {text_owner.name!r} text section"
            elif data_owner is not None and \
                    not data_owner.in_text(subject_ip):
                problem = f"foreign write to {data_owner.name!r} data"
        else:  # READ
            if data_owner is not None and \
                    not data_owner.in_text(subject_ip):
                problem = f"foreign read of {data_owner.name!r} data"
        if problem is None:
            return
        self.violations += 1
        raise MemoryProtectionFault(
            f"Sancus denied: {problem}",
            subject_ip=subject_ip,
            address=address,
            access=access.permission_letter,
        )


class SancusMachine:
    """A SoC under Sancus rules; violations reset and wipe the platform."""

    def __init__(self, modules: list[ProtectedSection]) -> None:
        self.soc = SoC()
        self.gate = SancusAccessControl(modules)
        self.soc.cpu.mpu = self.gate
        self.resets = 0
        self.wiped_words = 0

    @property
    def cpu(self):
        return self.soc.cpu

    def load(self, address: int, source: str) -> int:
        """Assemble ``source`` at ``address`` into the backing memory."""
        program = assemble(source, base=address)
        if address < SRAM_BASE:
            self.soc.prom.load(address, program.data)
        else:
            self.soc.sram.load(address - SRAM_BASE, program.data)
        return address

    def run(self, entry: int, max_cycles: int = 100_000) -> bool:
        """Run from ``entry``; returns False if a violation reset us.

        Sancus has no recoverable faults: the paper's hardware resets
        the CPU and wipes all volatile memory on any violation or
        interrupt during protected execution.
        """
        cpu = self.cpu
        cpu.halted = False
        cpu.ip = entry
        cpu.curr_ip = entry
        cpu.sp = SRAM_BASE + 0xF000
        try:
            self.soc.run(max_cycles=max_cycles)
        except MemoryProtectionFault:
            self._reset_and_wipe()
            return False
        return True

    def _reset_and_wipe(self) -> None:
        self.resets += 1
        self.soc.sram.wipe()
        self.wiped_words += self.soc.sram.size // 4
        self.cpu.reset()
