"""Interrupt lines and the interrupt controller.

Devices raise numbered IRQ lines on the controller.  The CPU polls the
controller between instructions (interrupts are recognized at retire
boundaries on a single-issue core) and hands the pending interrupt to
whichever exception engine is installed.

Paper tie-in: Fig. 3 shows the timer peripheral exposing a ``handler``
register — the device itself can carry the service-routine address, so
that a trustlet owning the timer MMIO region also controls where its
interrupt vectors to.  :class:`Interrupt` therefore carries an optional
``handler`` address that overrides the engine's vector table entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError


@dataclass(frozen=True)
class Interrupt:
    """A pending hardware interrupt.

    ``nmi`` marks a non-maskable interrupt: the CPU delivers it even
    while the IE flag is clear.  The watchdog uses this so that a task
    spinning with interrupts disabled cannot deny service to the rest
    of the platform (paper Sec. 6, Fault Tolerance).
    """

    line: int
    source: str
    handler: int | None = None
    nmi: bool = False


class InterruptController:
    """Collects raised lines; lowest line number wins (fixed priority)."""

    NUM_LINES = 16

    def __init__(self) -> None:
        self._pending: dict[int, Interrupt] = {}

    def raise_line(self, interrupt: Interrupt) -> None:
        """Latch ``interrupt``; re-raising an already-pending line is
        idempotent, except that an NMI replaces a maskable interrupt
        latched on its line.  A masked line must not shadow an NMI on
        its own line any more than on another one (see :meth:`pending`),
        and a later maskable raise never replaces a latched NMI."""
        if not 0 <= interrupt.line < self.NUM_LINES:
            raise MachineError(f"IRQ line {interrupt.line} out of range")
        latched = self._pending.setdefault(interrupt.line, interrupt)
        if interrupt.nmi and not latched.nmi:
            self._pending[interrupt.line] = interrupt

    def pending(self, *, ie: bool = True) -> Interrupt | None:
        """Highest-priority deliverable interrupt, or ``None``.

        With ``ie=False`` only non-maskable interrupts qualify — a
        masked line must not shadow a pending NMI on a lower priority.
        """
        candidates = [
            line for line, interrupt in self._pending.items()
            if ie or interrupt.nmi
        ]
        if not candidates:
            return None
        return self._pending[min(candidates)]

    def acknowledge(self, line: int) -> None:
        """Clear a latched line (done by the engine when it delivers)."""
        self._pending.pop(line, None)

    def clear_all(self) -> None:
        """Drop every pending line (platform reset)."""
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._pending)
