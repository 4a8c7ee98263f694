"""Watchdog timer with a non-maskable interrupt.

The paper's Fault Tolerance requirement (Sec. 6) includes "preventing
trivial denial-of-service attacks": a malicious or buggy task that
disables interrupts and spins would freeze a platform whose only
preemption source is the maskable alarm timer.  A watchdog whose
expiry is **non-maskable** closes that hole — the secure exception
engine still banks the offender's state and hands control to the OS
scheduler, which can keep every other trustlet running.

It is the alarm timer's down-counter without the HANDLER register::

    0x00  PERIOD  r/w  cycles between NMI firings (0 disables)
    0x04  CTRL    r/w  bit0 = enable
    0x08  COUNT   r    current down-counter
"""

from __future__ import annotations

from repro.machine.devices.timer import CTRL_ENABLE, Timer
from repro.machine.irq import Interrupt

__all__ = ["COUNT", "CTRL", "CTRL_ENABLE", "PERIOD", "SIZE", "Watchdog"]

PERIOD = 0x00
CTRL = 0x04
COUNT = 0x08

SIZE = 0x0C


class Watchdog(Timer):
    """Auto-reloading NMI source on a dedicated IRQ line."""

    REGISTERS = {PERIOD: "period", CTRL: "enabled", COUNT: "_count"}

    def _interrupt(self) -> Interrupt:
        return Interrupt(line=self.line, source=self.name, nmi=True)
