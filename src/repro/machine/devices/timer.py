"""Programmable alarm timer.

Register map (paper Fig. 3 shows exactly the ``period`` and ``handler``
rows as MPU-controllable objects)::

    0x00  PERIOD   r/w  ticks between interrupts (0 disables)
    0x04  HANDLER  r/w  ISR address delivered with the interrupt
    0x08  CTRL     r/w  bit0 = enable
    0x0C  COUNT    r    current down-counter value

Whoever has write access to this MMIO window — the OS, or a trustlet
given exclusive access by the Secure Loader — controls preemption on
the platform (Sec. 3.3: the device "can be setup to leverage or disable
such an OS scheduler").
"""

from __future__ import annotations

from repro.errors import BusError
from repro.machine.device import Device
from repro.machine.irq import Interrupt, InterruptController

PERIOD = 0x00
HANDLER = 0x04
CTRL = 0x08
COUNT = 0x0C

SIZE = 0x10

CTRL_ENABLE = 0x1


class Timer(Device):
    """Down-counting alarm timer raising a fixed IRQ line.

    ``REGISTERS`` maps each word offset to the attribute behind it;
    those attributes in offset order, then ``fired``, are the snapshot
    state.  A subclass with another map and another :meth:`_interrupt`
    is another down-counter (the watchdog).
    """

    REGISTERS = {
        PERIOD: "period", HANDLER: "handler", CTRL: "enabled",
        COUNT: "_count",
    }

    def __init__(
        self,
        irq_controller: InterruptController,
        line: int = 0,
        name: str | None = None,
    ) -> None:
        super().__init__(
            name or type(self).__name__.lower(), 4 * len(self.REGISTERS)
        )
        self._irq = irq_controller
        self.line = line
        self.period = 0
        self.handler = 0
        self.enabled = False
        self._count = 0
        self.fired = 0

    def _register(self, offset: int, size: int) -> str:
        self._check_offset(offset, size)
        if size != 4:
            raise BusError(f"{self.name} registers require word access")
        try:
            return self.REGISTERS[offset]
        except KeyError:
            raise BusError(
                f"unknown {self.name} register offset {offset:#x}"
            ) from None

    def read(self, offset: int, size: int) -> int:
        attr = self._register(offset, size)
        if attr == "enabled":
            return CTRL_ENABLE if self.enabled else 0
        return getattr(self, attr)

    def write(self, offset: int, size: int, value: int) -> None:
        attr = self._register(offset, size)
        if attr == "period":
            self.period = value
            self._count = value
        elif attr == "enabled":
            self.enabled = bool(value & CTRL_ENABLE)
            if self.enabled and self._count == 0:
                self._count = self.period
        elif attr == "_count":
            raise BusError(f"{self.name} COUNT register is read-only")
        else:
            setattr(self, attr, value)

    def snapshot_state(self) -> tuple:
        return tuple(
            getattr(self, attr) for attr in self.REGISTERS.values()
        ) + (self.fired,)

    def restore_state(self, state) -> None:
        attrs = (*self.REGISTERS.values(), "fired")
        if len(state) != len(attrs):
            raise ValueError(
                f"{self.name} state has {len(state)} fields, "
                f"expected {len(attrs)}"
            )
        for attr, value in zip(attrs, state):
            setattr(self, attr, value)

    def next_event_in(self):
        if not self.enabled or self.period == 0:
            return None
        return self._count

    def _interrupt(self) -> Interrupt:
        """What one firing raises: the line, carrying HANDLER."""
        return Interrupt(
            line=self.line, source=self.name, handler=self.handler or None
        )

    def tick(self, cycles: int) -> None:
        """Advance the down-counter; fires the IRQ when it reaches zero."""
        if not self.enabled or self.period == 0:
            return
        remaining = cycles
        while remaining > 0:
            if self._count > remaining:
                self._count -= remaining
                return
            remaining -= self._count
            self._count = self.period
            self.fired += 1
            self._irq.raise_line(self._interrupt())
