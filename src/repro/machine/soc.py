"""SoC container: CPU + bus + standard memory map + run loop.

Reproduces the platform of paper Fig. 1: PROM, on-chip SRAM, external
DRAM, timer, UART and crypto engine behind one physical address space.
The memory map is fixed so that software images, MPU policies and tests
agree on addresses without passing constants everywhere:

====================  ==========  ========
window                base        size
====================  ==========  ========
PROM (boot at 0x0)    0x00000000  128 KiB
MMIO: MPU register    0x10000000  (attached by the TrustLite platform)
MMIO: timer           0x10010000  16 B
MMIO: UART            0x10020000  8 B
MMIO: crypto engine   0x10030000  48 B
on-chip SRAM          0x20000000  256 KiB
external DRAM         0x40000000  1 MiB
====================  ==========  ========
"""

from __future__ import annotations

from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.devices.crypto_engine import CryptoEngine
from repro.machine.devices.timer import Timer
from repro.machine.devices.uart import Uart
from repro.machine.irq import InterruptController
from repro.machine.memories import Dram, Flash, Prom, Ram

PROM_BASE = 0x0000_0000
PROM_SIZE = 128 * 1024
MPU_MMIO_BASE = 0x1000_0000
TIMER_BASE = 0x1001_0000
UART_BASE = 0x1002_0000
CRYPTO_BASE = 0x1003_0000
DMA_BASE = 0x1004_0000
WATCHDOG_BASE = 0x1005_0000
SRAM_BASE = 0x2000_0000
SRAM_SIZE = 256 * 1024
DRAM_BASE = 0x4000_0000
DRAM_SIZE = 1024 * 1024

TIMER_IRQ_LINE = 0
WATCHDOG_IRQ_LINE = 1


class SoC:
    """A fully assembled simulated platform (no protection installed)."""

    def __init__(
        self,
        *,
        prom_size: int = PROM_SIZE,
        sram_size: int = SRAM_SIZE,
        dram_size: int = DRAM_SIZE,
        reset_vector: int = PROM_BASE,
        flash_prom: bool = False,
        with_dma: bool = False,
        fastpath: bool = True,
    ) -> None:
        self.bus = Bus()
        self.irq = InterruptController()
        # ``flash_prom`` swaps the mask PROM for in-system-programmable
        # flash, enabling the field-update instantiation (Sec. 3.6);
        # write *authorization* still comes from EA-MPU rules.
        prom_cls = Flash if flash_prom else Prom
        self.prom = prom_cls("prom", prom_size)
        self.sram = Ram("sram", sram_size)
        self.dram = Dram("dram", dram_size)
        from repro.machine.devices.watchdog import Watchdog

        self.timer = Timer(self.irq, line=TIMER_IRQ_LINE)
        self.watchdog = Watchdog(self.irq, line=WATCHDOG_IRQ_LINE)
        self.uart = Uart()
        self.crypto = CryptoEngine()
        self.bus.attach(PROM_BASE, self.prom)
        self.bus.attach(WATCHDOG_BASE, self.watchdog)
        self.bus.attach(TIMER_BASE, self.timer)
        self.bus.attach(UART_BASE, self.uart)
        self.bus.attach(CRYPTO_BASE, self.crypto)
        self.bus.attach(SRAM_BASE, self.sram)
        self.bus.attach(DRAM_BASE, self.dram)
        self.dma = None
        if with_dma:
            from repro.machine.devices.dma import DmaController

            self.dma = DmaController(self.bus)
            self.bus.attach(DMA_BASE, self.dma)
        self.cpu = Cpu(
            self.bus,
            self.irq,
            reset_vector=reset_vector,
            fastpath=fastpath,
        )
        # Bound trace batches: a batched run never crosses the next
        # device event, so ``bus.tick(batch)`` fires IRQs at exactly
        # the cycle counts the single-step loop would.
        self.cpu.event_horizon = self.bus.next_event_in

    def step(self, budget: int | None = None) -> int:
        """One CPU step plus device time; returns cycles elapsed.

        With a ``budget`` (as :meth:`run` supplies), a step on a
        cached core may batch-execute a recorded trace — many
        instructions, one device tick, identical event timing.
        """
        cycles = self.cpu.step(budget)
        if cycles:
            self.bus.tick(cycles)
        return cycles

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run until HALT or the budget is exhausted; returns cycles used."""
        used = 0
        while not self.cpu.halted and used < max_cycles:
            cycles = self.step(max_cycles - used)
            if cycles == 0:
                break
            used += cycles
        return used

    def run_until(self, predicate, max_cycles: int = 1_000_000) -> int:
        """Run until ``predicate(soc)`` is true, HALT, or budget exhausted."""
        used = 0
        while (
            not self.cpu.halted
            and used < max_cycles
            and not predicate(self)
        ):
            cycles = self.step()
            if cycles == 0:
                break
            used += cycles
        return used
