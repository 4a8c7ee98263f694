"""The alarm timer and the watchdog share one down-counter.

These pin what both devices must keep: their register maps, their
snapshot-state shapes (part of the TLSC bytes) and what a firing
raises.
"""

import pytest

from repro.errors import BusError
from repro.machine.devices import timer as tm
from repro.machine.devices import watchdog as wd
from repro.machine.devices.timer import Timer
from repro.machine.devices.watchdog import Watchdog
from repro.machine.irq import InterruptController


def _armed(device_type, module, period=10):
    irq = InterruptController()
    device = device_type(irq, line=1)
    device.write(module.PERIOD, 4, period)
    device.write(module.CTRL, 4, module.CTRL_ENABLE)
    return irq, device


class TestSnapshotState:
    def test_timer_state_is_period_handler_enabled_count_fired(self):
        _, timer = _armed(Timer, tm)
        timer.write(tm.HANDLER, 4, 0x1234)
        timer.tick(13)
        assert timer.snapshot_state() == (10, 0x1234, True, 7, 1)

    def test_watchdog_state_is_period_enabled_count_fired(self):
        _, dog = _armed(Watchdog, wd)
        dog.tick(13)
        assert dog.snapshot_state() == (10, True, 7, 1)

    @pytest.mark.parametrize(
        ("device_type", "module"), [(Timer, tm), (Watchdog, wd)]
    )
    def test_state_round_trips(self, device_type, module):
        _, device = _armed(device_type, module)
        device.tick(4)
        twin = device_type(InterruptController(), line=1)
        twin.restore_state(device.snapshot_state())
        assert twin.snapshot_state() == device.snapshot_state()
        assert twin.read(module.COUNT, 4) == 6


class TestRegisterMaps:
    def test_watchdog_ctrl_sits_at_0x04(self):
        dog = Watchdog(InterruptController(), line=1)
        dog.write(0x04, 4, 1)
        assert dog.enabled
        assert dog.read(0x04, 4) == 1

    def test_watchdog_window_ends_before_0x0c(self):
        dog = Watchdog(InterruptController(), line=1)
        assert dog.size == wd.SIZE == 0x0C
        with pytest.raises(BusError):
            dog.read(0x0C, 4)
        with pytest.raises(BusError):
            dog.write(0x0C, 4, 1)

    def test_timer_window_holds_four_registers(self):
        timer = Timer(InterruptController())
        assert timer.size == tm.SIZE == 0x10
        timer.write(tm.HANDLER, 4, 0xBEEF)
        assert timer.read(0x04, 4) == 0xBEEF

    @pytest.mark.parametrize(
        ("device_type", "module"), [(Timer, tm), (Watchdog, wd)]
    )
    def test_sub_word_access_rejected(self, device_type, module):
        device = device_type(InterruptController(), line=1)
        with pytest.raises(BusError):
            device.read(module.PERIOD, 1)
        with pytest.raises(BusError):
            device.write(module.PERIOD, 1, 5)

    @pytest.mark.parametrize(
        ("device_type", "module"), [(Timer, tm), (Watchdog, wd)]
    )
    def test_count_is_read_only(self, device_type, module):
        _, device = _armed(device_type, module)
        with pytest.raises(BusError):
            device.write(module.COUNT, 4, 3)
        assert device.read(module.COUNT, 4) == 10


class TestFirings:
    def test_watchdog_fires_nmi_without_handler(self):
        irq, dog = _armed(Watchdog, wd)
        dog.tick(10)
        fired = irq.pending(ie=False)
        assert fired.nmi is True
        assert fired.handler is None
        assert (fired.line, fired.source) == (1, "watchdog")

    def test_timer_fires_maskable_irq_carrying_handler(self):
        irq, timer = _armed(Timer, tm)
        timer.write(tm.HANDLER, 4, 0x4000)
        timer.tick(10)
        assert irq.pending(ie=False) is None
        fired = irq.pending(ie=True)
        assert fired.nmi is False
        assert fired.handler == 0x4000
        assert (fired.line, fired.source) == (1, "timer")
