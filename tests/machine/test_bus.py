"""Unit tests for the bus, address decoding and memory devices."""

import pytest

from repro.asm import assemble
from repro.core.platform import TrustLitePlatform
from repro.errors import AlignmentError, BusError
from repro.machine.bus import Bus
from repro.machine.device import Device
from repro.machine.devices.timer import CTRL, CTRL_ENABLE, PERIOD
from repro.machine.memories import Dram, Prom, Ram
from repro.machine.soc import SRAM_BASE, TIMER_BASE, SoC
from repro.sw.images import build_attestation_image


@pytest.fixture
def bus():
    made = Bus()
    made.attach(0x0000, Prom("prom", 0x1000))
    made.attach(0x2000, Ram("ram", 0x1000))
    return made


class TestMapping:
    def test_overlap_rejected(self, bus):
        with pytest.raises(BusError):
            bus.attach(0x2800, Ram("other", 0x1000))

    def test_adjacent_windows_allowed(self, bus):
        bus.attach(0x1000, Ram("gap", 0x1000))  # fills the hole exactly

    def test_exceeding_address_space_rejected(self):
        bus = Bus()
        with pytest.raises(BusError):
            bus.attach(0xFFFF_F000, Ram("big", 0x2000))

    def test_find_and_device_named(self, bus):
        assert bus.find(0x2000).device.name == "ram"
        assert bus.device_named("prom").name == "prom"
        assert bus.base_of("ram") == 0x2000

    def test_unknown_device_name(self, bus):
        with pytest.raises(BusError):
            bus.device_named("ghost")
        with pytest.raises(BusError):
            bus.base_of("ghost")


class TestAccess:
    def test_word_read_write(self, bus):
        bus.write_word(0x2000, 0xDEADBEEF)
        assert bus.read_word(0x2000) == 0xDEADBEEF

    def test_byte_read_write_little_endian(self, bus):
        bus.write_word(0x2000, 0x04030201)
        assert bus.read(0x2000, 1) == 0x01
        assert bus.read(0x2003, 1) == 0x04

    def test_unaligned_word_access_rejected(self, bus):
        with pytest.raises(AlignmentError):
            bus.read(0x2002, 4)
        with pytest.raises(AlignmentError):
            bus.write(0x2001, 0, 4)

    def test_unmapped_address(self, bus):
        with pytest.raises(BusError) as excinfo:
            bus.read_word(0x9000)
        assert excinfo.value.address == 0x9000

    def test_access_crossing_device_end(self, bus):
        bus2 = Bus()
        bus2.attach(0x0, Ram("tiny", 6))
        with pytest.raises(BusError):
            bus2.read(0x4, 4)

    def test_bulk_helpers(self, bus):
        bus.write_bytes(0x2100, b"hello")
        assert bus.read_bytes(0x2100, 5) == b"hello"


class TestRoutingMemo:
    """An access right after a hit on the same window faults, and
    counts, exactly as the first access to that window would."""

    @pytest.fixture
    def odd(self, bus):
        # Ends at 0x4006: an aligned word at 0x4004 crosses the end.
        bus.attach(0x4000, Ram("tiny", 6))
        return bus

    def test_unaligned_word_after_a_hit(self, bus):
        bus.read(0x2000, 4)
        before = bus.routing_stats
        with pytest.raises(AlignmentError) as excinfo:
            bus.read(0x2002, 4)
        assert excinfo.value.address == 0x2002
        with pytest.raises(AlignmentError):
            bus.write(0x2001, 7, 4)
        assert bus.routing_stats == before
        assert bus.read(0x2000, 4) == 0

    def test_crossing_the_end_after_a_hit(self, odd):
        seen = []
        odd.add_write_listener(lambda address, n: seen.append((address, n)))
        odd.write(0x4000, 0x04030201, 4)
        before = odd.routing_stats
        with pytest.raises(BusError) as excinfo:
            odd.read(0x4004, 4)
        assert excinfo.value.address == 0x4004
        with pytest.raises(BusError):
            odd.write(0x4004, 0xFFFF_FFFF, 4)
        # Both found the window through the memo, then failed.
        assert odd.routing_stats == {
            "memo_hits": before["memo_hits"] + 2,
            "memo_misses": before["memo_misses"],
        }
        assert seen == [(0x4000, 4)]
        assert odd.device_named("tiny").dump() == b"\x01\x02\x03\x04\x00\x00"
        assert odd.read(0x4005, 1) == 0

    def test_next_window_after_a_hit(self, bus):
        bus.attach(0x3000, Ram("high", 0x1000))
        bus.write(0x2FFC, 0x11, 4)
        before = bus.routing_stats
        bus.write(0x3000, 0x22, 4)
        assert bus.read(0x2FFC, 4) == 0x11
        assert bus.read(0x3000, 4) == 0x22
        assert bus.routing_stats == {
            "memo_hits": before["memo_hits"],
            "memo_misses": before["memo_misses"] + 3,
        }


class _Clock(Device):
    """A timed device: counts elapsed cycles, reports a fixed horizon."""

    def __init__(self, horizon: int) -> None:
        super().__init__("clock", 4)
        self.horizon = horizon
        self.elapsed = 0

    def read(self, offset: int, size: int) -> int:
        return self.elapsed & 0xFFFF_FFFF

    def write(self, offset: int, size: int, value: int) -> None:
        pass

    def tick(self, cycles: int) -> None:
        self.elapsed += cycles

    def next_event_in(self):
        return self.horizon


class TestDeviceTime:
    def test_device_attached_later_is_ticked_and_bounds_the_horizon(
        self, bus
    ):
        assert bus.next_event_in() is None
        bus.tick(10)
        clock = _Clock(horizon=37)
        bus.attach(0x8000, clock)
        assert bus.next_event_in() == 37
        bus.tick(5)
        assert clock.elapsed == 5

    def test_soc_runs_a_device_attached_after_construction(self):
        soc = SoC()
        clock = _Clock(horizon=3)
        soc.bus.attach(0x5000_0000, clock)
        soc.bus.write(TIMER_BASE + PERIOD, 1000)
        soc.bus.write(TIMER_BASE + CTRL, CTRL_ENABLE)
        # The timer's count is further away than the clock's horizon.
        assert soc.bus.next_event_in() == 3
        program = assemble("spin:\n    nop\n    jmp spin\n", base=SRAM_BASE)
        soc.bus.write_bytes(SRAM_BASE, program.data)
        soc.cpu.ip = SRAM_BASE
        used = soc.run(max_cycles=500)
        assert clock.elapsed == used == soc.cpu.cycles
        # A horizon of 3 is shorter than one spin iteration (4 cycles,
        # 6 with the branch slack), so nothing ran as a batch.
        assert soc.cpu.fastpath.traces.stats["runs"] == 0
        clock.horizon = None
        soc.run(max_cycles=500)
        assert soc.cpu.fastpath.traces.stats["runs"] > 0
        assert clock.elapsed == soc.cpu.cycles


    def test_timeless_devices_are_never_walked(self, monkeypatch):
        """Only devices whose class overrides ``tick`` or
        ``next_event_in`` are called; the defaults never run."""
        calls = []
        monkeypatch.setattr(
            Device, "tick", lambda self, cycles: calls.append(self.name)
        )
        monkeypatch.setattr(
            Device, "next_event_in", lambda self: calls.append(self.name)
        )
        soc = SoC()
        clock = _Clock(horizon=None)
        soc.bus.attach(0x5000_0000, clock)
        program = assemble("spin:\n    nop\n    jmp spin\n", base=SRAM_BASE)
        soc.bus.write_bytes(SRAM_BASE, program.data)
        soc.cpu.ip = SRAM_BASE
        soc.bus.write(TIMER_BASE + PERIOD, 100)
        soc.bus.write(TIMER_BASE + CTRL, CTRL_ENABLE)
        soc.run(max_cycles=2_000)
        assert calls == []
        assert clock.elapsed == soc.cpu.cycles == 2_000
        assert soc.timer.fired == 20


class TestWriteListeners:
    def test_trace_engine_writes_in_reference_order(self):
        """Every memory write the attestation image's timer ISR and
        scheduler make reaches a listener as the same ``(address,
        size)`` sequence on both engines."""

        def run(**engine):
            platform = TrustLitePlatform(**engine)
            platform.boot(build_attestation_image(timer_period=2000))
            writes: list[tuple[int, int]] = []
            platform.bus.add_write_listener(
                lambda address, size: writes.append((address, size))
            )
            platform.run(max_cycles=30_000)
            return platform, writes

        traced, traced_writes = run()
        slow, slow_writes = run(fastpath=False)
        assert traced.cpu.cycles == slow.cpu.cycles
        assert traced.engine.stats.interrupts >= 10
        assert traced.cpu.fastpath.traces.stats["runs"] > 0
        assert len(slow_writes) > 100
        assert traced_writes == slow_writes


class TestBlockPaths:
    """The bulk helpers route block-wise through ``Device.read_block`` /
    ``write_block`` — semantics must match the old byte-at-a-time loop."""

    def test_read_bytes_spans_adjacent_devices(self, bus):
        bus.attach(0x1000, Ram("gap", 0x1000))
        bus.device_named("prom").load(0xFFC, b"ABCD")
        bus.write_bytes(0x1000, b"EFGH")
        assert bus.read_bytes(0xFFC, 8) == b"ABCDEFGH"

    def test_write_bytes_spans_adjacent_ram_windows(self, bus):
        bus.attach(0x3000, Ram("high", 0x1000))
        bus.write_bytes(0x2FFC, b"wxyz5678")
        assert bus.device_named("ram").dump(0xFFC, 4) == b"wxyz"
        assert bus.device_named("high").dump(0, 4) == b"5678"

    def test_write_bytes_into_prom_rejected(self, bus):
        with pytest.raises(BusError):
            bus.write_bytes(0x0010, b"\x00" * 8)

    def test_prom_write_block_rejected_directly(self):
        with pytest.raises(BusError):
            Prom("p", 16).write_block(0, b"\x01\x02")

    def test_read_bytes_unmapped_gap_rejected(self, bus):
        with pytest.raises(BusError):
            bus.read_bytes(0xFFC, 8)  # hole at 0x1000

    def test_block_default_implementation_matches_ports(self):
        # The Device-level default (byte-port loop) and Ram's slice
        # override must agree byte for byte.
        ram = Ram("r", 16)
        ram.load(0, bytes(range(16)))
        assert Device.read_block(ram, 4, 8) == ram.read_block(4, 8)
        Device.write_block(ram, 0, b"\xaa\xbb")
        assert ram.dump(0, 2) == b"\xaa\xbb"


class TestMemories:
    def test_prom_rejects_bus_writes(self, bus):
        with pytest.raises(BusError):
            bus.write_word(0x0000, 1)

    def test_prom_host_load_visible_on_bus(self, bus):
        bus.device_named("prom").load(0x10, b"\x44\x33\x22\x11")
        assert bus.read_word(0x10) == 0x11223344

    def test_ram_dump_round_trips(self):
        ram = Ram("r", 64)
        ram.load(0, bytes(range(32)))
        assert ram.dump(0, 32) == bytes(range(32))

    def test_ram_wipe(self):
        ram = Ram("r", 16, fill=0xAA)
        assert ram.dump() == b"\xaa" * 16
        ram.wipe()
        assert ram.dump() == bytes(16)

    def test_dram_is_distinct_type(self):
        assert issubclass(Dram, Ram)
        assert Dram("d", 8).name == "d"

    def test_device_offset_bounds(self):
        ram = Ram("r", 8)
        with pytest.raises(BusError):
            ram.read(8, 1)
        with pytest.raises(BusError):
            ram.write(7, 4, 0)
