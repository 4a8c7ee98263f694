"""``Bus.attach_all``: one routing rebuild for a batch of windows.

A bus built in one batch must route exactly like one built window by
window: the same sorted arrays, the same Ram hooks (one per memory,
bound to its final window index), the same timed-device list.  The
overlap and range checks raise the same errors, a faulting batch maps
nothing, and topology listeners fire once per batch.
"""

import itertools

import pytest

from repro.core.platform import TrustLitePlatform
from repro.errors import BusError
from repro.machine.bus import Bus
from repro.machine.memories import Ram
from repro.machine.soc import SRAM_BASE


def _routing(bus: Bus) -> dict:
    hooks = {}
    for device in bus._devices:
        if isinstance(device, Ram):
            hook = device._hooks[bus]
            assert hook.func.__self__ is bus
            hooks[device.name] = hook.args
    return {
        "mappings": [(m.base, m.device) for m in bus.mappings],
        "bases": list(bus._bases),
        "ends": list(bus._ends),
        "devices": list(bus._devices),
        "ram_data": [id(view) for view in bus._ram_data],
        "ram_store": [id(store) for store in bus._ram_store],
        "timed": list(bus._timed),
        "hooks": hooks,
    }


def _sequential(windows) -> Bus:
    bus = Bus()
    for base, device in windows:
        bus.attach(base, device)
    return bus


def _batched(windows) -> Bus:
    bus = Bus()
    bus.attach_all(windows)
    return bus


def _platform_windows(**config):
    """A platform's windows in its bus's order, and the batch-built bus."""
    platform = TrustLitePlatform(**config)
    bus = platform.soc.bus
    return [(m.base, m.device) for m in bus.mappings], bus


@pytest.mark.parametrize(
    "config", [{}, {"flash_prom": True}, {"with_dma": True}],
    ids=["mask-prom", "flash", "dma"],
)
def test_platform_bus_equals_a_sequential_build(config):
    windows, batched = _platform_windows(**config)
    assert len(windows) >= 8
    # Attaching the same devices to a second bus adds that bus's own
    # hooks; the first bus's hooks stay keyed by it.
    for order in (windows, windows[::-1], windows[3:] + windows[:3]):
        assert _routing(batched) == _routing(_sequential(order))


def test_batch_and_sequential_agree_in_every_order():
    def fresh():
        return [
            (0x0000, Ram("a", 0x1000)),
            (0x4000, Ram("b", 0x800)),
            (0x2000, Ram("c", 0x1000)),
        ]

    for perm in itertools.permutations(range(3)):
        seq_windows = [fresh()[i] for i in perm]
        batch_windows = [fresh()[i] for i in perm]
        seq = _routing(_sequential(seq_windows))
        batch = _routing(_batched(batch_windows))
        for routing in (seq, batch):
            routing["mappings"] = [
                (base, device.name) for base, device in routing["mappings"]
            ]
            routing["devices"] = [device.name for device in routing["devices"]]
            routing.pop("ram_data")
            routing.pop("ram_store")
        assert batch == seq


def test_batched_bus_routes_memory_and_host_ports():
    windows, bus = _platform_windows()
    sram = bus.device_named("sram")
    bus.write(SRAM_BASE + 0x40, 0xDEADBEEF)
    assert bus.read(SRAM_BASE + 0x40) == 0xDEADBEEF
    heard = []
    bus.add_write_listener(lambda address, length: heard.append(
        (address, length)))
    sram.load(0x80, b"\x11\x22\x33\x44")
    assert heard == [(SRAM_BASE + 0x80, 4)]
    assert bus.read(SRAM_BASE + 0x80) == 0x44332211


def _overlapping():
    return [
        (0x0000, Ram("low", 0x1000)),
        (0x3000, Ram("high", 0x1000)),
        (0x0800, Ram("clash", 0x1000)),
    ]


@pytest.mark.parametrize("windows", [
    _overlapping,
    lambda: [(0x0000, Ram("dup", 0x100)), (0x0000, Ram("dup2", 0x100))],
    lambda: [(0x1000, Ram("ok", 0x100)),
             (0xFFFF_F000, Ram("big", 0x2000))],
    lambda: [(-4, Ram("neg", 0x100))],
], ids=["overlap", "same-base", "past-32-bit", "negative"])
def test_faulting_batch_raises_the_sequential_error_and_maps_nothing(windows):
    with pytest.raises(BusError) as sequential:
        _sequential(windows())
    bus = Bus()
    bus.attach(0x8000, Ram("kept", 0x100))
    before = _routing(bus)
    with pytest.raises(BusError) as batched:
        bus.attach_all(windows())
    assert str(batched.value) == str(sequential.value)
    assert _routing(bus) == before


def test_overlap_with_an_already_mapped_window():
    bus = Bus()
    bus.attach(0x0000, Ram("first", 0x1000))
    with pytest.raises(BusError) as single:
        Bus().attach_all([(0x0000, Ram("first", 0x1000)),
                          (0x0400, Ram("second", 0x100))])
    with pytest.raises(BusError) as batched:
        bus.attach_all([(0x0400, Ram("second", 0x100))])
    assert str(batched.value) == str(single.value)


def test_topology_listeners_fire_once_per_batch():
    bus = Bus()
    fired = []
    bus.add_topology_listener(lambda: fired.append(len(bus.mappings)))
    bus.attach_all([(0x0000, Ram("a", 0x100)), (0x1000, Ram("b", 0x100)),
                    (0x2000, Ram("c", 0x100))])
    assert fired == [3]
    bus.attach(0x3000, Ram("d", 0x100))
    assert fired == [3, 4]


def test_attach_all_returns_the_new_mappings_in_batch_order():
    bus = Bus()
    high, low = Ram("high", 0x100), Ram("low", 0x100)
    added = bus.attach_all([(0x1000, high), (0x0000, low)])
    assert [(m.base, m.device) for m in added] == [(0x1000, high),
                                                    (0x0000, low)]
    assert [m.base for m in bus.mappings] == [0x0000, 0x1000]
