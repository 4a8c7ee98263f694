"""Memory coherence across sibling clones, one test per mutation path.

Every clone of a golden :class:`Snapshot` must behave as if it owned a
private copy of every memory: a change made on one clone must never
reach the golden snapshot, a sibling clone, or a clone made later, and
the bus must see the change at once.  Each mutation path a memory has
is driven here on one of two sibling clones:

* guest-visible stores — bus ``write`` (byte and word),
  ``write_bytes`` (the block port behind ``Ram.write_block``) and DMA
  ``write_word`` transfers;
* host-side ports — ``Ram.load`` through the fleet's ``tamper_code``,
  the OTA campaign's ``_tamper_installed`` and the ``repro.faults``
  bit-flip injector, ``wipe``, and ``restore_state`` with real bytes
  and with a :class:`ZeroBytes` placeholder.

Every path must also reach the derived code caches on their one
channel: a bus write listener must hear a range covering each changed
byte.  Code patched over a recorded trace must kill the trace and drop
the decoded instructions on the patched pages, and the clone must then
stay in lockstep with the reference engine.
"""

import random
from dataclasses import replace

import pytest

from repro.core.image import ImageBuilder, SoftwareModule
from repro.core.platform import TrustLitePlatform
from repro.faults.injectors import flip_memory_bits
from repro.fleet.device import FleetDevice
from repro.machine.devices.dma import CTRL, CTRL_START, DST, LEN, SRC
from repro.machine.fastpath import PAGE_SHIFT
from repro.machine.memories import Ram, zero_bytes
from repro.machine.snapcodec import encode_snapshot
from repro.machine.snapshot import Snapshot, ZeroBytes
from repro.machine.soc import DMA_BASE, DRAM_BASE, PROM_BASE, SRAM_BASE
from repro.ota.campaign import _tamper_installed
from repro.ota.container import build_container, demo_trust_root
from repro.sw import trustlets
from repro.sw.images import os_module

KEY = bytes(range(16))
SRAM_PROBE = SRAM_BASE + 0x3001
DRAM_PROBE = DRAM_BASE + 0x8000


def _counter_image(stride: int):
    builder = ImageBuilder()
    builder.add_module(os_module(timer_period=400))
    for name in ("TL-A", "TL-B"):
        builder.add_module(
            SoftwareModule(name=name, source=trustlets.counter_source(stride))
        )
    return builder.build()


def _golden(**config) -> Snapshot:
    platform = TrustLitePlatform(with_dma=True, **config)
    platform.boot(_counter_image(1))
    platform.run(max_cycles=2_000)
    return Snapshot.save(platform)


@pytest.fixture(scope="module")
def golden():
    snapshot = _golden()
    return snapshot, encode_snapshot(snapshot)


def _memories(platform):
    """``(base, device)`` of every byte-array memory on the bus."""
    return [
        (mapping.base, mapping.device)
        for mapping in platform.bus.mappings
        if isinstance(mapping.device, Ram)
    ]


def _changed(snapshot: Snapshot, platform) -> dict:
    """Per memory name, the ``[lo, hi)`` span that differs from golden."""
    states = dict(snapshot.devices)
    spans = {}
    for _base, device in _memories(platform):
        now = device.dump()
        then = bytes(states[device.name])
        if now != then:
            diff = [i for i, (a, b) in enumerate(zip(now, then)) if a != b]
            spans[device.name] = (diff[0], diff[-1] + 1)
    return spans


# --------------------------------------------------------------------------
# Mutation paths.  Each returns the bytes it expects at an address, or
# None when the change is checked generically.


def _bus_byte(platform):
    value = platform.bus.read(SRAM_PROBE, 1) ^ 0x5A
    platform.bus.write(SRAM_PROBE, value, 1)
    return SRAM_PROBE, bytes((value,))


def _bus_word(platform):
    address = SRAM_PROBE & ~3
    value = platform.bus.read(address, 4) ^ 0xA5A5_5A5A
    platform.bus.write(address, value, 4)
    return address, value.to_bytes(4, "little")


def _write_bytes(platform):
    blob = bytes(range(1, 40))
    platform.bus.write_bytes(DRAM_PROBE, blob)
    return DRAM_PROBE, blob


def _dma(platform):
    source = platform.bus.read_bytes(PROM_BASE + 0x100, 16)
    bus = platform.bus
    bus.write(DMA_BASE + SRC, PROM_BASE + 0x100)
    bus.write(DMA_BASE + DST, DRAM_PROBE)
    bus.write(DMA_BASE + LEN, 16)
    bus.write(DMA_BASE + CTRL, CTRL_START)
    return DRAM_PROBE, source


def _tamper_code(platform):
    FleetDevice(0, platform, KEY).tamper_code()
    return None


def _tamper_installed_firmware(platform):
    platform.container = build_container(
        platform.image, image_name="two-counter", fw_version=1,
        signing_key=demo_trust_root(),
    )
    _tamper_installed(platform)
    return None


def _fault_flips(platform):
    flip_memory_bits(platform, random.Random(5), memory="sram", flips=3)
    return None


def _wipe(platform):
    platform.soc.sram.wipe()
    return SRAM_BASE, bytes(platform.soc.sram.size)


def _restore_bytes(platform):
    sram = platform.soc.sram
    image = bytearray(sram.dump())
    image[0x3001] ^= 0xFF
    sram.restore_state(bytes(image))
    return SRAM_BASE + 0x3001, bytes((image[0x3001],))


def _restore_zero(platform):
    snapshot = Snapshot.save(platform)
    devices = tuple(
        (name, ZeroBytes(len(state)) if name == "sram" else state)
        for name, state in snapshot.devices
    )
    replace(snapshot, devices=devices).restore(platform)
    return SRAM_BASE, bytes(platform.soc.sram.size)


MUTATIONS = {
    "bus-byte": _bus_byte,
    "bus-word": _bus_word,
    "write-bytes": _write_bytes,
    "dma-write-word": _dma,
    "load-tamper-code": _tamper_code,
    "load-tamper-installed": _tamper_installed_firmware,
    "load-fault-injector": _fault_flips,
    "wipe": _wipe,
    "restore-state-bytes": _restore_bytes,
    "restore-state-zero-bytes": _restore_zero,
}


class TestSiblingIsolation:
    @pytest.mark.parametrize("path", sorted(MUTATIONS))
    def test_mutation_stays_on_its_clone(self, golden, path):
        snapshot, blob = golden
        target, sibling = snapshot.clone(), snapshot.clone()
        expected = MUTATIONS[path](target)

        changed = _changed(snapshot, target)
        assert changed, f"{path} changed no memory"
        # The golden snapshot and both siblings are untouched.
        assert encode_snapshot(snapshot) == blob
        assert Snapshot.save(sibling) == snapshot
        assert Snapshot.save(snapshot.clone()) == snapshot
        assert not _changed(snapshot, sibling)

        # The bus sees the new bytes at once, byte- and block-wise.
        for base, device in _memories(target):
            if device.name not in changed:
                continue
            lo, hi = changed[device.name]
            now = device.dump()
            assert target.bus.read_bytes(base + lo, hi - lo) == now[lo:hi]
            assert target.bus.read(base + lo, 1) == now[lo]
            assert target.bus.read_bytes(base, device.size) == now
        if expected is not None:
            address, data = expected
            assert target.bus.read_bytes(address, len(data)) == data
            assert target.bus.read(address, 1) == data[0]

    @pytest.mark.parametrize("path", sorted(MUTATIONS))
    def test_later_writes_land_after_the_mutation(self, golden, path):
        """A store after any host-side change reads back on its clone
        only."""
        snapshot, _blob = golden
        target, sibling = snapshot.clone(), snapshot.clone()
        MUTATIONS[path](target)
        for address in (SRAM_PROBE, DRAM_PROBE):
            before = sibling.bus.read(address, 1)
            target.bus.write(address, before ^ 0xC3, 1)
            assert target.bus.read(address, 1) == before ^ 0xC3
            assert sibling.bus.read(address, 1) == before
        assert Snapshot.save(sibling) == snapshot


class TestOneInvalidationChannel:
    @pytest.mark.parametrize("path", sorted(MUTATIONS))
    def test_write_listeners_hear_every_changed_byte(self, golden, path):
        snapshot, _blob = golden
        target = snapshot.clone()
        heard = []
        target.bus.add_write_listener(
            lambda address, length: heard.append((address, length))
        )
        MUTATIONS[path](target)
        states = dict(snapshot.devices)
        changed = _changed(snapshot, target)
        assert changed, f"{path} changed no memory"
        for base, device in _memories(target):
            if device.name not in changed:
                continue
            lo, hi = changed[device.name]
            now, then = device.dump(), bytes(states[device.name])
            unheard = [
                base + offset for offset in range(lo, hi)
                if now[offset] != then[offset] and not any(
                    address <= base + offset < address + length
                    for address, length in heard
                )
            ]
            assert not unheard, (
                f"{path}: no write listener heard {len(unheard)} changed "
                f"byte(s) of {device.name}, first at {unheard[0]:#x}"
            )


# --------------------------------------------------------------------------
# Code patched under a recorded trace.


def _patch_load(platform, address, data):
    platform.soc.prom.load(address - PROM_BASE, data)


def _patch_bus_write(platform, address, data):
    for index, byte in enumerate(data):
        platform.bus.write(address + index, byte, 1)


def _patch_write_bytes(platform, address, data):
    platform.bus.write_bytes(address, data)


def _patch_dma(platform, address, data):
    # Stage the patched words in DRAM, then copy them over the code.
    lo = address & ~3
    hi = (address + len(data) + 3) & ~3
    words = bytearray(platform.bus.read_bytes(lo, hi - lo))
    words[address - lo:address - lo + len(data)] = data
    platform.bus.write_bytes(DRAM_PROBE, bytes(words))
    bus = platform.bus
    bus.write(DMA_BASE + SRC, DRAM_PROBE)
    bus.write(DMA_BASE + DST, lo)
    bus.write(DMA_BASE + LEN, hi - lo)
    bus.write(DMA_BASE + CTRL, CTRL_START)


def _patch_restore(platform, address, data):
    prom = platform.soc.prom
    image = bytearray(prom.dump())
    offset = address - PROM_BASE
    image[offset:offset + len(data)] = data
    prom.restore_state(bytes(image))


PATCHES = [
    (False, "load", _patch_load),
    (False, "restore-state", _patch_restore),
    (True, "load", _patch_load),
    (True, "bus-write", _patch_bus_write),
    (True, "write-bytes", _patch_write_bytes),
    (True, "dma-write-word", _patch_dma),
    (True, "restore-state", _patch_restore),
]


@pytest.fixture(scope="module")
def goldens():
    return {flash: _golden(flash_prom=flash) for flash in (False, True)}


@pytest.fixture(scope="module")
def stride_patch():
    """``(offset, bytes)`` runs where the stride-5 image differs."""
    old, new = _counter_image(1).prom, _counter_image(5).prom
    assert len(old) == len(new)
    runs = []
    for offset in range(len(old)):
        if old[offset] != new[offset]:
            runs.append((offset, new[offset:offset + 1]))
    assert runs
    return runs


class TestPatchOverTrace:
    @pytest.mark.parametrize(
        "flash, path, patch", PATCHES,
        ids=[f"{'flash' if f else 'prom'}-{p}" for f, p, _ in PATCHES],
    )
    def test_patch_kills_the_trace_and_keeps_lockstep(
        self, goldens, stride_patch, flash, path, patch
    ):
        snapshot = goldens[flash]
        traced = snapshot.clone()
        reference = snapshot.clone(fastpath=False)
        untouched = snapshot.clone()
        for platform in (traced, reference, untouched):
            platform.run(max_cycles=30_000)
        engine = traced.cpu.fastpath.traces
        pages = {(PROM_BASE + offset) >> PAGE_SHIFT
                 for offset, _data in stride_patch}
        covering = [
            trace for trace in engine._traces.values()
            if pages & set(trace.pages)
        ]
        assert covering, "no recorded trace covers the counter loop"

        entries = traced.cpu.fastpath.decode_cache.entries

        def decoded_on_patched_pages():
            return [
                address for address, (_instr, length, _cost)
                in entries.items()
                if pages & {address >> PAGE_SHIFT,
                            (address + length - 1) >> PAGE_SHIFT}
            ]

        assert decoded_on_patched_pages(), "no decoded code to patch"

        for offset, data in stride_patch:
            patch(traced, PROM_BASE + offset, data)
            patch(reference, PROM_BASE + offset, data)
        assert not any(trace.alive[0] for trace in covering)
        assert not decoded_on_patched_pages()
        code = traced.soc.prom.size
        assert traced.bus.read_bytes(PROM_BASE, code) \
            == reference.bus.read_bytes(PROM_BASE, code)

        for platform in (traced, reference, untouched):
            platform.run(max_cycles=40_000)
        after_traced, after_reference = (
            Snapshot.save(traced), Snapshot.save(reference)
        )
        assert after_traced.cpu == after_reference.cpu
        assert after_traced.devices == after_reference.devices
        # The patch took effect: the counters now run at stride 5.
        assert after_traced.devices != Snapshot.save(untouched).devices
        assert Snapshot.save(snapshot.clone()) == snapshot


# --------------------------------------------------------------------------
# Copy-on-first-write: what a clone shares, and when it copies.


def _window(bus, name):
    return [device.name for device in bus._devices].index(name)


class TestCopyOnFirstWrite:
    def test_fresh_clone_shares_the_snapshot_bytes(self, golden):
        snapshot, _blob = golden
        clone = snapshot.clone()
        states = dict(snapshot.devices)
        for _base, device in _memories(clone):
            state = states[device.name]
            if isinstance(state, ZeroBytes):
                assert device._data is zero_bytes(device.size)
            else:
                assert device._data is state
            assert device.copied_bytes == 0
        assert not any(
            data is not None for data in clone.bus._ram_store
        )

    def test_first_store_copies_then_takes_the_write_store(self, golden):
        snapshot, _blob = golden
        clone = snapshot.clone()
        sram, bus = clone.soc.sram, clone.bus
        i = _window(bus, "sram")
        shared = sram._data
        bus.write(SRAM_PROBE, 0x11, 1)
        assert type(sram._data) is bytearray
        assert sram.copied_bytes == sram.size
        assert bus._ram_data[i] is sram._data
        assert bus._ram_store[i] is sram._data
        assert shared == dict(snapshot.devices)["sram"]

        def refuse(*_args):
            raise AssertionError("store dispatched to the device")

        sram.write = refuse  # later stores must take the write store
        bus.write(SRAM_PROBE, 0x22, 1)
        bus.write(SRAM_PROBE & ~3, 0x3344_5566, 4)
        assert bus.read(SRAM_PROBE & ~3, 4) == 0x3344_5566
        assert sram.copied_bytes == sram.size

    def test_prom_copies_only_when_tampered(self, golden):
        snapshot, _blob = golden
        clone = snapshot.clone()
        prom, bus = clone.soc.prom, clone.bus
        i = _window(bus, "prom")
        assert bus._ram_store[i] is None
        assert (PROM_BASE, PROM_BASE + prom.size) not in \
            bus.ram_write_windows()
        FleetDevice(0, clone, KEY).tamper_code()
        assert prom.copied_bytes == prom.size
        assert bus._ram_data[i] is prom._data
        assert bus._ram_store[i] is None  # PROM still has no write port

    def test_unwritten_sram_is_a_write_window(self, golden):
        """Store guards test the device type, not the copy state."""
        snapshot, _blob = golden
        clone = snapshot.clone()
        sram = clone.soc.sram
        assert type(sram._data) is bytes
        assert (SRAM_BASE, SRAM_BASE + sram.size) in \
            clone.bus.ram_write_windows()

    def test_wipe_and_restore_rebind_without_copying(self, golden):
        snapshot, _blob = golden
        clone = snapshot.clone()
        sram = clone.soc.sram
        clone.bus.write(SRAM_PROBE, 0x11, 1)
        sram.wipe()
        assert sram._data is zero_bytes(sram.size)
        state = dict(snapshot.devices)["sram"]
        sram.restore_state(state)
        assert sram._data is state
        assert sram.copied_bytes == sram.size  # only the first store
        i = _window(clone.bus, "sram")
        assert clone.bus._ram_data[i] is state
        assert clone.bus._ram_store[i] is None
