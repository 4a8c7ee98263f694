"""The physical address space: device windows and access dispatch.

The bus is the *unchecked* hardware path.  Software running on the CPU
never talks to the bus directly — the CPU routes every fetch/load/store
through the MPU hook first.  Hardware blocks (the exception engine, the
Secure Loader model, devices) use the bus directly, which is exactly
the authority they have in the paper's design.

Address decoding is cached: a last-mapping memo catches the streak
locality of fetch/data traffic, a bisect over the sorted window bases
replaces the linear scan on memo misses, and accesses that land in a
plain byte-array memory (RAM/DRAM/flash/PROM reads) are serviced from
the backing array directly instead of dispatching through the device
object.  All three are pure strength reductions — unmapped, cross-end
and alignment faults are raised exactly as before.

Memories are copy-on-first-write (:mod:`repro.machine.memories`), so
each window caches two views of its memory: the read view (shared
``bytes`` or the private ``bytearray``) and a write store, which holds
the array only once the memory owns a private ``bytearray``.  Until
then a store falls through to ``device.write``, which copies.

Two observer hooks exist for cache coherence (used by
:mod:`repro.machine.fastpath`).  Write listeners hear
``(address, length)`` for every change to memory contents: after each
successful bus store, and for the host-side ports that bypass the bus
(``Ram.load``, ``wipe``, ``restore_state``).  The bus registers one
hook on every memory window; the memory fires it whenever it replaces
its array or changes contents, and the bus then refreshes both views
of that window and, for a non-empty range, translates the offset to a
physical address and fires the write listeners.  Topology listeners
fire once per :meth:`Bus.attach_all` batch of new windows.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

from repro.errors import AlignmentError, BusError
from repro.machine.device import Device
from repro.machine.memories import Ram


@dataclass(frozen=True)
class Mapping:
    """A device window in the physical address space."""

    base: int
    device: Device

    @property
    def end(self) -> int:
        """One past the last byte of the window."""
        return self.base + self.device.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class Bus:
    """Single flat 32-bit physical address space with MMIO dispatch."""

    def __init__(self) -> None:
        self._mappings: list[Mapping] = []
        # Parallel routing arrays, rebuilt per attach batch: sorted window
        # bases/ends, the device per window, and — for windows backed
        # by an unmodified Ram-family memory — its contents (the read
        # view) and, once the memory owns a private bytearray of the
        # stock write semantics, that array (the write store), so
        # loads/stores skip the device dispatch entirely.
        self._bases: list[int] = []
        self._ends: list[int] = []
        self._devices: list[Device] = []
        self._ram_data: list[bytes | bytearray | None] = []
        self._ram_store: list[bytearray | None] = []
        self._last = -1  # index of the most recently hit window
        # Devices whose class overrides ``tick`` or ``next_event_in``;
        # the rest are timeless and never walked.
        self._timed: list[Device] = []
        # Routing observability (streak locality of the memo); exported
        # through :attr:`routing_stats` and surfaced per-device in the
        # fleet metrics registry.
        self.memo_hits = 0
        self.memo_misses = 0
        self._write_listeners: list = []
        self._topology_listeners: list = []

    def attach(self, base: int, device: Device) -> Mapping:
        """Map ``device`` at ``base``; windows must not overlap."""
        return self.attach_all(((base, device),))[0]

    def attach_all(
        self, windows: Iterable[tuple[int, Device]]
    ) -> list[Mapping]:
        """Map every ``(base, device)`` of ``windows``, in order, with one
        routing rebuild and one round of topology listeners.

        Each window is checked against the mapped ones and those before
        it in the batch, with :meth:`attach`'s errors; a faulting batch
        maps nothing.
        """
        mappings = list(self._mappings)
        added: list[Mapping] = []
        for base, device in windows:
            if base < 0 or base + device.size > 0x1_0000_0000:
                raise BusError(
                    f"device {device.name!r} at {base:#x} exceeds 32-bit space"
                )
            new = Mapping(base, device)
            for existing in mappings:
                if new.base < existing.end and existing.base < new.end:
                    raise BusError(
                        f"mapping for {device.name!r} at {base:#x} overlaps "
                        f"{existing.device.name!r} at {existing.base:#x}"
                    )
            mappings.append(new)
            mappings.sort(key=lambda m: m.base)
            added.append(new)
        self._mappings = mappings
        self._rebuild_routing()
        for listener in self._topology_listeners:
            listener()
        return added

    def _rebuild_routing(self) -> None:
        self._bases = [m.base for m in self._mappings]
        self._ends = [m.end for m in self._mappings]
        self._devices = [m.device for m in self._mappings]
        self._ram_data = [None] * len(self._devices)
        self._ram_store = [None] * len(self._devices)
        for i, device in enumerate(self._devices):
            if isinstance(device, Ram):
                hook = partial(self._on_memory_change, i)
                device.add_hook(self, hook)
                hook(0, 0)
        self._timed = [
            device
            for device in self._devices
            if type(device).tick is not Device.tick
            or type(device).next_event_in is not Device.next_event_in
        ]
        self._last = -1

    def _on_memory_change(self, i: int, offset: int, length: int) -> None:
        """Window ``i``'s memory replaced its array or changed
        ``[offset, +length)`` behind the bus."""
        device = self._devices[i]
        # Short-circuit only devices that kept the stock Ram byte
        # semantics; any override (PROM's absent write port, future
        # side-effecting memories) keeps the device dispatch.
        if type(device).read is Ram.read:
            data = device._data
            self._ram_data[i] = data
            self._ram_store[i] = (
                data if type(data) is bytearray
                and type(device).write is Ram.write else None
            )
        if length:
            address = self._bases[i] + offset
            for listener in self._write_listeners:
                listener(address, length)

    # ------------------------------------------------------------------
    # Coherence observers.

    def add_write_listener(self, listener) -> None:
        """``listener(address, length)`` after every change to memory
        contents: successful bus writes and host-side memory ports."""
        if listener not in self._write_listeners:
            self._write_listeners.append(listener)

    def add_topology_listener(self, listener) -> None:
        """``listener()`` after every batch of new windows."""
        if listener not in self._topology_listeners:
            self._topology_listeners.append(listener)

    # ------------------------------------------------------------------
    # Address decoding.

    @property
    def mappings(self) -> tuple[Mapping, ...]:
        """All device windows, sorted by base address."""
        return tuple(self._mappings)

    def _index_of(self, address: int) -> int:
        """Index of the window covering ``address``; raises BusError."""
        i = self._last
        if i >= 0 and self._bases[i] <= address < self._ends[i]:
            self.memo_hits += 1
            return i
        i = bisect_right(self._bases, address) - 1
        if i >= 0 and address < self._ends[i]:
            self._last = i
            self.memo_misses += 1
            return i
        raise BusError(f"unmapped address {address:#010x}", address=address)

    @property
    def routing_stats(self) -> dict:
        """Last-mapping memo effectiveness (hits vs bisect fallbacks)."""
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }

    def find(self, address: int) -> Mapping:
        """The mapping covering ``address``; raises :class:`BusError`."""
        return self._mappings[self._index_of(address)]

    def is_ram_backed(self, address: int, size: int) -> bool:
        """Whole range inside one side-effect-free byte-array memory?

        The decode cache only holds instructions from such windows:
        re-reading them is unobservable, so a cached decode may skip
        the memory read entirely.
        """
        try:
            i = self._index_of(address)
        except BusError:
            return False
        return self._ram_data[i] is not None and address + size <= self._ends[i]

    def device_named(self, name: str) -> Device:
        """Look up an attached device by name."""
        for mapping in self._mappings:
            if mapping.device.name == name:
                return mapping.device
        raise BusError(f"no device named {name!r}")

    def base_of(self, name: str) -> int:
        """Base address of the device named ``name``."""
        for mapping in self._mappings:
            if mapping.device.name == name:
                return mapping.base
        raise BusError(f"no device named {name!r}")

    def _check_access(self, address: int, size: int) -> int:
        if size == 4 and address % 4 != 0:
            raise AlignmentError(
                f"unaligned word access at {address:#010x}", address=address
            )
        i = self._index_of(address)
        if address + size > self._ends[i]:
            raise BusError(
                f"access at {address:#010x} crosses the end of device "
                f"{self._devices[i].name!r}",
                address=address,
            )
        return i

    # ------------------------------------------------------------------
    # Single-access ports.

    # ``read`` and ``write`` first try the last-hit window inline, with
    # ``_check_access``'s alignment and end-of-device tests and
    # ``_index_of``'s memo count; anything else takes the full path.

    def read(self, address: int, size: int = 4) -> int:
        """Read ``size`` bytes (1 or 4) from the physical address space."""
        i = self._last
        if (
            i >= 0
            and self._bases[i] <= address
            and address + size <= self._ends[i]
            and not (size == 4 and address & 3)
        ):
            self.memo_hits += 1
        else:
            i = self._check_access(address, size)
        data = self._ram_data[i]
        offset = address - self._bases[i]
        if data is not None:
            return int.from_bytes(data[offset:offset + size], "little")
        return self._devices[i].read(offset, size)

    def write(self, address: int, value: int, size: int = 4) -> None:
        """Write ``size`` bytes (1 or 4) to the physical address space."""
        i = self._last
        if (
            i >= 0
            and self._bases[i] <= address
            and address + size <= self._ends[i]
            and not (size == 4 and address & 3)
        ):
            self.memo_hits += 1
        else:
            i = self._check_access(address, size)
        offset = address - self._bases[i]
        store = self._ram_store[i]
        if store is not None:
            store[offset:offset + size] = (
                value & ((1 << (8 * size)) - 1)
            ).to_bytes(size, "little")
        else:
            self._devices[i].write(offset, size, value)
        for listener in self._write_listeners:
            listener(address, size)

    def read_word(self, address: int) -> int:
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        self.write(address, value, 4)

    # ------------------------------------------------------------------
    # Block ports (host-side convenience; image loading, measurement
    # and snapshotting all sit on these).

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes, block-wise per window."""
        out = bytearray()
        cursor = address
        remaining = length
        while remaining > 0:
            i = self._index_of(cursor)
            span = min(self._ends[i] - cursor, remaining)
            offset = cursor - self._bases[i]
            data = self._ram_data[i]
            if data is not None:
                out += data[offset:offset + span]
            else:
                out += self._devices[i].read_block(offset, span)
            cursor += span
            remaining -= span
        return bytes(out)

    def write_bytes(self, address: int, blob: bytes) -> None:
        """Write ``blob``, block-wise per window."""
        cursor = address
        position = 0
        remaining = len(blob)
        while remaining > 0:
            i = self._index_of(cursor)
            span = min(self._ends[i] - cursor, remaining)
            chunk = blob[position:position + span]
            self._devices[i].write_block(cursor - self._bases[i], chunk)
            for listener in self._write_listeners:
                listener(cursor, span)
            cursor += span
            position += span
            remaining -= span

    def ram_read_windows(self) -> tuple[tuple[int, int], ...]:
        """``(base, end)`` of every short-circuited memory window.

        A load inside one of these windows (RAM, PROM) has no side
        effect and does not depend on device time; the trace engine
        bakes these bounds into its load guards.
        """
        return tuple(
            (self._bases[i], self._ends[i])
            for i in range(len(self._bases))
            if self._ram_data[i] is not None
        )

    def ram_write_windows(self) -> tuple[tuple[int, int], ...]:
        """``(base, end)`` of every short-circuited writable RAM window.

        A store whose target lies inside one of these windows has no
        side effect beyond the byte array itself (plus cache
        invalidation, which the write listeners handle).  The trace
        engine bakes these bounds into its store guards: anything
        outside — MMIO, PROM, overridden memories — forces a side exit
        so device semantics run under the interpreter.  The test is on
        the device type, not on the write store: a memory that has not
        copied its contents yet is still a plain RAM window.
        """
        return tuple(
            (self._bases[i], self._ends[i])
            for i in range(len(self._bases))
            if self._ram_data[i] is not None
            and type(self._devices[i]).write is Ram.write
        )

    def next_event_in(self):
        """Minimum of the timed devices' event horizons (or None)."""
        horizon = None
        for device in self._timed:
            candidate = device.next_event_in()
            if candidate is not None and (horizon is None or candidate < horizon):
                horizon = candidate
        return horizon

    def tick(self, cycles: int) -> None:
        """Advance time on every timed device."""
        for device in self._timed:
            device.tick(cycles)
