"""Memory devices: on-chip SRAM, PROM and external DRAM.

The distinction matters to the architecture (paper Sec. 3.1): trustlet
code and confidential data live in on-chip RAM/PROM inside the SoC
security boundary, while external DRAM holds only the untrusted OS bulk
and integrity-protected public data.  Functionally all three are byte
arrays; PROM additionally rejects guest writes (it is programmed by the
image builder before boot, via :meth:`Prom.load`).

Host-side mutation paths (``load``, ``wipe``, ``restore_state``) bypass
the bus, so memories expose *mutation hooks* — the fast-path decode
cache registers one per RAM window and is told the touched offset range
whenever contents change behind the bus's back.

Contents are copy-on-first-write.  A memory starts on the shared
all-zero image of its size (:func:`zero_bytes`), ``restore_state``
adopts the snapshot's own immutable ``bytes``, and ``wipe`` goes back
to the zero image; only the first change (``write``, ``write_block``,
``load``) swaps in a private ``bytearray`` copy (:meth:`Ram._own`).  A
clone that is attested but never written therefore costs no memory,
the simulation analogue of the paper's fast startup (Sec. 6: no wipe
and no copy to bring a device up).  Coherence:

* shared contents are immutable ``bytes``, so no write can leak
  between clones or into the snapshot they came from;
* ``_data`` is replaced only inside :class:`Ram` (``_own``, ``wipe``,
  ``restore_state``) and every replacement fires the *rebind hooks*,
  through which the bus refreshes its cached read view and write
  store, so the bus never holds a stale array;
* a copy does not change contents, so decode-cache and trace
  invalidation still comes from the bus write listeners and the
  mutation hooks, exactly as before.

The zero image must be shared, not a fresh ``bytes(size)`` per memory:
once a worker has freed a shard of clones, glibc's dynamic mmap
threshold serves the next 1 MiB ``calloc`` from the heap and memsets
it, so per-memory zero images grow worker RSS shard after shard.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import BusError
from repro.machine.device import Device


@lru_cache(maxsize=None)
def zero_bytes(size: int) -> bytes:
    """The process-wide all-zero image of ``size`` bytes."""
    return bytes(size)


class Ram(Device):
    """Volatile random-access memory with copy-on-first-write contents."""

    def __init__(self, name: str, size: int, fill: int = 0x00) -> None:
        super().__init__(name, size)
        fill &= 0xFF
        self._data = zero_bytes(size) if fill == 0 else bytes([fill]) * size
        #: Bytes copied into private arrays on first change (observability).
        self.copied_bytes = 0
        # key -> hook(offset, length); fired on host-side mutation.
        self._mutation_hooks: dict = {}
        # key -> hook(); fired whenever ``_data`` is replaced.
        self._rebind_hooks: dict = {}

    def add_mutation_hook(self, key, hook) -> None:
        """Register (or replace) a host-mutation observer under ``key``."""
        self._mutation_hooks[key] = hook

    def remove_mutation_hook(self, key) -> None:
        self._mutation_hooks.pop(key, None)

    def _notify_mutation(self, offset: int, length: int) -> None:
        for hook in self._mutation_hooks.values():
            hook(offset, length)

    def add_rebind_hook(self, key, hook) -> None:
        """Register (or replace) ``hook()``, fired when ``_data`` is
        replaced (private copy, wipe, restore)."""
        self._rebind_hooks[key] = hook

    def _rebind(self, data) -> None:
        self._data = data
        for hook in self._rebind_hooks.values():
            hook()

    def _own(self) -> bytearray:
        """The private, writable contents, copied on first use."""
        data = self._data
        if type(data) is not bytearray:
            data = bytearray(data)
            self.copied_bytes += len(data)
            self._rebind(data)
        return data

    def read(self, offset: int, size: int) -> int:
        self._check_offset(offset, size)
        return int.from_bytes(self._data[offset:offset + size], "little")

    def write(self, offset: int, size: int, value: int) -> None:
        self._check_offset(offset, size)
        self._own()[offset:offset + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    def read_block(self, offset: int, length: int) -> bytes:
        """Bulk read: one slice instead of ``length`` byte dispatches."""
        self._check_offset(offset, max(length, 1))
        return bytes(self._data[offset:offset + length])

    def write_block(self, offset: int, data: bytes) -> None:
        """Bulk write: one slice instead of ``len(data)`` dispatches."""
        self._check_offset(offset, max(len(data), 1))
        self._own()[offset:offset + len(data)] = data

    def load(self, offset: int, blob: bytes) -> None:
        """Bulk-initialize memory contents (host-side, not a bus access)."""
        self._check_offset(offset, max(len(blob), 1))
        self._own()[offset:offset + len(blob)] = blob
        self._notify_mutation(offset, len(blob))

    def dump(self, offset: int = 0, length: int | None = None) -> bytes:
        """Snapshot memory contents (host-side, not a bus access)."""
        if length is None:
            length = self.size - offset
        self._check_offset(offset, max(length, 1))
        return bytes(self._data[offset:offset + length])

    def wipe(self) -> None:
        """Clear all contents, as SMART/Sancus require on every reset."""
        self._rebind(zero_bytes(self.size))
        self._notify_mutation(0, self.size)

    def snapshot_state(self) -> bytes:
        # Shared ``bytes`` are returned as they are; only a private
        # bytearray is copied.
        return bytes(self._data)

    def restore_state(self, state) -> None:
        """Adopt ``state`` (``bytes`` are shared, not copied)."""
        if len(state) != self.size:
            raise BusError(
                f"snapshot of {len(state)} bytes does not fit memory "
                f"{self.name!r} of {self.size} bytes"
            )
        self._rebind(bytes(state))
        self._notify_mutation(0, self.size)


class Dram(Ram):
    """External DRAM: same behaviour, different trust domain.

    Kept as a distinct type so platform assembly code and tests can
    assert that confidential trustlet regions were never placed here.
    """


class Flash(Ram):
    """In-system-programmable code memory.

    Behaves like PROM for ordinary software (code executes in place),
    but accepts bus writes — the storage technology behind the paper's
    field-update story (Sec. 3.6: a trustlet's "code region [declared]
    as writable to itself or to a separate software update service").
    Write *policy* is the EA-MPU's job; this device only provides the
    write port.  Erase granularity is not modelled.
    """


class Prom(Ram):
    """Programmable ROM: readable and executable, never writable by software.

    The CPU boots from a hardwired location inside this device (paper
    Sec. 2).  Writes arriving over the bus raise :class:`BusError`,
    modelling the absent write port; :meth:`Ram.load` remains available
    to the host-side image builder, which models the out-of-band
    programming of the PROM at manufacturing/update time.
    """

    def write(self, offset: int, size: int, value: int) -> None:
        raise BusError(
            f"write to PROM {self.name!r} at offset {offset:#x} "
            "(PROM has no write port)"
        )

    def write_block(self, offset: int, data: bytes) -> None:
        raise BusError(
            f"write to PROM {self.name!r} at offset {offset:#x} "
            "(PROM has no write port)"
        )
