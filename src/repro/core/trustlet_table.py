"""The Trustlet Table (paper Sec. 3.4, Fig. 4).

A write-protected table in on-chip SRAM recording, for every loaded
software module: its identifier, code region, entry vector, data/stack
regions, the stack pointer saved by the secure exception engine, and an
optional load-time measurement of its code.

Three parties interact with it:

* the **Secure Loader** populates it at boot (host-modelled firmware,
  writes through the bus before the MPU policy is activated);
* the **secure exception engine** (hardware) looks up the row covering
  the interrupted instruction pointer and stores the trustlet's stack
  pointer into it;
* **software** reads it — the OS to discover schedulable trustlets,
  trustlets to look up peers for local attestation — via an MPU rule
  granting read-only access to everyone and write access to no one.

Row layout (16 words, 64 bytes)::

    +0   id tag (first 4 bytes of the name, zero padded)
    +4   flags: bit0 = OS row (its saved SP is the kernel entry stack)
    +8   code base          +12  code end (exclusive)
    +16  entry vector base  +20  saved stack pointer
    +24  data base          +28  data end
    +32  stack base         +36  stack end
    +40  measurement (16 bytes)
    +56  reserved (2 words)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import PlatformError
from repro.machine.bus import Bus

ROW_SIZE = 64
HEADER_SIZE = 4

FLAG_OS = 0x1

# Public row-field offsets: guest assembly (the OS scheduler walks the
# table) and host code share these.
OFF_ID = 0
OFF_FLAGS = 4
OFF_CODE_BASE = 8
OFF_CODE_END = 12
OFF_ENTRY = 16
OFF_SAVED_SP = 20
OFF_DATA_BASE = 24
OFF_DATA_END = 28
OFF_STACK_BASE = 32
OFF_STACK_END = 36
OFF_MEASUREMENT = 40
MEASUREMENT_SIZE = 16

# The ten row words and the measurement as one block; the two reserved
# words after it are never written.
_ROW = struct.Struct(f"<10I{MEASUREMENT_SIZE}s")


def name_tag(name: str) -> int:
    """First four bytes of ``name`` as the row's id word."""
    raw = name.encode("ascii")[:4].ljust(4, b"\x00")
    return int.from_bytes(raw, "little")


@dataclass(frozen=True)
class TrustletRow:
    """A decoded row (read-only snapshot; live state is in memory)."""

    index: int
    name_tag: int
    flags: int
    code_base: int
    code_end: int
    entry: int
    saved_sp: int
    data_base: int
    data_end: int
    stack_base: int
    stack_end: int
    measurement: bytes

    @property
    def is_os(self) -> bool:
        return bool(self.flags & FLAG_OS)

    @property
    def tag_text(self) -> str:
        raw = self.name_tag.to_bytes(4, "little").rstrip(b"\x00")
        return raw.decode("ascii", errors="replace")

    def covers_ip(self, instruction_pointer: int) -> bool:
        return self.code_base <= instruction_pointer < self.code_end


class TrustletTable:
    """Host handle to the in-memory Trustlet Table."""

    def __init__(
        self, bus: Bus, base: int, capacity: int
    ) -> None:
        if capacity <= 0:
            raise PlatformError("trustlet table capacity must be positive")
        self.bus = bus
        self.base = base
        self.capacity = capacity

    @property
    def end(self) -> int:
        """One past the table's last byte (for MPU region programming)."""
        return self.base + HEADER_SIZE + self.capacity * ROW_SIZE

    @property
    def count(self) -> int:
        return self.bus.read_word(self.base)

    def _row_base(self, index: int) -> int:
        if not 0 <= index < self.capacity:
            raise PlatformError(
                f"trustlet table row {index} out of range 0..{self.capacity - 1}"
            )
        return self.base + HEADER_SIZE + index * ROW_SIZE

    # ------------------------------------------------------------------
    # Loader-side population (pre-protection bus writes).

    def add_row(
        self,
        name: str,
        *,
        code_base: int,
        code_end: int,
        entry: int,
        saved_sp: int,
        data_base: int = 0,
        data_end: int = 0,
        stack_base: int = 0,
        stack_end: int = 0,
        measurement: bytes = b"",
        is_os: bool = False,
    ) -> int:
        """Append a row; returns its index."""
        index = self.count
        if index >= self.capacity:
            raise PlatformError(
                f"trustlet table full ({self.capacity} rows)"
            )
        if len(measurement) > MEASUREMENT_SIZE:
            raise PlatformError("measurement must be at most 16 bytes")
        words = (
            name_tag(name), FLAG_OS if is_os else 0, code_base, code_end,
            entry, saved_sp, data_base, data_end, stack_base, stack_end,
        )
        # Bus word stores keep the low 32 bits; so does the row block.
        self.bus.write_bytes(
            self._row_base(index),
            _ROW.pack(*(w & 0xFFFF_FFFF for w in words), measurement),
        )
        self.bus.write_word(self.base, index + 1)
        return index

    def clear(self) -> None:
        """Reset the table (Secure Loader re-initialization on reset)."""
        self.bus.write_word(self.base, 0)

    # ------------------------------------------------------------------
    # Reads (used by hardware models and host-side software models; the
    # guest reads the same bytes over the bus under MPU rules).

    def row(self, index: int) -> TrustletRow:
        base = self._row_base(index)
        if index >= self.count:
            raise PlatformError(f"trustlet table row {index} not populated")
        return TrustletRow(
            index, *_ROW.unpack(self.bus.read_bytes(base, _ROW.size))
        )

    def rows(self) -> list[TrustletRow]:
        return [self.row(i) for i in range(self.count)]

    def find_by_name(self, name: str) -> TrustletRow | None:
        """Row whose id tag matches ``name`` (first four bytes)."""
        wanted = name_tag(name)
        for row in self.rows():
            if row.name_tag == wanted:
                return row
        return None

    def row_for_ip(self, instruction_pointer: int) -> TrustletRow | None:
        """Row whose code region covers ``instruction_pointer``."""
        for row in self.rows():
            if row.covers_ip(instruction_pointer):
                return row
        return None

    def os_row(self) -> TrustletRow | None:
        for row in self.rows():
            if row.is_os:
                return row
        return None

    # ------------------------------------------------------------------
    # Hardware-side accessors (secure exception engine).

    def sp_slot_address(self, index: int) -> int:
        """Bus address of row ``index``'s saved-SP word.

        Trustlet ``continue()`` prologues load their stack pointer from
        this address; the image builder bakes it into their code as a
        constant (the paper's loader instead rewrites the code).
        """
        return self._row_base(index) + OFF_SAVED_SP

    def write_saved_sp(self, index: int, value: int) -> None:
        """Hardware write of a trustlet's saved stack pointer."""
        self.bus.write_word(self._row_base(index) + OFF_SAVED_SP, value)
