"""Canonical varints and a strict reader: the primitive layer of the
TLSC snapshot codec (:mod:`repro.machine.snapcodec`) and the TLFW
container codec (:mod:`repro.ota.container`).

A varint is unsigned LEB128 with exactly one encoding per value: the
reader rejects padded (non-canonical) forms and anything past 64 bits,
so equal values always mean equal bytes.  Each codec subclasses
:class:`VarintReader` with its own error class and stream noun, so
every failure still surfaces as that codec's typed error.
"""

from __future__ import annotations


def write_uvarint(
    out: bytearray, value: int, error: type[Exception]
) -> None:
    """Append ``value`` as a canonical varint; negatives raise ``error``."""
    if value < 0:
        raise error(f"cannot encode negative varint: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class VarintReader:
    """Bounds-checked cursor over an immutable byte buffer.

    Subclasses set ``error``, raised on every malformed input, and
    ``noun``, which names the buffer in truncation messages.
    """

    error: type[Exception]
    noun: str

    def __init__(self, data) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise self.error(
                f"truncated {self.noun}: need {count} byte(s) at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if shift and byte == 0:
                    raise self.error(
                        f"non-canonical varint at offset {self.pos}"
                    )
                return value
            shift += 7
            if shift > 70:
                raise self.error("varint exceeds 64 bits")

    def exhausted(self) -> bool:
        return self.pos == len(self.data)
