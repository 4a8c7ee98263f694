"""Address-space and binary-layout conventions of the reproduction.

The paper arranges code and data regions with a GNU linker script so
the Secure Loader can recognize and protect them (Sec. 5.1).  This
module is that linker script's contract: where the trustlet table
lives, how entry vectors are shaped, and how software images are packed
into PROM.
"""

from __future__ import annotations

import struct

from repro.errors import AlignmentError
from repro.machine import soc as socmap

# ---------------------------------------------------------------------
# Entry vector shape (Sec. 4.1).  The prototype used the first 4 bytes
# of each code region as the entry vector; we use three 8-byte jump
# slots so a trustlet exposes the two fundamental entries of Fig. 6
# plus a resume entry for voluntary yields during IPC:
#
#   +0   continue()    resume after interrupt (state from Trustlet Table)
#   +8   call()        IPC entry: type/msg/sender in r0/r1/r2
#   +16  resume()      resume after voluntary yield (state from own data)
ENTRY_CONTINUE = 0
ENTRY_CALL = 8
ENTRY_RESUME = 16
ENTRY_VECTOR_SIZE = 24

# ---------------------------------------------------------------------
# PROM layout: the image directory starts after the reset stub area.
PROM_DIRECTORY = 0x0000_0100

# ---------------------------------------------------------------------
# SRAM layout: the Trustlet Table sits at the bottom of on-chip SRAM;
# trustlet data/stack regions are packed above it by the image builder.
TRUSTLET_TABLE_BASE = socmap.SRAM_BASE
TRUSTLET_TABLE_CAPACITY = 16

# Region allocation for software data/stacks starts here.
SRAM_ALLOC_BASE = TRUSTLET_TABLE_BASE + 0x800

# Word and stack-frame geometry.
WORD = 4

# The secure exception engine spills: saved IP, saved FLAGS, and the 15
# GPRs other than SP (r0..r12, lr, fp) — 17 words (Fig. 4 step 1).
RESUME_FRAME_WORDS = 17


def resume_frame(gprs, flags: int, ip: int) -> tuple[int, ...]:
    """The resume frame in ``continue()`` pop order, lowest address
    first: r0..r12, lr, fp (``gprs[0:15]``), FLAGS, IP.

    The secure exception engine spills an interrupted trustlet in this
    order and the Secure Loader fakes each trustlet's first frame in it.
    """
    return (*gprs[:15], flags, ip)


def _check_aligned(address: int) -> None:
    if address % WORD:
        raise AlignmentError(
            f"unaligned word access at {address:#010x}", address=address
        )


def write_words(bus, address: int, words) -> None:
    """Store 32-bit ``words`` upward from ``address`` as one bus block,
    after the alignment check a single word store makes."""
    _check_aligned(address)
    bus.write_bytes(
        address,
        struct.pack(f"<{len(words)}I", *(w & 0xFFFF_FFFF for w in words)),
    )


def read_words(bus, address: int, count: int) -> tuple[int, ...]:
    """Load ``count`` 32-bit words upward from ``address`` as one block."""
    _check_aligned(address)
    return struct.unpack(f"<{count}I", bus.read_bytes(address, WORD * count))
