"""Sponge-construction hash with Spongent-like parameters.

Layout: 256-bit state (eight 32-bit words), 64-bit rate, 192-bit
capacity, 128-bit digest.  The permutation is an ARX network of
ChaCha-style quarter-rounds with distinct round constants — chosen for
clear, dependency-free Python rather than for cryptanalytic strength
(see the package docstring).  Padding is the standard pad10*1 sponge
padding at byte granularity (0x80 ... 0x01, or 0x81 for a single byte).

A round XORs a constant into s0, runs quarter-rounds (0,1,2,3) and
(4,5,6,7), then (0,5,2,7) and (4,1,6,3).  One int runs each disjoint pair
as lanes in bits 0-31 and 64-95: A=(s0,s4) B=(s1,s5) C=(s2,s6) D=(s3,s7).
Carries land in guard bits that the mask clears before a right shift can
reach them; swapping B's and D's lanes turns columns into diagonals.
"""

from __future__ import annotations

import struct

DIGEST_SIZE = 16
RATE = 8
STATE_WORDS = 8
ROUNDS = 12

_MASK = 0xFFFF_FFFF
_LANES = _MASK | _MASK << 64

# Round constants: first 32 bits of the fractional parts of sqrt of the
# first primes (the SHA-2 trick), precomputed so the module has no
# runtime dependency on floating point behaviour.
_ROUND_CONSTANTS = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
    0xCBBB9D5D, 0x629A292A, 0x9159015A, 0x152FECD8,
)


def _absorb(state: tuple, blocks) -> tuple:
    """XOR each block's word pair into (s0, s1), then permute."""
    a, b, c, d = state
    mask, lanes = _MASK, _LANES
    for w0, w1 in blocks:
        a ^= w0
        b ^= w1
        for constant in _ROUND_CONSTANTS:
            a ^= constant
            for _ in (0, 1):  # columns, swap, diagonals, swap back
                a = (a + b) & lanes
                d = ((x := d ^ a) << 16 | x >> 16) & lanes
                c = (c + d) & lanes
                b = ((x := b ^ c) << 12 | x >> 20) & lanes
                a = (a + b) & lanes
                d = ((x := d ^ a) << 8 | x >> 24) & lanes
                c = (c + d) & lanes
                b = ((x := b ^ c) << 7 | x >> 25) & lanes
                b = (b & mask) << 64 | b >> 64
                d = (d & mask) << 64 | d >> 64
    return a, b, c, d


class SpongeHash:
    """Incremental sponge hash (absorb bytes, squeeze a 128-bit digest)."""

    def __init__(self) -> None:
        self._state = (0, 0, 0, 0)
        self._buffer = b""
        self._finalized: bytes | None = None

    def update(self, data: bytes | bytearray | memoryview) -> "SpongeHash":
        """Absorb ``data``; chainable.  Rejects use after finalization."""
        if self._finalized is not None:
            raise ValueError("cannot update a finalized hash")
        # TypeError unless bytes-like; ``bytes(5)`` would give 5 zeros.
        data = self._buffer + data
        full = len(data) - len(data) % RATE
        if full:
            # Lazily, so a large input never becomes one big tuple.
            blocks = struct.iter_unpack("<2I", memoryview(data)[:full])
            self._state = _absorb(self._state, blocks)
        self._buffer = data[full:]
        return self

    def digest(self) -> bytes:
        """Finalize (idempotent) and return the 16-byte digest."""
        if self._finalized is None:
            tail = self._buffer
            if len(tail) == RATE - 1:
                block = tail + b"\x81"
            else:
                block = tail + b"\x80" + bytes(RATE - 2 - len(tail)) + b"\x01"
            # Squeeze (s0, s1) twice, one permutation apart; nothing
            # reads the state after the second, so it is not permuted.
            first = _absorb(self._state, struct.iter_unpack("<2I", block))
            second = _absorb(first, ((0, 0),))
            words = (first[0], first[1], second[0], second[1])
            self._finalized = struct.pack("<4I", *(w & _MASK for w in words))
        return self._finalized

    def hexdigest(self) -> str:
        return self.digest().hex()


def sponge_hash(data: bytes) -> bytes:
    """One-shot 128-bit hash of ``data``."""
    return SpongeHash().update(data).digest()
