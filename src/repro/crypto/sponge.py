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

Digest memo.  Attestation re-measures the same code on every quote,
the Secure Loader and OTA path hash the same modules, containers and
chunks on every device, and a verifier recomputes the MAC an
untampered device has just computed over the same bytes.  So a hasher
keeps such an input unabsorbed, and ``digest()`` looks up ``(state,
unabsorbed bytes)`` in one per-process memo of 16-byte digests.  It
stays coherent without ever being invalidated:

* a digest is a pure function of the state and the bytes still to
  absorb, and the key holds both;
* the key's bytes are an immutable ``bytes``, never a view of the
  caller's buffer, so mutating a ``bytearray`` or ``memoryview`` source
  afterwards cannot change a stored key;
* only ``digest()`` writes an entry, from its own computation, so what
  a verifier finds is never a quote it received;
* measurements read live memory through ``bus.read_bytes``, so a
  tampered, fault-flipped or OTA-written region, like a tampered
  device's MAC material, gives other key bytes and misses.

A plain hasher keeps its input unabsorbed once at least
:data:`MEMO_MIN_BYTES` of it are (code regions, containers, chunks);
it absorbs anything shorter at once, so nonces and key fingerprints
never enter.  A keyed hasher from :func:`prefixed` keeps what follows
its prefix at any size and counts its lookups as ``tag_hits`` and
``tag_misses``.  An input past :data:`MEMO_MAX_BYTES` is absorbed as
it arrives, so it never enters whole.  Each entry is charged its input
bytes plus :data:`MEMO_ENTRY_BYTES`, and the memo is emptied whenever
the next entry would pass :data:`MEMO_MAX_BYTES`.  A short
``digest(size)`` reads the head of the stored full digest.

Prefix cache.  A MAC absorbs its key's ``len || key`` prefix before
anything that varies.  :func:`prefixed` keeps one keyed hasher per key
and hands out only fresh :meth:`SpongeHash.copy` copies, so no caller
can advance or finalize the cached one.  A hasher absorbs what it kept
unabsorbed when it is copied, so its copies (these, and a
``NonceSource``'s) share that work; by the sponge's chunking
invariance a copy fed the rest of the input digests exactly what one
hasher fed the whole input does.  :func:`memoized_tag` looks a MAC up
from the cached hasher's state before anything is copied.  The cache
holds at most :data:`PREFIX_MAX_ENTRIES` hashers and is emptied when
full.

:func:`memo_stats` reports hits, misses and retained bytes of the memo
and hits and misses of the prefix cache for the process.
"""

from __future__ import annotations

import struct

DIGEST_SIZE = 16
RATE = 8
STATE_WORDS = 8
ROUNDS = 12

#: Unabsorbed bytes a plain hasher needs before ``digest()`` uses the
#: memo: code regions, containers and chunks pass it, nonces and key
#: fingerprints stay below.
MEMO_MIN_BYTES = 256
#: Bytes the memo's entries may be charged before it is emptied; a
#: longer input is absorbed as it arrives and never enters whole.
MEMO_MAX_BYTES = 256 * 1024
#: What one memo entry is charged on top of its input bytes: CPython
#: spends 167 to 187 bytes on its key tuple, the input's ``bytes``
#: header, the digest and its share of the dict (measured with
#: ``tracemalloc`` over 300 to 10,000 entries).
MEMO_ENTRY_BYTES = 192
#: Prefix hashers :func:`prefixed` may keep before it is emptied: one
#: per device key of a fleet well past the suite's.
PREFIX_MAX_ENTRIES = 1024

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


def _lanes(state: bytes) -> tuple:
    """The 32-byte state ``s0 .. s7`` as ``_absorb``'s four lane pairs."""
    s0, s1, s2, s3, s4, s5, s6, s7 = struct.unpack("<8I", state)
    return s0 | s4 << 64, s1 | s5 << 64, s2 | s6 << 64, s3 | s7 << 64


def _packed(lanes: tuple) -> bytes:
    """Four lane pairs as the 32-byte state ``s0 .. s7``.  A hasher keeps
    its state packed: a ``bytes`` hashes once, then a memo key built on
    it costs only its input's hash."""
    a, b, c, d = lanes
    mask = _MASK
    return struct.pack(
        "<8I", a & mask, b & mask, c & mask, d & mask,
        a >> 64, b >> 64, c >> 64, d >> 64,
    )


#: The state before anything is absorbed.
_ZERO_STATE = bytes(32)
#: ``(state, unabsorbed bytes) -> digest``.
_digests: dict[tuple[bytes, bytes], bytes] = {}
#: ``key -> keyed hasher that absorbed len || key``; only ever copied.
_prefixes: dict[bytes, SpongeHash] = {}
_memo_counts = {
    "hits": 0, "misses": 0, "retained_bytes": 0,
    "prefix_hits": 0, "prefix_misses": 0,
    "tag_hits": 0, "tag_misses": 0,
}


def memo_stats(since: dict | None = None) -> dict:
    """This process's sponge caches: the memo's ``hits`` and ``misses``
    (MACs apart, as ``tag_hits`` and ``tag_misses``) and the bytes it
    is charged, ``retained_bytes``, and the prefix cache's
    ``prefix_hits`` and ``prefix_misses``.  With ``since`` (an earlier
    result), hits and misses count only what happened after it."""
    stats = dict(_memo_counts)
    if since is not None:
        for name in stats:
            if name != "retained_bytes":
                stats[name] -= since[name]
    return stats


def _finalize(state: bytes, data: bytes, size: int = DIGEST_SIZE) -> bytes:
    """Absorb ``data`` and its padding into ``state`` and squeeze 16
    bytes, or only the first :data:`RATE` if ``size`` needs no more."""
    tail = len(data) % RATE
    if tail == RATE - 1:
        data += b"\x81"
    else:
        data += b"\x80" + bytes(RATE - 2 - tail) + b"\x01"
    # Squeeze (s0, s1) twice, one permutation apart; nothing reads the
    # state after the second, so it is not permuted.
    first = _absorb(_lanes(state), struct.iter_unpack("<2I", data))
    if size <= RATE:
        return struct.pack("<2I", first[0] & _MASK, first[1] & _MASK)
    second = _absorb(first, ((0, 0),))
    words = (first[0], first[1], second[0], second[1])
    return struct.pack("<4I", *(w & _MASK for w in words))


def _memo_digest(state: bytes, data: bytes, keyed: bool) -> bytes:
    """``_finalize(state, data)``, looked up in or stored to the memo."""
    key = (state, data)
    digest = _digests.get(key)
    counts = _memo_counts
    kind = "tag_" if keyed else ""
    if digest is not None:
        counts[kind + "hits"] += 1
        return digest
    digest = _finalize(state, data)
    size = len(data) + MEMO_ENTRY_BYTES
    if size <= MEMO_MAX_BYTES:
        if counts["retained_bytes"] + size > MEMO_MAX_BYTES:
            _digests.clear()
            counts["retained_bytes"] = 0
        counts["retained_bytes"] += size
        _digests[key] = digest
    counts[kind + "misses"] += 1
    return digest


def prefixed(key: bytes) -> SpongeHash:
    """A fresh keyed hasher that has absorbed ``len(key) || key``
    (``key`` a ``bytes``), copied from the process's prefix cache."""
    hasher = _prefixes.get(key)
    counts = _memo_counts
    if hasher is None:
        counts["prefix_misses"] += 1
        hasher = SpongeHash().update(len(key).to_bytes(4, "little") + key)
        hasher._keyed = True
        if len(_prefixes) >= PREFIX_MAX_ENTRIES:
            _prefixes.clear()
        _prefixes[key] = hasher
    else:
        counts["prefix_hits"] += 1
    return hasher.copy()


def memoized_tag(key: bytes, message: bytes) -> bytes | None:
    """The memo's digest of ``message`` from the cached keyed hasher of
    ``key``, found without copying it, or ``None`` (the miss is counted
    when the caller's copy finalizes).  A ``bytearray`` or writable
    ``memoryview`` key is unhashable, so it finds nothing here and is
    looked up by that copy."""
    try:
        hasher = _prefixes.get(key)
    except (TypeError, ValueError):
        return None
    if hasher is None:
        return None
    digest = _digests.get((hasher._state, hasher._buffer + message))
    if digest is not None:
        _memo_counts["tag_hits"] += 1
    return digest


class SpongeHash:
    """Incremental sponge hash (absorb bytes, squeeze a 128-bit digest)."""

    #: Whether ``digest()`` uses the memo at any size, counting as a
    #: MAC; set on the prefix cache's hashers and so on their copies.
    _keyed = False

    def __init__(self) -> None:
        self._state = _ZERO_STATE
        # What is not absorbed yet: a partial block, or an input kept
        # whole for the memo.
        self._buffer = b""
        self._finalized: bytes | None = None

    def update(self, data: bytes | bytearray | memoryview) -> "SpongeHash":
        """Absorb ``data``; chainable.  Rejects use after finalization."""
        if self._finalized is not None:
            raise ValueError("cannot update a finalized hash")
        # TypeError unless bytes-like; ``bytes(5)`` would give 5 zeros.
        # ``bytes + bytes-like`` is a ``bytes``: a memo key never
        # aliases the caller's buffer.
        data = self._buffer + data
        if len(data) <= MEMO_MAX_BYTES and (
            self._keyed or len(data) >= MEMO_MIN_BYTES
        ):
            # Kept whole for ``digest()``'s memo lookup.
            self._buffer = data
        else:
            self._absorb_blocks(data)
        return self

    def _absorb_blocks(self, data: bytes) -> None:
        """Absorb ``data``'s full blocks and buffer its partial last one."""
        full = len(data) - len(data) % RATE
        if full:
            # Lazily, so a large input never becomes one big tuple.
            blocks = struct.iter_unpack("<2I", memoryview(data)[:full])
            self._state = _packed(_absorb(_lanes(self._state), blocks))
        self._buffer = data[full:]

    def copy(self) -> "SpongeHash":
        """An independent hasher in this one's exact state.  This one
        absorbs what it buffered first, so its copies share that work."""
        self._absorb_blocks(self._buffer)
        clone = SpongeHash.__new__(SpongeHash)
        # Every field is immutable, so sharing them is a full copy.
        clone.__dict__.update(self.__dict__)
        return clone

    def digest(self, size: int = DIGEST_SIZE) -> bytes:
        """Finalize (idempotent) and return the first ``size`` bytes of
        the 16-byte digest.

        Up to :data:`RATE` bytes come from the first squeeze alone, so
        a short read skips the second permutation; the memo still
        stores only full digests.
        """
        if not 0 <= size <= DIGEST_SIZE:
            raise ValueError(f"digest size must be 0..{DIGEST_SIZE}: {size}")
        finalized = self._finalized
        if finalized is None or len(finalized) < size:
            if self._keyed or len(self._buffer) >= MEMO_MIN_BYTES:
                finalized = _memo_digest(
                    self._state, self._buffer, self._keyed
                )
            else:
                finalized = _finalize(self._state, self._buffer, size)
            self._finalized = finalized
        return finalized[:size]

    def hexdigest(self) -> str:
        return self.digest().hex()


def sponge_hash(data: bytes) -> bytes:
    """One-shot 128-bit hash of ``data``."""
    return SpongeHash().update(data).digest()
