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

Absorb memo.  Attestation re-measures the same code on every quote and
the Secure Loader and OTA path hash the same modules, containers and
chunks on every device, so ``update`` memoizes its absorb per process:
a call with at least :data:`MEMO_MIN_BYTES` bytes of full blocks looks
up ``(state before, those bytes)`` and on a hit adopts the stored state
after.  It stays coherent without ever being invalidated:

* ``_absorb`` is a pure function of (state, blocks), and the key holds
  both;
* the key's bytes are an immutable ``bytes`` copy, never a view of the
  caller's buffer, so mutating a ``bytearray`` or ``memoryview`` source
  afterwards cannot change a stored key;
* measurements still read live memory through ``bus.read_bytes``, so a
  tampered, fault-flipped or OTA-written region yields different key
  bytes and misses.

The memo is bounded by the key bytes it retains and emptied whenever
the next entry would pass :data:`MEMO_MAX_BYTES`.

Finalization memo.  A re-measured region also pads and squeezes the
same state and tail on every quote, so ``digest()`` memoizes its two
permutations as ``(state, tail bytes) -> digest``.  It is consulted
only by a hash whose state came out of the absorb memo (its last
absorb took the memo path), so the one-off digests of MACs and nonces
over short inputs never enter it.  Its coherence is the absorb memo's:
finalization is a pure function of the key, the state is an immutable
tuple and the tail an immutable ``bytes``.  A tail is at most seven
bytes, so each entry is charged a fixed :data:`FINAL_ENTRY_BYTES`
against the same bound rather than its key bytes, and the two memos
are emptied together.

Prefix cache.  A MAC absorbs its key's ``len || key`` prefix before
anything that varies.  :func:`prefixed` keeps one hasher per prefix
that has absorbed it and hands out only fresh :meth:`SpongeHash.copy`
copies, so no caller can advance or finalize the cached one.  By the
sponge's chunking invariance a copy fed the rest of the input digests
exactly what one hasher fed the whole input does.  The cache holds at
most :data:`PREFIX_MAX_ENTRIES` hashers and is emptied when full.

Tag memo.  A verifier recomputes the MAC an untampered device has just
computed over exactly the same bytes, in the same process, so
:func:`keyed_digest` (the whole of ``mac()``) memoizes ``(prefix,
message) -> digest``.  Its key is the input itself, as immutable
``bytes``, and a digest is a pure function of it, so a hit returns
exactly what a recompute would.  Only :func:`keyed_digest` writes an
entry, from its own computation, so what a verifier finds is never a
tag it received.  A tampered device's material differs, so the
verifier's lookup misses and it recomputes.  Each entry is charged its
key bytes plus :data:`TAG_ENTRY_BYTES` against the same bound, and the
three memos are emptied together.

:func:`memo_stats` reports hits, misses and retained bytes of the
memos and hits and misses of the prefix cache for the process.
"""

from __future__ import annotations

import struct

DIGEST_SIZE = 16
RATE = 8
STATE_WORDS = 8
ROUNDS = 12

#: Full-block bytes one ``update`` call needs before it uses the memo:
#: code regions, containers and chunks pass it, quote and MAC material
#: stays below.
MEMO_MIN_BYTES = 256
#: Bytes the absorb memo's keys and the finalization and tag memos'
#: entries may be charged, together, before all three are emptied.
MEMO_MAX_BYTES = 256 * 1024
#: What one finalization-memo entry is charged against
#: :data:`MEMO_MAX_BYTES`: CPython spends about 170 bytes on its key
#: tuple, tail, digest and dict slot, rounded up to the least an
#: absorb entry is charged.
FINAL_ENTRY_BYTES = 256
#: What one tag-memo entry is charged on top of its key bytes:
#: CPython spends about 152 bytes on its key tuple, the two ``bytes``
#: headers, the digest and the dict slot (measured with
#: ``tracemalloc``).
TAG_ENTRY_BYTES = 160
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


#: ``(state before, full-block bytes) -> state after``.
_memo: dict[tuple[tuple, bytes], tuple] = {}
#: ``(state, tail bytes) -> digest`` for states out of ``_memo``.
_final: dict[tuple[tuple, bytes], bytes] = {}
#: ``prefix -> hasher that absorbed it``; only ever copied.
_prefixes: dict[bytes, SpongeHash] = {}
#: ``(prefix, message) -> digest`` of :func:`keyed_digest`.
_tags: dict[tuple[bytes, bytes], bytes] = {}
_memo_counts = {
    "hits": 0, "misses": 0, "retained_bytes": 0,
    "final_hits": 0, "final_misses": 0,
    "prefix_hits": 0, "prefix_misses": 0,
    "tag_hits": 0, "tag_misses": 0,
}


def memo_stats(since: dict | None = None) -> dict:
    """This process's sponge caches: absorb memo ``hits`` and
    ``misses``, finalization memo ``final_hits`` and ``final_misses``,
    prefix cache ``prefix_hits`` and ``prefix_misses``, tag memo
    ``tag_hits`` and ``tag_misses``, and the bytes the three memos are
    charged, ``retained_bytes``.  With ``since`` (an earlier result),
    hits and misses count only what happened after it."""
    stats = dict(_memo_counts)
    if since is not None:
        for name in stats:
            if name != "retained_bytes":
                stats[name] -= since[name]
    return stats


def _retain(size: int) -> None:
    """Charge ``size`` bytes to the memos, emptying all three first if
    they would pass the bound."""
    counts = _memo_counts
    if counts["retained_bytes"] + size > MEMO_MAX_BYTES:
        _memo.clear()
        _final.clear()
        _tags.clear()
        counts["retained_bytes"] = 0
    counts["retained_bytes"] += size


def _memo_absorb(state: tuple, blocks: bytes) -> tuple:
    """``_absorb(state, blocks)``, looked up in or stored to the memo."""
    key = (state, blocks)
    after = _memo.get(key)
    counts = _memo_counts
    if after is not None:
        counts["hits"] += 1
        return after
    after = _absorb(state, struct.iter_unpack("<2I", blocks))
    _retain(len(blocks))
    _memo[key] = after
    counts["misses"] += 1
    return after


def _finalize(state: tuple, tail: bytes, size: int = DIGEST_SIZE) -> bytes:
    """Pad ``tail``, absorb it into ``state`` and squeeze 16 bytes, or
    only the first :data:`RATE` if ``size`` needs no more."""
    if len(tail) == RATE - 1:
        block = tail + b"\x81"
    else:
        block = tail + b"\x80" + bytes(RATE - 2 - len(tail)) + b"\x01"
    # Squeeze (s0, s1) twice, one permutation apart; nothing reads the
    # state after the second, so it is not permuted.
    first = _absorb(state, struct.iter_unpack("<2I", block))
    if size <= RATE:
        return struct.pack("<2I", first[0] & _MASK, first[1] & _MASK)
    second = _absorb(first, ((0, 0),))
    words = (first[0], first[1], second[0], second[1])
    return struct.pack("<4I", *(w & _MASK for w in words))


def _memo_finalize(state: tuple, tail: bytes) -> bytes:
    """``_finalize(state, tail)``, looked up in or stored to the
    finalization memo."""
    key = (state, tail)
    digest = _final.get(key)
    counts = _memo_counts
    if digest is not None:
        counts["final_hits"] += 1
        return digest
    digest = _finalize(state, tail)
    _retain(FINAL_ENTRY_BYTES)
    _final[key] = digest
    counts["final_misses"] += 1
    return digest


def prefixed(prefix: bytes) -> SpongeHash:
    """A fresh hasher that has absorbed ``prefix`` (a ``bytes``), copied
    from the process's prefix cache."""
    hasher = _prefixes.get(prefix)
    counts = _memo_counts
    if hasher is None:
        counts["prefix_misses"] += 1
        hasher = SpongeHash().update(prefix)
        if len(_prefixes) >= PREFIX_MAX_ENTRIES:
            _prefixes.clear()
        _prefixes[prefix] = hasher
    else:
        counts["prefix_hits"] += 1
    return hasher.copy()


def keyed_digest(prefix: bytes, message: bytes) -> bytes:
    """The digest of ``prefix`` (a ``bytes``) then ``message``, looked
    up in or stored to the tag memo."""
    # ``bytes + bytes-like`` is a ``bytes`` (``message`` itself if it
    # is one): the key never aliases a caller's buffer.
    message = b"" + message
    key = (prefix, message)
    digest = _tags.get(key)
    counts = _memo_counts
    if digest is not None:
        counts["tag_hits"] += 1
        return digest
    digest = prefixed(prefix).update(message).digest()
    size = len(prefix) + len(message) + TAG_ENTRY_BYTES
    if size <= MEMO_MAX_BYTES:
        _retain(size)
        _tags[key] = digest
    counts["tag_misses"] += 1
    return digest


class SpongeHash:
    """Incremental sponge hash (absorb bytes, squeeze a 128-bit digest)."""

    def __init__(self) -> None:
        self._state = (0, 0, 0, 0)
        self._buffer = b""
        self._finalized: bytes | None = None
        # Whether ``_state`` came out of the absorb memo.
        self._memoized = False

    def update(self, data: bytes | bytearray | memoryview) -> "SpongeHash":
        """Absorb ``data``; chainable.  Rejects use after finalization."""
        if self._finalized is not None:
            raise ValueError("cannot update a finalized hash")
        # TypeError unless bytes-like; ``bytes(5)`` would give 5 zeros.
        # ``bytes + bytes-like`` is a new ``bytes``: the key below never
        # aliases the caller's buffer.
        data = self._buffer + data
        full = len(data) - len(data) % RATE
        if MEMO_MIN_BYTES <= full <= MEMO_MAX_BYTES:
            self._state = _memo_absorb(self._state, data[:full])
            self._memoized = True
        elif full:
            # Lazily, so a large input never becomes one big tuple.
            blocks = struct.iter_unpack("<2I", memoryview(data)[:full])
            self._state = _absorb(self._state, blocks)
            self._memoized = False
        self._buffer = data[full:]
        return self

    def copy(self) -> "SpongeHash":
        """An independent hasher in this one's exact state."""
        clone = SpongeHash.__new__(SpongeHash)
        # Every field is immutable, so sharing them is a full copy.
        clone.__dict__.update(self.__dict__)
        return clone

    def digest(self, size: int = DIGEST_SIZE) -> bytes:
        """Finalize (idempotent) and return the first ``size`` bytes of
        the 16-byte digest.

        Up to :data:`RATE` bytes come from the first squeeze alone, so
        a short read skips the second permutation; the finalization
        memo still stores only full digests.
        """
        if not 0 <= size <= DIGEST_SIZE:
            raise ValueError(f"digest size must be 0..{DIGEST_SIZE}: {size}")
        finalized = self._finalized
        if finalized is None or len(finalized) < size:
            if self._memoized:
                finalized = _memo_finalize(self._state, self._buffer)
            else:
                finalized = _finalize(self._state, self._buffer, size)
            self._finalized = finalized
        return finalized[:size]

    def hexdigest(self) -> str:
        return self.digest().hex()


def sponge_hash(data: bytes) -> bytes:
    """One-shot 128-bit hash of ``data``."""
    return SpongeHash().update(data).digest()
