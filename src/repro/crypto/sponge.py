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
A state's lanes take 192 bits, so ``_absorb`` permutes k states packed
at a 192-bit stride in one pass: every shift moves a lane at most 89
bits, into guard bits of its own or a neighbouring slot, which lets
B's swap fuse into its last rotate and D's swap take one mask.

Digest memo.  Attestation re-measures the same code on every quote,
the Secure Loader and OTA path hash the same modules, containers and
chunks on every device, and a fleet verifier computes the MAC an
untampered device is about to compute over the same bytes.  So a
hasher keeps such an input unabsorbed, and ``digest()`` looks up
``(state, unabsorbed bytes)`` in one per-process memo of 16-byte
digests.  It stays coherent without ever being invalidated:

* a digest is a pure function of the state and the bytes still to
  absorb, and the key holds both;
* the key's bytes are an immutable ``bytes``, never a view of the
  caller's buffer, so mutating a ``bytearray`` or ``memoryview`` source
  afterwards cannot change a stored key;
* only the sponge's own finalization writes an entry (``digest()`` or
  :func:`finalize_all`), from its own computation, never a quote
  received: whether a verifier's expected tag is stored before or
  after a device's quote, what either finds is a tag of the bytes it
  asked for;
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

Batched finalization.  :func:`finalize_all` finalizes many hashers
with exactly the memo lookups, stores, clears and counts of one
``digest()`` after another (a :class:`Batch` keeps the memo's writes
in an overlay until it runs), and permutes the memo's misses and the
unmemoized digests of equal padded length in one packed pass.
``mac.macs`` and ``tokens.next_nonces`` build on it.

:func:`memo_stats` reports hits, misses and retained bytes of the memo
and hits and misses of the prefix cache for the process.
"""

from __future__ import annotations

import functools
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


def _absorb(state: tuple, blocks, lanes=_LANES, constants=_ROUND_CONSTANTS):
    """XOR each block's word pair into (s0, s1), then permute.  With
    :func:`_wide`'s ``lanes`` and ``constants``, ``state`` and each
    block word hold k states packed at a 192-bit stride."""
    a, b, c, d = state
    for w0, w1 in blocks:
        a ^= w0
        b ^= w1
        for constant in constants:
            a ^= constant
            for _ in (0, 1):  # columns, swap, diagonals, swap back
                a = (a + b) & lanes
                d = ((x := d ^ a) << 16 | x >> 16) & lanes
                c = (c + d) & lanes
                b = ((x := b ^ c) << 12 | x >> 20) & lanes
                a = (a + b) & lanes
                d = ((x := d ^ a) << 8 | x >> 24) & lanes
                c = (c + d) & lanes
                # Rotate left by 7 and swap lanes in one step.
                b = ((x := b ^ c) << 71 | x << 39 | x >> 57 | x >> 89) \
                    & lanes
                d = (d << 64 | d >> 64) & lanes
    return a, b, c, d


@functools.lru_cache(maxsize=128)
def _wide(k: int) -> tuple:
    """``_absorb``'s lane mask and round constants for k packed states."""
    repeat = ((1 << 192 * k) - 1) // ((1 << 192) - 1)
    return _LANES * repeat, tuple(c * repeat for c in _ROUND_CONSTANTS)


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


def _pad(data: bytes) -> bytes:
    """``data`` and its pad10*1 padding: ``len(data) // RATE + 1``
    blocks."""
    tail = len(data) % RATE
    if tail == RATE - 1:
        return data + b"\x81"
    return data + b"\x80" + bytes(RATE - 2 - tail) + b"\x01"


def _finalize(state: bytes, data: bytes, size: int = DIGEST_SIZE) -> bytes:
    """Absorb ``data`` and its padding into ``state`` and squeeze 16
    bytes, or only the first :data:`RATE` if ``size`` needs no more."""
    # Squeeze (s0, s1) twice, one permutation apart; nothing reads the
    # state after the second, so it is not permuted.
    first = _absorb(_lanes(state), struct.iter_unpack("<2I", _pad(data)))
    if size <= RATE:
        return struct.pack("<2I", first[0] & _MASK, first[1] & _MASK)
    second = _absorb(first, ((0, 0),))
    words = (first[0], first[1], second[0], second[1])
    return struct.pack("<4I", *(w & _MASK for w in words))


def _admit(length: int) -> bool | None:
    """Charge a memo entry for an input of ``length`` bytes: ``None``
    if it is too big to enter, else whether the memo must be emptied
    before it is stored (the charge then starts over)."""
    entry = length + MEMO_ENTRY_BYTES
    if entry > MEMO_MAX_BYTES:
        return None
    counts = _memo_counts
    clear = counts["retained_bytes"] + entry > MEMO_MAX_BYTES
    if clear:
        counts["retained_bytes"] = 0
    counts["retained_bytes"] += entry
    return clear


def _memo_digest(state: bytes, data: bytes, keyed: bool) -> bytes:
    """``_finalize(state, data)``, looked up in or stored to the memo."""
    key = (state, data)
    digest = _digests.get(key)
    kind = "tag_" if keyed else ""
    if digest is not None:
        _memo_counts[kind + "hits"] += 1
        return digest
    digest = _finalize(state, data)
    clear = _admit(len(data))
    if clear:
        _digests.clear()
    if clear is not None:
        _digests[key] = digest
    _memo_counts[kind + "misses"] += 1
    return digest


def _finalize_wide(jobs: list) -> list[bytes]:
    """``_finalize`` of k ``(state, data, size)`` jobs whose padded data
    has one length, as one pass of k states packed at a 192-bit
    stride: each lane pair takes 24 bytes, its words at 32-bit slots 0
    and 2 of six."""
    k = len(jobs)
    width = 24 * k
    lanes, constants = _wide(k)
    words = memoryview(b"".join(job[0] for job in jobs)).cast("I")
    state = []
    for lane in range(4):
        packed = bytearray(width)
        view = memoryview(packed).cast("I")
        view[0::6] = words[lane::8]
        view[2::6] = words[lane + 4::8]
        state.append(int.from_bytes(packed, "little"))
    padded = b"".join(_pad(job[1]) for job in jobs)
    n = len(padded) // (RATE * k)
    data = memoryview(padded).cast("I")
    columns = []
    for word in (0, 1):
        packed = bytearray(width * n)
        view = memoryview(packed).cast("I")
        for block in range(n):
            view[6 * k * block:6 * k * (block + 1):6] = \
                data[2 * block + word::2 * n]
        columns.append(packed)
    w0, w1 = columns
    blocks = (
        (int.from_bytes(w0[start:start + width], "little"),
         int.from_bytes(w1[start:start + width], "little"))
        for start in range(0, width * n, width)
    )
    squeezes = [_absorb(state, blocks, lanes, constants)]
    if any(job[2] > RATE for job in jobs):
        squeezes.append(_absorb(squeezes[0], ((0, 0),), lanes, constants))
    out = bytearray(RATE * len(squeezes) * k)
    view = memoryview(out).cast("I")
    step = 2 * len(squeezes)
    for index, (a, b, _c, _d) in enumerate(squeezes):
        for offset, lane in enumerate((a, b)):
            view[2 * index + offset::step] = \
                memoryview(lane.to_bytes(width, "little")).cast("I")[0::6]
    stride = RATE * len(squeezes)
    # A job that needs no more than RATE bytes keeps only the first
    # squeeze, as ``_finalize`` does.
    return [
        bytes(out[stride * i:stride * i + (
            DIGEST_SIZE if job[2] > RATE else RATE
        )])
        for i, job in enumerate(jobs)
    ]


def _permute(jobs: list) -> list[bytes]:
    """``_finalize`` of every ``(state, data, size)`` job; jobs whose
    padded data has the same length are permuted together."""
    if len(jobs) <= 1:
        return [_finalize(*job) for job in jobs]
    groups: dict[int, list[int]] = {}
    for number, job in enumerate(jobs):
        groups.setdefault(len(job[1]) // RATE, []).append(number)
    digests = [b""] * len(jobs)
    for numbers in groups.values():
        if len(numbers) == 1:
            digests[numbers[0]] = _finalize(*jobs[numbers[0]])
            continue
        wide = _finalize_wide([jobs[number] for number in numbers])
        for number, digest in zip(numbers, wide):
            digests[number] = digest
    return digests


class Batch:
    """Finalizations taken in the order a run of ``digest()`` and
    ``mac()`` calls would take them, with the permutations left to
    :meth:`run`.  Until then the memo is read and written through an
    overlay, so every lookup, store, clear and count is the one that
    run of calls makes.  A hasher added here runs its batch at its
    first ``digest()``."""

    __slots__ = ("_cleared", "_stored", "_jobs", "_added", "_digests")

    def __init__(self) -> None:
        self._cleared = False
        # Memo key -> job number, for entries stored since the batch began.
        self._stored: dict[tuple[bytes, bytes], int] = {}
        self._jobs: list[tuple[bytes, bytes, int]] = []
        self._added: dict[SpongeHash, bytes | int] = {}
        self._digests: list[bytes] | None = None

    def _lookup(self, key: tuple[bytes, bytes]) -> bytes | int | None:
        found = self._stored.get(key)
        if found is None and not self._cleared:
            found = _digests.get(key)
        return found

    def add(self, hasher: SpongeHash, size: int = DIGEST_SIZE):
        """Finalize ``hasher`` as ``digest(size)`` would; returns its
        digest or a job number for :meth:`result`."""
        found = self._added.get(hasher, hasher._finalized)
        if found is not None and (type(found) is int or len(found) >= size):
            return found
        state, data = hasher._state, hasher._buffer
        if hasher._keyed or len(data) >= MEMO_MIN_BYTES:
            key = (state, data)
            kind = "tag_" if hasher._keyed else ""
            found = self._lookup(key)
            if found is not None:
                _memo_counts[kind + "hits"] += 1
            else:
                found = self._job(state, data, DIGEST_SIZE)
                clear = _admit(len(data))
                if clear:
                    self._cleared = True
                    self._stored.clear()
                if clear is not None:
                    self._stored[key] = found
                _memo_counts[kind + "misses"] += 1
        else:
            found = self._job(state, data, size)
        self._added[hasher] = found
        hasher._batch = self
        return found

    def _job(self, state: bytes, data: bytes, size: int) -> int:
        self._jobs.append((state, data, size))
        return len(self._jobs) - 1

    def run(self) -> None:
        """Permute every job, commit the memo and finalize every added
        hasher (idempotent)."""
        if self._digests is not None:
            return
        self._digests = digests = _permute(self._jobs)
        if self._cleared:
            _digests.clear()
        for key, job in self._stored.items():
            _digests[key] = digests[job]
        for hasher, found in self._added.items():
            hasher._finalized = self.result(found)
            hasher._batch = None

    def result(self, found: bytes | int) -> bytes:
        """A digest that :meth:`add` or :meth:`tag` returned, once run."""
        return self._digests[found] if type(found) is int else found


def memoized_tag(key: bytes, message: bytes,
                 batch: Batch | None = None) -> bytes | int | None:
    """The memo's digest of ``message`` from the cached keyed hasher of
    ``key``, found without copying it, or ``None`` (the miss is counted
    when the caller's copy finalizes).  With ``batch``, the memo is
    read through its overlay, and a tag stored in it is a job number
    for :meth:`Batch.result`.  A ``bytearray`` or writable
    ``memoryview`` key is unhashable, so it finds nothing here and is
    looked up by that copy."""
    try:
        hasher = _prefixes.get(key)
    except (TypeError, ValueError):
        return None
    if hasher is None:
        return None
    key = (hasher._state, hasher._buffer + message)
    found = _digests.get(key) if batch is None else batch._lookup(key)
    if found is not None:
        _memo_counts["tag_hits"] += 1
    return found


def finalize_all(hashers, size: int = DIGEST_SIZE) -> list[bytes]:
    """``[hasher.digest(size) for hasher in hashers]`` (a sequence),
    with the same memo lookups, stores, clears and counts, and with
    the memo's misses and the unmemoized digests of equal padded
    length permuted together."""
    if not 0 <= size <= DIGEST_SIZE:
        raise ValueError(f"digest size must be 0..{DIGEST_SIZE}: {size}")
    batch = Batch()
    for hasher in hashers:
        batch.add(hasher, size)
    # The first digest() runs the batch.
    return [hasher.digest(size) for hasher in hashers]


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


class SpongeHash:
    """Incremental sponge hash (absorb bytes, squeeze a 128-bit digest)."""

    #: Whether ``digest()`` uses the memo at any size, counting as a
    #: MAC; set on the prefix cache's hashers and so on their copies.
    _keyed = False
    #: The :class:`Batch` this hasher waits on, run at ``digest()``.
    _batch: Batch | None = None

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

    def copy(self, tail: bytes = b"") -> "SpongeHash":
        """An independent hasher in this one's exact state.  This one
        absorbs what it buffered first, so its copies share that work.
        ``tail`` (a ``bytes`` of fewer than ``MEMO_MIN_BYTES - RATE``)
        is left unabsorbed on the copy: its digest is the one after
        ``update(tail)``, and :func:`finalize_all` permutes all of it
        with the copy's padding."""
        self._absorb_blocks(self._buffer)
        clone = SpongeHash.__new__(SpongeHash)
        # Every field is immutable, so sharing them is a full copy.
        clone.__dict__.update(self.__dict__)
        clone._buffer += tail
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
        if self._batch is not None:
            self._batch.run()
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
