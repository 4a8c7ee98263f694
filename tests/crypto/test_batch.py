"""Batched finalization equals the sequential calls it replaces.

The packed sponge kernel permutes k states at a 192-bit stride in one
pass; :func:`~repro.crypto.sponge.finalize_all`, ``macs`` and
``next_nonces`` batch finalizations over it.  Each must equal the
one-at-a-time calls exactly: the same digests, and for
``finalize_all`` and ``macs`` the same memo lookups, stores, clears
and counts.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import mac, macs, next_nonces, sponge
from repro.crypto.sponge import (
    DIGEST_SIZE,
    MEMO_MIN_BYTES,
    RATE,
    SpongeHash,
    finalize_all,
    memo_stats,
    prefixed,
)
from repro.crypto.tokens import NonceSource

from .test_sponge import CYCLE
from .test_sponge_memo import isolated_memo

ALL_ONES = b"\xff" * 32


def pack(values: list[int]) -> int:
    """One lane int per state, packed at a 192-bit stride."""
    return sum(value << 192 * i for i, value in enumerate(values))


def unpack(value: int, k: int) -> list[int]:
    return [(value >> 192 * i) & ((1 << 192) - 1) for i in range(k)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2**32))
def test_wide_kernel_equals_single_state_calls(k, blocks, seed):
    """All-ones states and words carry out of every lane of every add,
    so every guard bit is driven; the packed pass still equals k
    single-state passes."""
    rng = random.Random(seed)
    states = [ALL_ONES if rng.random() < 0.3 else rng.randbytes(32)
              for _ in range(k)]
    words = [
        [(0xFFFF_FFFF, 0xFFFF_FFFF) if rng.random() < 0.3
         else (rng.getrandbits(32), rng.getrandbits(32))
         for _ in range(blocks)]
        for _ in range(k)
    ]
    singles = [sponge._absorb(sponge._lanes(state), words[i])
               for i, state in enumerate(states)]
    lanes = [sponge._lanes(state) for state in states]
    packed_state = tuple(pack([lane[j] for lane in lanes]) for j in range(4))
    packed_blocks = [
        (pack([words[i][b][0] for i in range(k)]),
         pack([words[i][b][1] for i in range(k)]))
        for b in range(blocks)
    ]
    wide = sponge._absorb(packed_state, packed_blocks, *sponge._wide(k))
    assert [tuple(unpack(lane, k)[i] for lane in wide)
            for i in range(k)] == [tuple(single) for single in singles]


#: Lengths across a block, MEMO_MIN_BYTES and the 2 KiB test bound
#: (past which update() absorbs as data arrives).
LENGTHS = [0, 1, RATE - 1, RATE, 40, MEMO_MIN_BYTES - 1, MEMO_MIN_BYTES,
           700, 2100]
BOUND = 2048

#: One hasher of a batch: keyed or plain, the length and offset of its
#: input into CYCLE, and whether it is finalized before the batch (at
#: which size).
HASHERS = st.tuples(
    st.booleans(),
    st.sampled_from(LENGTHS),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([None, 0, 8, 16]),
)


def build(spec, keys):
    hashers = []
    for keyed, length, offset, early in spec:
        data = CYCLE[offset:offset + length]
        hasher = prefixed(keys[offset % 2]) if keyed else SpongeHash()
        hasher.update(data)
        if early is not None:
            hasher.digest(early)
        hashers.append(hasher)
    # The same hasher twice, as sequential calls may also see it.
    if hashers:
        hashers.append(hashers[0])
    return hashers


def world(spec, size, batched):
    keys = [CYCLE[:12], CYCLE[5:21]]
    with isolated_memo(max_bytes=BOUND, max_prefixes=2):
        # A warm memo, so hits come from before the batch as well.
        sponge.sponge_hash(CYCLE[:MEMO_MIN_BYTES])
        mac(keys[0], CYCLE[:40])
        hashers = build(spec, keys)
        if batched:
            digests = finalize_all(hashers, size)
        else:
            digests = [hasher.digest(size) for hasher in hashers]
        return (digests, memo_stats(), list(sponge._digests.items()),
                [hasher._finalized for hasher in hashers])


@settings(max_examples=80, deadline=None)
@given(st.lists(HASHERS, max_size=24),
       st.integers(min_value=0, max_value=DIGEST_SIZE))
def test_finalize_all_equals_sequential_digests(spec, size):
    """Plain and keyed hashers, duplicate inputs, already finalized
    hashers and a bound the batch's stores cross: digests, counts,
    retained bytes and the memo's entries (in order) all match."""
    assert world(spec, size, True) == world(spec, size, False)


def test_finalize_all_crosses_the_bound():
    """Stores that pass MEMO_MAX_BYTES mid-batch clear the memo where
    the sequential run does: later duplicates miss again."""
    entry = 300 + sponge.MEMO_ENTRY_BYTES
    spec = [(False, 300, 0, None), (False, 300, 1, None),
            (False, 300, 2, None), (False, 300, 0, None)]

    def run(batched):
        with isolated_memo(max_bytes=2 * entry + 10):
            hashers = [SpongeHash().update(CYCLE[o:o + n])
                       for _, n, o, _ in spec]
            digests = (finalize_all(hashers) if batched
                       else [h.digest() for h in hashers])
            return digests, memo_stats(), list(sponge._digests)

    batched, sequential = run(True), run(False)
    assert batched == sequential
    assert (batched[1]["hits"], batched[1]["misses"]) == (0, 4)


def test_finalize_all_rejects_a_bad_size():
    with pytest.raises(ValueError):
        finalize_all([SpongeHash()], DIGEST_SIZE + 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.sampled_from([0, 3, 20, 116, 260, 2100])),
                max_size=20))
def test_macs_equal_macs_one_at_a_time(pairs):
    """Repeated pairs, more keys than the prefix cache holds and
    messages that cross the bound: tags and every count match."""
    keys = [CYCLE[:12], CYCLE[5:21], CYCLE[:300], b""]
    pairs = [(keys[k], CYCLE[k:k + n]) for k, n in pairs]

    def run(batched):
        with isolated_memo(max_bytes=BOUND, max_prefixes=2):
            mac(keys[1], CYCLE[1:21])
            tags = (macs(pairs) if batched
                    else [mac(key, message) for key, message in pairs])
            return tags, memo_stats(), list(sponge._digests.items())

    assert run(True) == run(False)


def test_next_nonces_equal_next_nonce():
    seeds = [b"", b"seed", CYCLE[:15], CYCLE[:300], 7, "text"]
    batched = [NonceSource(seed) for seed in seeds]
    single = [NonceSource(seed) for seed in seeds]
    for _ in range(3):
        assert next_nonces(batched + batched[:2]) == \
            [source.next_nonce() for source in single + single[:2]]


def test_a_chunk_of_quote_macs_equals_single_macs():
    """64 quote-sized MACs in one pass give the tags that k=1 gives."""
    key = CYCLE[:16]
    messages = [CYCLE[i:i + 116] for i in range(64)]
    with isolated_memo():
        tags = macs([(key, message) for message in messages])
    with isolated_memo():
        assert tags == [mac(key, message) for message in messages]
    assert all(len(tag) == DIGEST_SIZE for tag in tags)
