"""Short digests: ``SpongeHash.digest(size)`` with ``size <= RATE``.

Such a read is served by the first squeeze alone and skips the second
permutation.  The bytes must equal the head of the full digest, the
digest memo must keep only full digests, and nonces and key
fingerprints, the two callers that read short digests, must not move.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import sponge
from repro.crypto.sponge import (
    DIGEST_SIZE,
    MEMO_MIN_BYTES,
    RATE,
    SpongeHash,
    sponge_hash,
)
from repro.crypto.tokens import NONCE_SIZE, NonceSource
from repro.ota.container import KEY_ID_SIZE, key_fingerprint


@contextlib.contextmanager
def empty_memos():
    with mock.patch.multiple(
        sponge,
        _digests={},
        _prefixes={},
        _memo_counts=dict.fromkeys(sponge._memo_counts, 0),
    ):
        yield


def _nonce_seed_bytes(seed) -> bytes:
    if isinstance(seed, int):
        return f"int:{seed}".encode("ascii")
    return seed.encode("utf-8") if isinstance(seed, str) else bytes(seed)


@pytest.mark.parametrize("seed", [0, 1, 7, 13, 2**40, "fleet", b"raw-seed", b""])
def test_nonces_equal_the_head_of_the_full_digest(seed):
    source = NonceSource(seed)
    raw = _nonce_seed_bytes(seed)
    for counter in range(1, 201):
        expected = sponge_hash(raw + counter.to_bytes(8, "little"))
        assert source.next_nonce() == expected[:NONCE_SIZE]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64),
       counter=st.integers(min_value=1, max_value=2**63))
def test_nonce_at_any_seed_and_counter(seed, counter):
    source = NonceSource(seed)
    source._counter = counter - 1
    expected = sponge_hash(
        f"int:{seed}".encode("ascii") + counter.to_bytes(8, "little")
    )
    assert source.next_nonce() == expected[:NONCE_SIZE]


@pytest.mark.parametrize("key", [b"k", b"update-key", bytes(range(40))])
def test_key_fingerprint_equals_the_head_of_the_full_digest(key):
    expected = sponge_hash(b"tlfw-key:" + key)[:KEY_ID_SIZE]
    assert key_fingerprint(key) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=600),
       size=st.integers(min_value=0, max_value=DIGEST_SIZE))
def test_every_size_is_a_prefix_of_the_full_digest(data, size):
    with empty_memos():
        assert SpongeHash().update(data).digest(size) == \
            sponge_hash(data)[:size]


@pytest.mark.parametrize("length", [0, 5, RATE, MEMO_MIN_BYTES + 3])
def test_short_then_full_digest_of_one_hasher(length):
    data = bytes(range(256)) * 2
    data = data[:length]
    with empty_memos():
        hasher = SpongeHash().update(data)
        assert hasher.digest(4) == sponge_hash(data)[:4]
        assert hasher.digest() == sponge_hash(data)
        assert hasher.digest(RATE) == sponge_hash(data)[:RATE]
        with pytest.raises(ValueError):
            hasher.update(b"more")


def test_memo_keeps_full_digests_after_short_reads():
    data = bytes(range(256)) * 2 + b"tail"
    with empty_memos():
        assert SpongeHash().update(data).digest(NONCE_SIZE) == \
            sponge_hash(data)[:NONCE_SIZE]
        assert sponge._digests
        assert all(len(d) == DIGEST_SIZE for d in sponge._digests.values())
        assert SpongeHash().update(data).digest() == sponge_hash(data)


@pytest.mark.parametrize("size", [-1, DIGEST_SIZE + 1])
def test_out_of_range_sizes_are_rejected(size):
    with pytest.raises(ValueError):
        SpongeHash().update(b"x").digest(size)
