"""Keyed MAC on top of the sponge hash.

A sponge with the key absorbed first is a secure MAC construction for
sponge hashes (no length-extension issue), so the MAC is simply
``H(len(key) || key || message)``.  Used by the SMART baseline's
attestation routine and the remote-attestation trustlet model.  The
keyed prefix is absorbed once per key and process
(:func:`~repro.crypto.sponge.prefixed`), and every tag enters the
sponge's digest memo, so a tag computed earlier in the process over
the same bytes (a verifier's prefetched expected quote, or the quote
an untampered device has just computed) is found
(:func:`~repro.crypto.sponge.memoized_tag`) without permuting or
copying.  :func:`macs` computes many tags at once and permutes the
misses together; every tag is the same as absorbing all of it per
call, and :func:`mac`, its one-pair case, skips the batch.
"""

from __future__ import annotations

from repro.crypto.sponge import Batch, memoized_tag, prefixed


def mac(key: bytes, message: bytes) -> bytes:
    """128-bit authentication tag over ``message`` under ``key``."""
    tag = memoized_tag(key, message)
    if tag is not None:
        return tag
    # ``bytes + bytes-like`` is a ``bytes`` (``key`` itself if it is
    # one): a cache key never aliases a caller's buffer.
    return prefixed(b"" + key).update(message).digest()


def macs(pairs) -> list[bytes]:
    """``[mac(key, message) for key, message in pairs]``, with the same
    cache lookups and counts, and the tags the memo misses permuted
    together (:func:`~repro.crypto.sponge.finalize_all`)."""
    batch = None
    found, hashers = [], []
    for key, message in pairs:
        tag = memoized_tag(key, message, batch)
        if tag is None:
            batch = batch or Batch()
            hasher = prefixed(b"" + key).update(message)
            hashers.append(hasher)
            tag = batch.add(hasher)
        found.append(tag)
    if batch is None:
        return found
    # The first digest() runs the batch.
    for hasher in hashers:
        hasher.digest()
    return [batch.result(tag) for tag in found]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
