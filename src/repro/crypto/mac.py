"""Keyed MAC on top of the sponge hash.

A sponge with the key absorbed first is a secure MAC construction for
sponge hashes (no length-extension issue), so the MAC is simply
``H(len(key) || key || message)``.  Used by the SMART baseline's
attestation routine and the remote-attestation trustlet model.  The
keyed prefix is absorbed once per key and process
(:func:`~repro.crypto.sponge.prefixed`), and every tag enters the
sponge's digest memo, so a verifier recomputing the tag an untampered
device has just computed finds it
(:func:`~repro.crypto.sponge.memoized_tag`) without permuting or
copying; every tag is the same as absorbing all of it per call.
"""

from __future__ import annotations

from repro.crypto.sponge import memoized_tag, prefixed


def mac(key: bytes, message: bytes) -> bytes:
    """128-bit authentication tag over ``message`` under ``key``."""
    # ``bytes + bytes-like`` is a ``bytes`` (``key`` itself if it is
    # one): a cache key never aliases a caller's buffer.
    return memoized_tag(key, message) or \
        prefixed(b"" + key).update(message).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
