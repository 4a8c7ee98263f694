"""Keyed MAC on top of the sponge hash.

A sponge with the key absorbed first is a secure MAC construction for
sponge hashes (no length-extension issue), so the MAC is simply
``H(len(key) || key || message)``.  Used by the SMART baseline's
attestation routine and the remote-attestation trustlet model.  The
keyed prefix is absorbed once per key and process
(:func:`~repro.crypto.sponge.prefixed`); every tag is the same as
absorbing all of it per call.
"""

from __future__ import annotations

from repro.crypto.sponge import prefixed


def mac(key: bytes, message: bytes) -> bytes:
    """128-bit authentication tag over ``message`` under ``key``."""
    # ``bytes + bytes-like`` is a new ``bytes``: the cache key never
    # aliases a caller's buffer.
    prefix = len(key).to_bytes(4, "little") + key
    return prefixed(prefix).update(message).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
