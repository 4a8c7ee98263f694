"""Lightweight cryptographic substrate.

The paper's evaluation mentions the Spongent lightweight hash as the
kind of accelerator a TrustLite SoC would absorb into its base-cost
margin (Sec. 5.2), and the trusted-IPC protocol derives a session token
``hash(A, B, NA, NB)`` (Sec. 4.2.2).  This package provides a
from-scratch sponge-construction hash with Spongent-like parameters
(small state, 128-bit digest), a keyed MAC built on it, and nonce /
session-token utilities.  It backs both the host-side protocol model
and the MMIO crypto accelerator device.

These primitives are simulation stand-ins: they are deterministic,
collision-resistant enough for protocol testing, and are NOT intended
for production cryptographic use.
"""

from repro.crypto.sponge import DIGEST_SIZE, SpongeHash, sponge_hash
from repro.crypto.mac import constant_time_equal, mac, macs
from repro.crypto.tokens import NonceSource, next_nonces, session_token

__all__ = [
    "DIGEST_SIZE",
    "NonceSource",
    "SpongeHash",
    "constant_time_equal",
    "mac",
    "macs",
    "next_nonces",
    "session_token",
    "sponge_hash",
]
