"""Nonces and trusted-IPC session tokens.

The paper's one-round handshake (Sec. 4.2.2) derives
``tk_{A,B} = hash(A, B, NA, NB)`` once both peers have attested each
other.  Nonce generation in the simulator is deterministic (a counter
fed through the sponge) so that every experiment is reproducible; a
real device would use a hardware entropy source.
"""

from __future__ import annotations

from repro.crypto.sponge import SpongeHash, finalize_all, sponge_hash

NONCE_SIZE = 8


class NonceSource:
    """Deterministic nonce generator, unique per (seed, counter).

    ``seed`` may be raw bytes, or an ``int``/``str`` convenience form
    (encoded to a canonical byte string) so callers can thread one
    integer ``--seed`` through every nonce stream in an experiment.
    """

    def __init__(
        self, seed: bytes | str | int = b"trustlite-nonce-seed"
    ) -> None:
        if isinstance(seed, int):
            seed = f"int:{seed}".encode("ascii")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._seed = bytes(seed)
        self._counter = 0
        # The seed is absorbed once; each nonce resumes from a copy.
        self._base = SpongeHash().update(self._seed)

    def _next_copy(self) -> SpongeHash:
        """A copy of the seed hasher with the next counter left
        unabsorbed."""
        self._counter += 1
        return self._base.copy(self._counter.to_bytes(8, "little"))

    def next_nonce(self) -> bytes:
        """Fresh 8-byte nonce, never repeated for this source:
        ``H(seed || counter)``."""
        return self._next_copy().digest(NONCE_SIZE)


def next_nonces(sources) -> list[bytes]:
    """``[source.next_nonce() for source in sources]``, permuted
    together: each copy leaves its counter unabsorbed for
    :func:`~repro.crypto.sponge.finalize_all`."""
    return finalize_all(
        [source._next_copy() for source in sources], NONCE_SIZE
    )


def session_token(
    initiator: bytes, responder: bytes, nonce_a: bytes, nonce_b: bytes
) -> bytes:
    """Derive ``tk_{A,B} = hash(A, B, NA, NB)`` for a trusted channel.

    Fields are length-prefixed before hashing so that distinct
    (identifier, nonce) tuples can never collide by concatenation.
    """
    material = bytearray()
    for field in (initiator, responder, nonce_a, nonce_b):
        material += len(field).to_bytes(2, "little")
        material += field
    return sponge_hash(bytes(material))
