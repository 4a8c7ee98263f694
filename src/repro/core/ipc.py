"""Inter-process communication models (paper Sec. 4.2, Fig. 6).

Two layers, mirroring the paper:

* **Untrusted IPC** (:class:`MessageQueue`) — the
  RPC-style convention used between the OS and trustlets: jump to
  the receiver's ``call()`` entry with ``(type, msg, sender)`` in
  registers.  The asm-level implementation lives in
  :mod:`repro.sw.trustlets`; the classes here model the OS-side queue
  bookkeeping for host-level experiments.

* **Trusted IPC** (:class:`TrustedEndpoint`) — the one-round handshake
  establishing a local trusted channel between two trustlets:

  1. the initiator locally attests the responder (Trustlet Table
     lookup, verifyMPU, code measurement — :mod:`repro.core.attestation`),
  2. ``syn(A, B, NA)``,
  3. the responder attests the initiator and answers
     ``ack(A, B, NA, NB)``,
  4. both derive ``tk_AB = hash(A, B, NA, NB)`` and authenticate all
     further messages with it.

  Authenticated messages carry a monotonic counter, giving replay
  protection on top of the paper's token scheme.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.attestation import InspectionReport, LocalAttestation
from repro.crypto import NonceSource, constant_time_equal, mac, session_token
from repro.errors import IpcError

# ---------------------------------------------------------------------
# Untrusted IPC.

CALL_TYPE_SIGNAL = 1
CALL_TYPE_DATA = 2
CALL_TYPE_SYN = 3
CALL_TYPE_ACK = 4


class MessageQueue:
    """A bounded message buffer as kept in a trustlet's data region."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise IpcError("queue capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque()
        self.dropped = 0

    def enqueue(self, message) -> bool:
        """Add a message; drops (and counts) when full, like the ring."""
        if len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(message)
        return True

    def dequeue(self):
        if not self._items:
            raise IpcError("queue empty")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


# ---------------------------------------------------------------------
# Trusted IPC.


@dataclass(frozen=True)
class Syn:
    """First handshake message: syn(A, B, NA)."""

    initiator: str
    responder: str
    nonce_a: bytes


@dataclass(frozen=True)
class Ack:
    """Second handshake message: ack(A, B, NA, NB)."""

    initiator: str
    responder: str
    nonce_a: bytes
    nonce_b: bytes


@dataclass(frozen=True)
class SealedMessage:
    """An authenticated channel message: payload, counter, tag."""

    payload: bytes
    counter: int
    tag: bytes


class TrustedEndpoint:
    """One trustlet's view of the trusted-channel protocol.

    ``attestation`` is the platform-backed inspector; ``expected``
    optionally maps peer names to reference measurements.  The endpoint
    refuses to hand out nonces for peers that fail local attestation —
    the protocol's only trust anchor (Sec. 4.2.2: "the peers can ensure
    with local attestation that their respective IPC receivers will not
    disclose the nonces").
    """

    def __init__(
        self,
        name: str,
        attestation: LocalAttestation,
        *,
        nonce_source: NonceSource | None = None,
        expected: dict[str, bytes] | None = None,
    ) -> None:
        self.name = name
        self.attestation = attestation
        self.nonces = nonce_source or NonceSource(name.encode("ascii"))
        self.expected = dict(expected or {})
        self.sessions: dict[str, bytes] = {}
        self._pending: dict[str, bytes] = {}
        self._send_counter: dict[str, int] = {}
        self._recv_counter: dict[str, int] = {}
        self.last_report: InspectionReport | None = None

    # ------------------------------------------------------------------

    def _inspect_peer(self, peer: str) -> None:
        report = self.attestation.inspect(peer, self.expected.get(peer))
        self.last_report = report
        if not report.trusted:
            raise IpcError(
                f"{self.name}: local attestation of {peer!r} failed: "
                f"{'; '.join(report.problems) or 'unknown reason'}"
            )

    def initiate(self, responder: str) -> Syn:
        """Attest the responder and emit syn(A, B, NA)."""
        self._inspect_peer(responder)
        nonce_a = self.nonces.next_nonce()
        self._pending[responder] = nonce_a
        return Syn(initiator=self.name, responder=responder, nonce_a=nonce_a)

    def respond(self, syn: Syn) -> Ack:
        """Attest the initiator, establish the session, emit ack()."""
        if syn.responder != self.name:
            raise IpcError(
                f"{self.name}: syn addressed to {syn.responder!r}"
            )
        self._inspect_peer(syn.initiator)
        nonce_b = self.nonces.next_nonce()
        token = session_token(
            syn.initiator.encode("ascii"),
            syn.responder.encode("ascii"),
            syn.nonce_a,
            nonce_b,
        )
        self._install_session(syn.initiator, token)
        return Ack(
            initiator=syn.initiator,
            responder=syn.responder,
            nonce_a=syn.nonce_a,
            nonce_b=nonce_b,
        )

    def finalize(self, ack: Ack) -> bytes:
        """Initiator-side: validate the ack and derive the token."""
        if ack.initiator != self.name:
            raise IpcError(f"{self.name}: ack for {ack.initiator!r}")
        pending = self._pending.pop(ack.responder, None)
        if pending is None:
            raise IpcError(
                f"{self.name}: no handshake pending with {ack.responder!r}"
            )
        if not constant_time_equal(pending, ack.nonce_a):
            raise IpcError(f"{self.name}: ack returned a foreign nonce")
        token = session_token(
            ack.initiator.encode("ascii"),
            ack.responder.encode("ascii"),
            ack.nonce_a,
            ack.nonce_b,
        )
        self._install_session(ack.responder, token)
        return token

    def _install_session(self, peer: str, token: bytes) -> None:
        self.sessions[peer] = token
        self._send_counter[peer] = 0
        self._recv_counter[peer] = 0

    # ------------------------------------------------------------------

    def _token(self, peer: str) -> bytes:
        try:
            return self.sessions[peer]
        except KeyError:
            raise IpcError(
                f"{self.name}: no trusted channel with {peer!r}"
            ) from None

    @staticmethod
    def _tag(token: bytes, direction: bytes, counter: int, payload: bytes) \
            -> bytes:
        material = direction + counter.to_bytes(8, "little") + payload
        return mac(token, material)

    def seal(self, peer: str, payload: bytes) -> SealedMessage:
        """Authenticate a message for ``peer`` on the established channel."""
        token = self._token(peer)
        counter = self._send_counter[peer]
        self._send_counter[peer] = counter + 1
        direction = f"{self.name}->{peer}".encode("ascii")
        return SealedMessage(
            payload=payload,
            counter=counter,
            tag=self._tag(token, direction, counter, payload),
        )

    def open(self, peer: str, message: SealedMessage) -> bytes:
        """Verify tag and replay counter; returns the payload."""
        token = self._token(peer)
        direction = f"{peer}->{self.name}".encode("ascii")
        expected = self._tag(token, direction, message.counter, message.payload)
        if not constant_time_equal(expected, message.tag):
            raise IpcError(f"{self.name}: bad tag on message from {peer!r}")
        if message.counter < self._recv_counter[peer]:
            raise IpcError(f"{self.name}: replayed message from {peer!r}")
        self._recv_counter[peer] = message.counter + 1
        return message.payload


def establish_channel(a: TrustedEndpoint, b: TrustedEndpoint) -> bytes:
    """Run the full one-round handshake between two endpoints."""
    syn = a.initiate(b.name)
    ack = b.respond(syn)
    token = a.finalize(ack)
    if token != b.sessions[a.name]:
        raise IpcError("token derivation mismatch")  # pragma: no cover
    return token
