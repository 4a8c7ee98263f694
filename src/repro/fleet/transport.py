"""Attestation message transport between the verifier and the fleet.

The wire format is a frozen :class:`Message` carrying a challenge nonce
or a response quote plus a per-device sequence number.  The transport
interface is socket-shaped — ``send()`` one message, ``poll()`` an
endpoint's inbox — so an implementation backed by real sockets can
drop in later; the in-process implementation here keeps one queue per
(endpoint, device) pair.

Time is simulated: each message is stamped ``sent_at`` and becomes
visible to ``poll()`` only once the polling side's clock reaches
``deliver_at``.  A :class:`FaultModel` injects per-link loss and delay
from a per-device ``random.Random`` stream, so a run is bit-for-bit
reproducible for a given seed no matter in which order the devices'
messages interleave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import FleetError

CHALLENGE = "challenge"
RESPONSE = "response"
CHUNK = "chunk"
ACK = "ack"

#: Destination endpoint implied by each message kind: challenges and
#: firmware chunks flow toward the device, responses and chunk acks
#: back toward the verifier/update server.
_KIND_ENDPOINTS = {
    CHALLENGE: "device",
    CHUNK: "device",
    RESPONSE: "verifier",
    ACK: "verifier",
}

_ENDPOINTS = ("device", "verifier")


@dataclass(frozen=True)
class Message:
    """One attestation or update protocol message.

    ``nonce`` is set on challenges (and carries the chunk digest on
    firmware chunks); ``quote`` on responses; ``payload`` on firmware
    chunks and chunk acks.  ``seq`` is the sender-assigned per-device
    sequence number — devices reject anything not strictly newer than
    what they last answered (replay protection), and the verifier
    ignores responses for superseded sequence numbers (stale retries).
    For chunks, ``seq`` is the chunk index.
    """

    kind: str
    device_id: int
    seq: int
    sent_at: int
    deliver_at: int
    nonce: bytes = b""
    quote: bytes = b""
    payload: bytes = b""


@dataclass(frozen=True)
class FaultModel:
    """Per-link loss, latency and outage injection.

    ``drop_rate`` is the probability a message vanishes; surviving
    messages are delayed by a uniform draw from
    ``[delay_min, delay_max]`` cycles.  ``partitions`` is a tuple of
    half-open ``(start, end)`` windows in simulated cycles during
    which the link is *down*: every message whose send time falls in a
    window is eaten deterministically, modelling network partitions
    (one long window) and flapping links (many short windows — see
    :func:`flap_windows`).
    """

    drop_rate: float = 0.0
    delay_min: int = 0
    delay_max: int = 0
    partitions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise FleetError(
                f"drop_rate must be in [0, 1): {self.drop_rate}"
            )
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise FleetError(
                f"bad delay window [{self.delay_min}, {self.delay_max}]"
            )
        for window in self.partitions:
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                raise FleetError(f"bad partition window {window!r}")

    def partitioned(self, now: int) -> bool:
        """Is the link down at simulated time ``now``?"""
        return any(start <= now < end for start, end in self.partitions)

    def roll(self, rng: random.Random) -> tuple[bool, int]:
        """One link traversal: (dropped?, delay in cycles)."""
        dropped = self.drop_rate > 0.0 and rng.random() < self.drop_rate
        delay = rng.randint(self.delay_min, self.delay_max) \
            if self.delay_max else self.delay_min
        return dropped, delay


class LinkParameters:
    """Mixin for run configs with ``drop_rate``/``delay_min``/
    ``delay_max`` fields.  Each config's ``__post_init__`` builds its
    model so bad link parameters fail at construction, not inside a
    worker.
    """

    def fault_model(
        self, partitions: tuple[tuple[int, int], ...] = ()
    ) -> FaultModel:
        """This config's link as a validated :class:`FaultModel`."""
        return FaultModel(
            drop_rate=self.drop_rate,
            delay_min=self.delay_min,
            delay_max=self.delay_max,
            partitions=partitions,
        )


def flap_windows(
    rng: random.Random,
    *,
    horizon: int,
    up_mean: int,
    down_mean: int,
) -> tuple[tuple[int, int], ...]:
    """Deterministic flapping-link schedule over ``[0, horizon)``.

    Alternates up/down periods whose lengths are uniform draws around
    the given means (±50%), all from the caller's seeded ``rng`` — the
    schedule is a pure function of the rng state, so campaigns can
    reproduce a flap pattern byte for byte.
    """
    if horizon <= 0 or up_mean <= 0 or down_mean <= 0:
        raise FleetError("flap schedule needs positive horizon and means")
    windows = []
    now = rng.randint(up_mean // 2, up_mean + up_mean // 2)
    while now < horizon:
        down = max(1, rng.randint(down_mean // 2, down_mean + down_mean // 2))
        windows.append((now, min(now + down, horizon)))
        up = max(1, rng.randint(up_mean // 2, up_mean + up_mean // 2))
        now += down + up
    return tuple(windows)


@dataclass
class TransportStats:
    """Aggregate link statistics (drops are per-link, not per-retry).

    ``partition_dropped`` counts messages eaten by an outage window —
    a subset of ``dropped``, kept separate so campaigns can tell
    random loss from scheduled partitions.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    partition_dropped: int = 0
    in_flight: int = 0

    def to_dict(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "partition_dropped": self.partition_dropped,
            "in_flight": self.in_flight,
        }


class InProcessTransport:
    """Queue-backed transport with per-device fault streams.

    Each device's link gets its own ``random.Random`` seeded from
    ``(seed, device_id)`` — the fault pattern a device experiences is a
    pure function of the seed, independent of how devices interleave.
    """

    def __init__(
        self, *, seed: int = 0, fault_model: FaultModel | None = None
    ) -> None:
        self.fault_model = fault_model or FaultModel()
        self._seed = seed
        self._queues: dict[tuple[str, int], list[Message]] = {}
        self._rngs: dict[int, random.Random] = {}
        self.stats = TransportStats()

    def _rng(self, device_id: int) -> random.Random:
        if device_id not in self._rngs:
            # String seeding hashes with SHA-512 internally: stable
            # across processes, independent of PYTHONHASHSEED.
            self._rngs[device_id] = random.Random(
                f"fleet-link:{self._seed}:{device_id}"
            )
        return self._rngs[device_id]

    def register(self, device_id: int) -> None:
        """Create the device's queues and fault stream up front.

        Every stream is seeded by its own device id, so registration
        order never changes a device's fault pattern.
        """
        self._rng(device_id)
        for endpoint in _ENDPOINTS:
            self._queues.setdefault((endpoint, device_id), [])

    # ------------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Put ``message`` on the wire; returns False if the link ate it.

        The destination endpoint is implied by the message kind:
        challenges and firmware chunks flow toward the device,
        responses and chunk acks back toward the verifier.
        """
        endpoint = _KIND_ENDPOINTS.get(message.kind)
        if endpoint is None:
            raise FleetError(f"unknown message kind {message.kind!r}")
        key = (endpoint, message.device_id)
        if key not in self._queues:
            raise FleetError(f"device {message.device_id} not registered")
        # The fault stream is always advanced, even during an outage:
        # the loss/delay pattern after a partition must not depend on
        # how many messages the partition ate.
        dropped, delay = self.fault_model.roll(self._rng(message.device_id))
        partitioned = self.fault_model.partitioned(message.sent_at)
        dropped = dropped or partitioned
        self.stats.sent += 1
        if dropped:
            self.stats.dropped += 1
            if partitioned:
                self.stats.partition_dropped += 1
        else:
            self.stats.in_flight += 1
        if dropped:
            return False
        delivered = Message(
            kind=message.kind,
            device_id=message.device_id,
            seq=message.seq,
            sent_at=message.sent_at,
            deliver_at=message.sent_at + delay,
            nonce=message.nonce,
            quote=message.quote,
            payload=message.payload,
        )
        queue = self._queues[key]
        queue.append(delivered)
        queue.sort(key=lambda m: (m.deliver_at, m.seq))
        return True

    def poll(self, endpoint: str, device_id: int, now: int) -> list[Message]:
        """Drain every message for ``endpoint`` delivered by ``now``."""
        if endpoint not in _ENDPOINTS:
            raise FleetError(f"unknown endpoint {endpoint!r}")
        queue = self._queues.get((endpoint, device_id), [])
        ready = [m for m in queue if m.deliver_at <= now]
        if ready:
            queue[:] = [m for m in queue if m.deliver_at > now]
            self.stats.delivered += len(ready)
            self.stats.in_flight -= len(ready)
        return ready
