"""The fleet verifier: batched challenges, one device loop, verdicts.

One attestation *round* draws every pending device's nonce, challenges
each device, then, 64 devices at a time, computes their expected
quotes together and steps their endpoints in turn (sorted device
order, one thread); last it collects responses off the transport and
classifies each device:

* ``healthy``      — quote matches the expected fleet quote;
* ``compromised``  — a quote arrived but the MAC is wrong (live code
  measurement diverged from the golden image, or wrong key);
* ``unresponsive`` — no quote arrived within ``timeout_cycles``, even
  after ``max_retries`` re-challenges (lost messages, dead device).

The clock is simulated: each attempt advances ``now`` by the timeout
window, and per-device round latency (challenge link delay + quote
computation + response link delay, in cycles) lands in the
``fleet_round_latency_cycles`` histogram.  All verdicts are a pure
function of (devices, transport seed, nonce seed): nonces and link
faults come from per-device streams, and device turns run in a fixed
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import constant_time_equal, mac, macs
from repro.crypto.tokens import NonceSource, next_nonces
from repro.errors import FleetError
from repro.fleet.device import FleetDevice, quote_material
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.transport import CHALLENGE, InProcessTransport, Message

#: Devices whose expected tags the verifier computes together, just
#: before they answer (the service's chunk of schedule arrivals, too):
#: the sponge kernel gains little past 64 packed states, and 64 tags
#: charge the 256 KiB digest memo about 19 KB.
PREFETCH_DEVICES = 64

HEALTHY = "healthy"
COMPROMISED = "compromised"
UNRESPONSIVE = "unresponsive"


@dataclass
class DeviceVerdict:
    """Outcome of one device in one round."""

    device_id: int
    status: str
    attempts: int
    latency_cycles: int | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "attempts": self.attempts,
            "latency_cycles": self.latency_cycles,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class _Outstanding:
    """A challenge the verifier is waiting on."""

    nonce: bytes
    seq: int
    sent_at: int


class FleetVerifier:
    """Asynchronous challenge-response verifier over a device fleet."""

    def __init__(
        self,
        devices: dict[int, FleetDevice],
        transport: InProcessTransport,
        device_keys: dict[int, bytes],
        expected_rows: list[tuple[int, bytes]],
        *,
        seed: int = 0,
        timeout_cycles: int = 8192,
        max_retries: int = 2,
        backoff: float = 1.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if set(devices) != set(device_keys):
            raise FleetError("devices and device_keys disagree on ids")
        if timeout_cycles <= 0:
            raise FleetError("timeout_cycles must be positive")
        if max_retries < 0:
            raise FleetError(f"max_retries must be >= 0: {max_retries}")
        if backoff <= 0:
            raise FleetError(f"backoff must be positive: {backoff}")
        self.devices = devices
        self.transport = transport
        self._keys = {i: bytes(k) for i, k in device_keys.items()}
        self.expected_rows = list(expected_rows)
        self.timeout_cycles = timeout_cycles
        self.max_retries = max_retries
        self.backoff = backoff
        self.metrics = metrics or MetricsRegistry()
        self.now = 0
        self._seq: dict[int, int] = {i: 0 for i in devices}
        self._nonces = {
            i: NonceSource(f"fleet-nonce:{seed}:{i}") for i in sorted(devices)
        }
        for device_id in sorted(devices):
            transport.register(device_id)

    # ------------------------------------------------------------------

    def _expected_pair(self, device_id: int, nonce: bytes, seq: int):
        """``(key, material)`` of the quote an untampered device must
        return."""
        return self._keys[device_id], quote_material(
            nonce, seq, device_id, self.expected_rows
        )

    def expected_quote(self, device_id: int, nonce: bytes, seq: int) -> bytes:
        """The quote an untampered device must return."""
        return mac(*self._expected_pair(device_id, nonce, seq))

    def _challenge(self, device_id: int, nonce: bytes) -> _Outstanding:
        self._seq[device_id] += 1
        seq = self._seq[device_id]
        self.transport.send(
            Message(
                kind=CHALLENGE,
                device_id=device_id,
                seq=seq,
                sent_at=self.now,
                deliver_at=self.now,
                nonce=nonce,
            )
        )
        self.metrics.counter("fleet_challenges_sent").inc()
        return _Outstanding(nonce=nonce, seq=seq, sent_at=self.now)

    def _judge(
        self,
        device_id: int,
        outstanding: _Outstanding,
        attempts: int,
        horizon: int,
    ) -> DeviceVerdict | None:
        """Scan this attempt's inbox; ``None`` if no usable response."""
        verdict: DeviceVerdict | None = None
        for response in self.transport.poll("verifier", device_id, horizon):
            if response.seq != outstanding.seq:
                self.metrics.counter("fleet_stale_responses").inc()
                continue
            expected = self.expected_quote(
                device_id, outstanding.nonce, outstanding.seq
            )
            latency = response.deliver_at - outstanding.sent_at
            if constant_time_equal(response.quote, expected):
                self.metrics.counter("fleet_quotes_verified").inc()
                self.metrics.histogram(
                    "fleet_round_latency_cycles"
                ).observe(latency)
                verdict = DeviceVerdict(
                    device_id, HEALTHY, attempts, latency
                )
            else:
                self.metrics.counter("fleet_quotes_rejected").inc()
                verdict = DeviceVerdict(
                    device_id, COMPROMISED, attempts, latency,
                    reason="quote MAC mismatch",
                )
        return verdict

    def run_round(self) -> dict[int, DeviceVerdict]:
        """Attest the whole fleet once; one verdict per device."""
        verdicts: dict[int, DeviceVerdict] = {}
        pending = sorted(self.devices)
        attempts = 0
        while pending and attempts <= self.max_retries:
            attempts += 1
            nonces = next_nonces([self._nonces[i] for i in pending])
            outstanding = {
                device_id: self._challenge(device_id, nonce)
                for device_id, nonce in zip(pending, nonces)
            }
            # Deterministic exponential backoff in *simulated* cycles:
            # attempt k waits timeout_cycles * backoff^(k-1).  With the
            # default backoff=1.0 every attempt waits one timeout.
            window = max(
                1, int(self.timeout_cycles * self.backoff ** (attempts - 1))
            )
            horizon = self.now + window
            for start in range(0, len(pending), PREFETCH_DEVICES):
                chunk = pending[start:start + PREFETCH_DEVICES]
                # The expected tags enter the digest memo together, so
                # an untampered device's quote and its judgement hit.
                macs([
                    self._expected_pair(
                        i, outstanding[i].nonce, outstanding[i].seq
                    )
                    for i in chunk
                ])
                for device_id in chunk:
                    errors = self.devices[device_id].answer(
                        self.transport, horizon
                    )
                    if errors:
                        self.metrics.counter("fleet_device_errors").inc(
                            errors
                        )
            still_pending = []
            for device_id in pending:
                verdict = self._judge(
                    device_id, outstanding[device_id], attempts, horizon
                )
                if verdict is None:
                    still_pending.append(device_id)
                else:
                    verdicts[device_id] = verdict
            pending = still_pending
            if pending and attempts <= self.max_retries:
                # Only count re-challenges that will actually happen;
                # devices dropping out after the last attempt are
                # timeouts, not retries.
                self.metrics.counter("fleet_retries").inc(len(pending))
            self.now = horizon
        for device_id in pending:
            self.metrics.counter("fleet_timeouts").inc()
            verdicts[device_id] = DeviceVerdict(
                device_id, UNRESPONSIVE, attempts,
                reason=f"no response after {attempts} attempt(s)",
            )
        self.metrics.counter("fleet_rounds").inc()
        return verdicts
