"""Device-side fleet endpoint: one cloned platform answering challenges.

A :class:`FleetDevice` wraps a booted (usually snapshot-cloned)
TrustLite platform with the attestation protocol endpoint the fleet
verifier talks to.  Unlike :class:`repro.core.attestation.RemoteAttestor`
— which MACs the *load-time* measurements recorded in the Trustlet
Table — a fleet quote re-measures every module's code **live** off the
bus, exactly as Fig. 6's ``attest`` step does, then MACs the digests
together with the challenge nonce, the sequence number and the device
identity.  Post-boot code tampering therefore changes the quote even
though the table still holds the pristine load-time hashes.

The cycle cost of a quote is modelled from the crypto engine's
datapath constant (:data:`~repro.machine.devices.crypto_engine.CYCLES_PER_WORD`
per absorbed word over the measured code plus the MAC material), so
round-trip latencies in fleet metrics are simulated cycles, not wall
clock.
"""

from __future__ import annotations

from repro.core.attestation import measure_code
from repro.core.layout import ENTRY_VECTOR_SIZE
from repro.crypto import mac
from repro.errors import FleetError
from repro.fleet.transport import CHALLENGE, RESPONSE, Message
from repro.machine.devices.crypto_engine import CYCLES_PER_WORD


def quote_material(
    nonce: bytes,
    seq: int,
    device_id: int,
    rows: list[tuple[int, bytes]],
) -> bytes:
    """The byte string a fleet quote MACs (shared with the verifier)."""
    material = bytearray(nonce)
    material += seq.to_bytes(4, "little")
    material += device_id.to_bytes(4, "little")
    for tag, digest in rows:
        material += tag.to_bytes(4, "little")
        material += digest
    return bytes(material)


class FleetDevice:
    """One fleet member: a platform plus its attestation endpoint."""

    def __init__(
        self, device_id: int, platform, key: bytes, *, tracer=None
    ) -> None:
        if not key:
            raise FleetError(f"device {device_id}: empty device key")
        self.device_id = device_id
        self.platform = platform
        self._key = bytes(key)
        self.last_seq = 0
        self.replays_rejected = 0
        self.challenges_answered = 0
        self.tampered_modules: list[str] = []
        # Instructions the guest retired under step_cycles: identical
        # on every engine tier, so fleet reports can express traced
        # instructions as a share of the guest's work.
        self.guest_instructions = 0
        # Optional per-device execution tracer; when attached, its ring
        # buffer health (``dropped``) is surfaced in the fleet metrics.
        self.tracer = tracer
        if tracer is not None:
            tracer.attach(platform.cpu)

    # ------------------------------------------------------------------

    def compute_quote(self, nonce: bytes, seq: int) -> tuple[bytes, int]:
        """Live quote and its cost in cycles.

        Re-measures every Trustlet Table row's code region through the
        bus and MACs the digests under the device key.
        """
        bus = self.platform.bus
        rows = []
        measured_bytes = 0
        for row in self.platform.table.rows():
            rows.append(
                (row.name_tag,
                 measure_code(bus, row.code_base, row.code_end))
            )
            measured_bytes += row.code_end - row.code_base
        material = quote_material(nonce, seq, self.device_id, rows)
        cycles = CYCLES_PER_WORD * (
            (measured_bytes + len(material) + 3) // 4
        )
        return mac(self._key, material), cycles

    def handle_challenge(self, message: Message) -> Message | None:
        """Answer one challenge; ``None`` for replays/stale retries."""
        if message.kind != CHALLENGE:
            raise FleetError(
                f"device {self.device_id}: cannot handle "
                f"{message.kind!r} message"
            )
        if message.device_id != self.device_id:
            raise FleetError(
                f"device {self.device_id}: challenge addressed to "
                f"{message.device_id}"
            )
        if message.seq <= self.last_seq:
            self.replays_rejected += 1
            return None
        self.last_seq = message.seq
        quote, cycles = self.compute_quote(message.nonce, message.seq)
        self.challenges_answered += 1
        done_at = message.deliver_at + cycles
        return Message(
            kind=RESPONSE,
            device_id=self.device_id,
            seq=message.seq,
            sent_at=done_at,
            deliver_at=done_at,
            quote=quote,
        )

    # ------------------------------------------------------------------

    def step_cycles(self, cycles: int) -> int:
        """Run the guest between rounds (fleet devices keep working)."""
        cpu = self.platform.cpu
        retired = cpu.instructions_retired
        used = self.platform.run(max_cycles=cycles)
        self.guest_instructions += cpu.instructions_retired - retired
        return used

    def tamper_code(self, module: str | None = None) -> str:
        """Flip one code byte post-boot (host-side attack injection).

        Writes through the PROM's hardware programming path, past the
        entry vector so the module keeps running; the Trustlet Table's
        load-time measurement stays pristine, but live re-measurement
        diverges.  Returns the tampered module's name.
        """
        image = self.platform.image
        if image is None:
            raise FleetError(f"device {self.device_id}: not booted")
        if module is None:
            # Prefer a trustlet over the OS (module 0) — tampering a
            # trustlet past its entry vector keeps the image runnable.
            trustlets = image.module_order[1:]
            module = (trustlets or image.module_order)[-1]
        lay = image.layout_of(module)
        address = lay.code_base + ENTRY_VECTOR_SIZE + 4
        if address >= lay.code_end:
            address = lay.code_base
        prom = self.platform.soc.prom
        original = self.platform.bus.read_bytes(address, 1)
        prom.load(address, bytes((original[0] ^ 0xFF,)))
        self.tampered_modules.append(module)
        return module
