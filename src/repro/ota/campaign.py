"""Staged OTA update campaigns with health gates and auto-rollback.

``run_campaign`` is the one-call entry point behind
``python -m repro ota``:

1. boot **one** golden platform and snapshot it (the fleet's shared
   :func:`~repro.fleet.parallel.golden_boot`), and sign two TLFW
   containers (:func:`sign_containers`) — the fleet's current firmware
   (v1) and the update (v2, same layout with a different OS timer
   program);
2. split the fleet into **waves** — canary → cohort → fleet — and for
   each wave push the v2 container to every device: hydrate the clone
   from the golden snapshot, establish the v1 baseline with a signed
   boot plus commit (so the rollback floor is real), stream the
   container over the lossy transport in digest-checked chunks with
   :class:`~repro.fleet.executor.RetryPolicy` retry/backoff, boot the
   assembled container through the full verification chain, and
   re-attest the device against the container's signed measurements;
3. promote to the next wave only when the wave's health gate passes
   (every device verified on the new version); on failure,
   deterministically roll back **every** device that reached the new
   version — allowed because the floor only advances on commit — and
   stop the campaign.

Every per-device update is a pure function of its plain-data task
(the frozen :class:`OtaConfig` plus the device's id, key and action),
so waves run on the self-healing executor: worker crashes and pool
rebuilds are recovered (and recorded under ``execution.recovery``)
without changing one byte of the report payload.  The ``repro.ota/1``
report is byte-identical across runs, worker counts and crash-recovery
paths; only the trailing ``execution`` section mentions how it was
produced.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.platform import TrustLitePlatform
from repro.core.trustlet_table import name_tag
from repro.crypto import sponge_hash
from repro.crypto.sponge import memo_stats
from repro.errors import FleetError, ReproError
from repro.fleet.device import FleetDevice
from repro.fleet.executor import RecoveryLog, RetryPolicy, run_resilient
from repro.fleet.parallel import (
    _maybe_crash_for_test,
    attestation_image,
    empty_memo_stats,
    fold_memo_stats,
    golden_boot,
    hydrate_devices,
)
from repro.fleet.service import _recovery_lines, device_key
from repro.fleet.transport import (
    ACK,
    CHUNK,
    InProcessTransport,
    LinkParameters,
    Message,
)
from repro.fleet.verifier import HEALTHY, FleetVerifier
from repro.ota.container import (
    FirmwareContainer,
    build_container,
    decode_container,
    demo_trust_root,
    encode_container,
)

SCHEMA = "repro.ota/1"

#: Device verdicts a wave can produce.  ``updated`` is the only one
#: that passes the health gate; everything else names which stage of
#: the update pipeline refused, so the report says *why* a wave failed.
UPDATED = "updated"
VERIFY_FAILED = "verify_failed"
TRANSFER_FAILED = "transfer_failed"
ROLLED_BACK = "rolled_back"
ROLLBACK_FAILED = "rollback_failed"

#: OS timer period of the v2 firmware — same module layout as the
#: golden attestation image, different OS code bytes, so the update
#: genuinely changes every measurement the fleet attests against.
V2_TIMER_PERIOD = 3000

_CHUNK_DIGEST_SIZE = 4


def sign_containers(
    seed: int,
) -> tuple[FirmwareContainer, FirmwareContainer, bytes]:
    """v1 (the golden image) and v2 (:data:`V2_TIMER_PERIOD`) signed
    under :func:`~repro.ota.container.demo_trust_root`, plus that trust
    root."""
    root = demo_trust_root(seed)
    v1 = build_container(
        attestation_image(), image_name="attestation", fw_version=1,
        signing_key=root,
    )
    v2 = build_container(
        attestation_image(V2_TIMER_PERIOD),
        image_name="attestation", fw_version=2, signing_key=root,
    )
    return v1, v2, root


@dataclass(frozen=True)
class OtaConfig(LinkParameters):
    """One OTA campaign, fully determined by these fields.

    ``canary``/``cohort`` size the first two waves (``cohort=0`` picks
    a quarter of the remainder); the rest of the fleet is the final
    wave.  ``fail`` forces a failure mode for testing the rollback
    machinery: ``canary`` tampers every canary device's installed code
    so its post-update attestation fails the health gate.
    ``corrupt_chunk`` flips a byte of that chunk index in flight on
    every device's first attempt (-1 = clean links beyond the fault
    model).  ``max_attempts``/``backoff_cycles`` feed the fleet
    :class:`~repro.fleet.executor.RetryPolicy` that governs both chunk
    retries and worker-crash recovery — one backoff implementation.
    """

    devices: int = 6
    seed: int = 0
    canary: int = 1
    cohort: int = 0
    chunk_size: int = 1024
    drop_rate: float = 0.0
    delay_min: int = 0
    delay_max: int = 256
    timeout_cycles: int = 8192
    max_attempts: int = 3
    backoff_cycles: int = 4096
    fail: str = "none"
    corrupt_chunk: int = -1

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise FleetError("campaign needs at least one device")
        if not 1 <= self.canary <= self.devices:
            raise FleetError(
                f"canary wave must be 1..{self.devices}: {self.canary}"
            )
        if self.cohort < 0 or self.canary + self.cohort > self.devices:
            raise FleetError(
                f"cohort of {self.cohort} does not fit "
                f"{self.devices} device(s) after {self.canary} canary"
            )
        if self.chunk_size < 1:
            raise FleetError(
                f"chunk_size must be >= 1: {self.chunk_size}"
            )
        if self.timeout_cycles <= 0:
            raise FleetError(
                f"timeout_cycles must be positive: {self.timeout_cycles}"
            )
        if self.max_attempts < 1:
            raise FleetError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.backoff_cycles < 0:
            raise FleetError(
                f"backoff_cycles must be >= 0: {self.backoff_cycles}"
            )
        if self.fail not in ("none", "canary"):
            raise FleetError(
                f"fail must be 'none' or 'canary': {self.fail!r}"
            )
        self.fault_model()


def _retry_policy(config: OtaConfig) -> RetryPolicy:
    """The fleet retry policy for chunk retries and worker recovery."""
    return RetryPolicy(
        max_attempts=config.max_attempts,
        backoff_cycles=config.backoff_cycles,
    )


@dataclass(frozen=True)
class DeviceUpdateTask:
    """Everything one device's update needs, as plain picklable data.

    ``action`` is ``update`` (push v2, re-attest) or ``rollback``
    (replay the update deterministically, then signed-boot back to v1
    and re-attest the old measurements).  ``tamper`` re-creates the
    forced post-install compromise on the replay so rollback heals
    exactly the state the failed update left behind.  ``key`` is the
    device key, derived once by the coordinator.
    """

    device_id: int
    config: OtaConfig
    snapshot_blob: bytes
    container_v1: bytes
    container_v2: bytes
    trust_root: bytes
    key: bytes
    tamper: bool
    action: str
    crash_index: int = -1


def _transfer_chunks(
    task: DeviceUpdateTask, stats: dict
) -> bytes | None:
    """Stream the v2 container to the device in digest-checked chunks.

    The sender stamps each chunk with a 4-byte digest; the device
    endpoint refuses any chunk whose payload hashes differently
    (corruption in flight is *detected*, never silently installed) and
    acks good receipts.  Lost or refused chunks are retried up to
    :class:`~repro.fleet.executor.RetryPolicy` bounds with the
    executor's own deterministic simulated-cycle backoff formula —
    ``backoff_cycles * 2**(attempt-1)`` — so OTA transfer and worker
    recovery share one backoff implementation.  Returns the assembled
    container bytes, or ``None`` when a chunk exhausts its attempts.
    """
    config = task.config
    policy = _retry_policy(config)
    transport = InProcessTransport(
        seed=f"ota-chunk:{config.seed}",
        fault_model=config.fault_model(),
    )
    transport.register(task.device_id)
    blob = task.container_v2
    chunks = [
        blob[start:start + config.chunk_size]
        for start in range(0, len(blob), config.chunk_size)
    ]
    received: dict[int, bytes] = {}
    now = 0
    stats["chunks"] = len(chunks)
    for index, chunk in enumerate(chunks):
        digest = sponge_hash(chunk)[:_CHUNK_DIGEST_SIZE]
        delivered = False
        for attempt in range(1, policy.max_attempts + 1):
            wire = chunk
            if config.corrupt_chunk == index and attempt == 1:
                # In-flight corruption: the payload is damaged but the
                # digest still describes the real chunk, so the device
                # must notice and refuse.
                wire = bytes((chunk[0] ^ 0xFF,)) + chunk[1:]
            transport.send(
                Message(
                    kind=CHUNK,
                    device_id=task.device_id,
                    seq=index,
                    sent_at=now,
                    deliver_at=now,
                    nonce=digest,
                    payload=wire,
                )
            )
            horizon = now + config.timeout_cycles
            # Device endpoint turn: integrity-check and ack everything
            # delivered inside this attempt's window.
            for message in transport.poll(
                "device", task.device_id, horizon
            ):
                ok = (
                    sponge_hash(message.payload)[:_CHUNK_DIGEST_SIZE]
                    == message.nonce
                )
                if ok:
                    received[message.seq] = message.payload
                else:
                    stats["corrupt_detected"] += 1
                transport.send(
                    Message(
                        kind=ACK,
                        device_id=task.device_id,
                        seq=message.seq,
                        sent_at=message.deliver_at,
                        deliver_at=message.deliver_at,
                        nonce=message.nonce,
                        payload=b"ok" if ok else b"bad",
                    )
                )
            acked = any(
                message.seq == index and message.payload == b"ok"
                for message in transport.poll(
                    "verifier", task.device_id, horizon
                )
            )
            if acked and index in received:
                now = horizon
                delivered = True
                break
            if attempt < policy.max_attempts:
                # The executor's rebuild formula.
                backoff = policy.backoff(attempt)
                stats["chunk_retries"] += 1
                stats["backoff_cycles"] += backoff
                now = horizon + backoff
        if not delivered:
            stats["chunk_timeouts"] += 1
            return None
    stats["transfer_cycles"] = now
    return b"".join(received[index] for index in range(len(chunks)))


def _tamper_installed(platform: TrustLitePlatform) -> None:
    """Flip one code byte of the freshly installed firmware.

    The forced-failure hook behind ``fail=canary``: damages the last
    measured module (a trustlet, so the image keeps running) past its
    entry vector, using the *container's* signed code spans — the
    platform runs from a container now, so no ``BuiltImage`` layouts
    exist to consult.
    """
    from repro.core.layout import ENTRY_VECTOR_SIZE

    container = platform.container
    measurement = container.measurements[-1]
    address = measurement.code_base + ENTRY_VECTOR_SIZE + 4
    if address >= measurement.code_end:
        address = measurement.code_base
    original = platform.bus.read_bytes(address, 1)
    platform.soc.prom.load(address, bytes((original[0] ^ 0xFF,)))


def _attest(
    task: DeviceUpdateTask, platform: TrustLitePlatform
) -> dict:
    """Re-attest one device against its running container's rows.

    A clean single-device round of the standard fleet verifier: the
    health gate judges the *firmware*, not the link, so the lossy
    fault model stays on the chunk channel.
    """
    container = platform.container
    rows = [
        (name_tag(m.module), m.digest) for m in container.measurements
    ]
    device = FleetDevice(task.device_id, platform, task.key)
    config = task.config
    transport = InProcessTransport(seed=f"ota-attest:{config.seed}")
    verifier = FleetVerifier(
        {task.device_id: device},
        transport,
        {task.device_id: task.key},
        rows,
        seed=config.seed,
        timeout_cycles=config.timeout_cycles,
    )
    verdict = verifier.run_round()[task.device_id]
    return verdict.to_dict()


def run_device_update(task: DeviceUpdateTask) -> dict:
    """Update (or roll back) one device; pure function of ``task``.

    The pipeline: hydrate → signed-boot v1 + commit (the rollback
    floor is now real) → chunked transfer → decode + full verification
    chain at boot → optional forced tamper → re-attest.  A ``rollback``
    action replays the same pipeline — device state does not persist
    between waves, and replaying a pure function is free — then
    signed-boots the still-legal v1 container and re-attests the old
    measurements.  Every refusal is a typed error folded into the
    verdict; nothing is ever silently accepted.
    """
    _maybe_crash_for_test(task.crash_index)
    platform = hydrate_devices(
        task.snapshot_blob, {task.device_id: task.key}
    )[task.device_id].platform
    platform.boot_signed(task.container_v1, trust_root=task.trust_root)
    platform.commit_firmware()
    result = {
        "device": task.device_id,
        "verdict": UPDATED,
        "fw_version": platform.fw_version,
        "fw_floor": platform.fw_floor,
        "attempts": 1,
        "reason": "",
        "transfer": {
            "chunks": 0,
            "chunk_retries": 0,
            "chunk_timeouts": 0,
            "backoff_cycles": 0,
            "corrupt_detected": 0,
            "transfer_cycles": 0,
        },
    }
    blob = _transfer_chunks(task, result["transfer"])
    if blob is None:
        result["verdict"] = TRANSFER_FAILED
        result["reason"] = "chunk transfer exhausted its retry budget"
        result["fw_version"] = platform.fw_version
        return result
    try:
        container = decode_container(blob)
        platform.boot_signed(container, trust_root=task.trust_root)
    except ReproError as exc:
        result["verdict"] = f"rejected:{type(exc).__name__}"
        result["reason"] = str(exc)
        result["fw_version"] = platform.fw_version
        return result
    if task.tamper:
        _tamper_installed(platform)
    attest = _attest(task, platform)
    result["attempts"] = attest["attempts"]
    if attest["status"] != HEALTHY:
        result["verdict"] = VERIFY_FAILED
        result["reason"] = (
            f"post-update attestation: {attest['status']}"
        )
    result["fw_version"] = platform.fw_version
    result["fw_floor"] = platform.fw_floor
    if task.action == "rollback":
        # The floor never moved past v1 (no commit without a passed
        # gate), so the old signed container is still legal.
        platform.boot_signed(
            task.container_v1, trust_root=task.trust_root
        )
        attest = _attest(task, platform)
        result["verdict"] = (
            ROLLED_BACK if attest["status"] == HEALTHY
            else ROLLBACK_FAILED
        )
        result["reason"] = (
            "" if attest["status"] == HEALTHY
            else f"post-rollback attestation: {attest['status']}"
        )
        result["fw_version"] = platform.fw_version
        result["fw_floor"] = platform.fw_floor
    return result


# ---------------------------------------------------------------------------
# Campaign orchestration.


def _update_counting_memo(task: DeviceUpdateTask) -> dict:
    """:func:`run_device_update`, plus the sponge-memo counts of the
    process that ran it under ``sponge_memo`` (folded into
    ``execution``, never into the report's verdicts)."""
    memo_before = memo_stats()
    result = run_device_update(task)
    result["sponge_memo"] = memo_stats(since=memo_before)
    return result


def _wave_plan(config: OtaConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Cut the fleet into waves; never depends on worker count."""
    cohort = config.cohort
    remainder = config.devices - config.canary
    if cohort == 0:
        cohort = min(remainder, max(1, remainder // 4)) if remainder else 0
    waves = [("canary", tuple(range(config.canary)))]
    if cohort:
        waves.append(
            ("cohort", tuple(range(config.canary, config.canary + cohort)))
        )
    rest = tuple(range(config.canary + cohort, config.devices))
    if rest:
        waves.append(("fleet", rest))
    return waves


def _fold_transfer(total: dict, transfer: dict) -> None:
    for key, value in transfer.items():
        total[key] = total.get(key, 0) + value


def _verdicts(results: dict[int, dict]) -> dict[str, dict]:
    """Per-device report rows, without the id and transfer stats."""
    return {
        str(device_id): {
            key: value
            for key, value in results[device_id].items()
            if key not in ("device", "transfer")
        }
        for device_id in sorted(results)
    }


def run_campaign(
    config: OtaConfig,
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
) -> dict:
    """Run the staged campaign; returns the ``repro.ota/1`` report."""
    snapshot_blob = golden_boot().blob
    container_v1, container_v2, root = sign_containers(config.seed)
    v1_bytes = encode_container(container_v1)
    v2_bytes = encode_container(container_v2)

    policy = policy or _retry_policy(config)
    recovery = RecoveryLog()
    sponge_memo = empty_memo_stats()

    def tasks_for(
        ids: tuple[int, ...], *, tamper_ids: frozenset[int], action: str
    ) -> list[DeviceUpdateTask]:
        return [
            DeviceUpdateTask(
                device_id=device_id,
                config=config,
                snapshot_blob=snapshot_blob,
                container_v1=v1_bytes,
                container_v2=v2_bytes,
                trust_root=root,
                key=device_key(config.seed, device_id),
                tamper=device_id in tamper_ids,
                action=action,
                crash_index=device_id,
            )
            for device_id in ids
        ]

    def run_batch(
        tasks: list[DeviceUpdateTask], label: str
    ) -> dict[int, dict]:
        results: dict[int, dict] = {}

        def collect(_index: int, result: dict) -> None:
            fold_memo_stats(sponge_memo, result.pop("sponge_memo"))
            results[result["device"]] = result

        run_resilient(
            _update_counting_memo,
            tasks,
            workers,
            consume=collect,
            task_ids=[f"{label}:{task.device_id}" for task in tasks],
            policy=policy,
            log=recovery,
        )
        return results

    tampered = frozenset(
        range(config.canary) if config.fail == "canary" else ()
    )
    final_versions = {
        device_id: 1 for device_id in range(config.devices)
    }
    waves_report = []
    rollback_report = {
        "triggered": False,
        "wave": None,
        "devices": [],
        "verdicts": {},
    }
    updated: list[int] = []
    for wave_name, ids in _wave_plan(config):
        results = run_batch(
            tasks_for(ids, tamper_ids=tampered, action="update"),
            f"update:{wave_name}",
        )
        transfer_total: dict = {}
        for device_id in sorted(results):
            _fold_transfer(
                transfer_total, results[device_id]["transfer"]
            )
            final_versions[device_id] = results[device_id]["fw_version"]
        gate = all(
            results[device_id]["verdict"] == UPDATED
            for device_id in ids
        )
        waves_report.append(
            {
                "wave": wave_name,
                "devices": list(ids),
                "verdicts": _verdicts(results),
                "transfer": transfer_total,
                "gate": "pass" if gate else "fail",
            }
        )
        if gate:
            updated.extend(ids)
            continue
        # Health gate failed: deterministically roll back every device
        # that reached the new version — earlier waves included — and
        # stop the campaign.  The floor never advanced past v1, so the
        # old signed container is accepted; a *replay* after a commit
        # would be refused (see the ota_rollback_replay scenario).
        on_v2 = tuple(
            device_id
            for device_id in sorted(
                set(updated)
                | {i for i in ids if final_versions[i] == 2}
            )
        )
        rollback_results = run_batch(
            tasks_for(on_v2, tamper_ids=tampered, action="rollback"),
            "rollback",
        )
        for device_id in sorted(rollback_results):
            final_versions[device_id] = (
                rollback_results[device_id]["fw_version"]
            )
        rollback_report = {
            "triggered": True,
            "wave": wave_name,
            "devices": list(on_v2),
            "verdicts": _verdicts(rollback_results),
        }
        break

    target = container_v2.fw_version
    on_target = sorted(
        device_id
        for device_id, version in final_versions.items()
        if version == target
    )
    ok = (
        not rollback_report["triggered"]
        and len(on_target) == config.devices
    )
    return {
        "schema": SCHEMA,
        "config": asdict(config),
        "container": {
            "image": container_v2.image_name,
            "fw_version": container_v2.fw_version,
            "previous_version": container_v1.fw_version,
            "bytes": len(v2_bytes),
            "signature": container_v2.signature.hex(),
            "measurements": {
                m.module: m.digest.hex()
                for m in container_v2.measurements
            },
        },
        "waves": waves_report,
        "rollback": rollback_report,
        "final_versions": {
            str(device_id): final_versions[device_id]
            for device_id in sorted(final_versions)
        },
        "devices_on_target": on_target,
        "ok": ok,
        "execution": {
            "workers": workers,
            "recovery": recovery.to_dict(),
            "sponge_memo": sponge_memo,
        },
    }


def format_ota_report(report: dict) -> str:
    """Human-readable rendering of a ``run_campaign`` report."""
    lines = []
    config = report["config"]
    container = report["container"]
    lines.append(
        f"ota: {config['devices']} device(s), seed {config['seed']}, "
        f"{container['image']} v{container['previous_version']} -> "
        f"v{container['fw_version']} ({container['bytes']} bytes)"
    )
    execution = report.get("execution")
    if execution:
        lines.append(f"execution: {execution['workers']} worker(s)")
        lines.extend(_recovery_lines(execution.get("recovery", {})))
    for wave in report["waves"]:
        transfer = wave["transfer"]
        lines.append(
            f"wave {wave['wave']}: devices {wave['devices']}, "
            f"{transfer.get('chunks', 0)} chunk(s), "
            f"{transfer.get('chunk_retries', 0)} retry(ies), "
            f"{transfer.get('corrupt_detected', 0)} corrupt chunk(s) "
            f"detected — gate {wave['gate'].upper()}"
        )
    rollback = report["rollback"]
    if rollback["triggered"]:
        lines.append(
            f"rollback: triggered by wave {rollback['wave']!r}, "
            f"devices {rollback['devices']} returned to "
            f"v{container['previous_version']}"
        )
    else:
        lines.append("rollback: none")
    lines.append(
        f"on target v{container['fw_version']}: "
        f"{report['devices_on_target'] or 'none'}"
    )
    lines.append(f"verdict: {'OK' if report['ok'] else 'ROLLED-BACK'}")
    return "\n".join(lines)
