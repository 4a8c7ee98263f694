"""Seeded fault-injection campaigns over the attestation fleet.

A *campaign* clones the golden snapshot once per scenario, injects one
class of fault, runs fleet attestation against the injected devices
and checks the paper's security invariants:

* **no false negatives** — a device whose code or Trustlet Table was
  tampered with must never attest ``healthy``;
* **no false positives** — an untampered device suffering IRQ or
  transport faults must never be reported ``compromised``; the worst
  allowed outcome is ``unresponsive`` after retries;
* **no silent isolation failures** — a glitched EA-MPU region must
  surface as counted MPU faults or a typed machine error, never as
  silently wrong execution with a clean verdict;
* **no untyped codec failures** — a corrupted snapshot blob must be
  rejected with ``SnapcodecError`` (or survive decoding cleanly),
  never crash with ``IndexError``/``struct.error`` or hang.

Every scenario clones the fleet's shared golden boot
(:func:`~repro.fleet.parallel.golden_boot`) and travels as a
:class:`ScenarioTask` carrying the frozen :class:`CampaignConfig`; the
OTA scenarios sign their containers with
:func:`repro.ota.campaign.sign_containers`, like the OTA campaign.

Everything is derived from one seed through
:class:`~repro.faults.plan.FaultPlan` scopes, and the report contains
no execution metadata at all — the campaign JSON is byte-identical
across runs *and* across worker counts, which is itself asserted by
the test suite.  Exit codes of ``python -m repro faults`` follow the
repo convention: 0 all invariants hold, 1 violations, 2 usage error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.layout import ENTRY_VECTOR_SIZE, TRUSTLET_TABLE_BASE
from repro.core.trustlet_table import HEADER_SIZE, OFF_CODE_END, ROW_SIZE
from repro.errors import FaultError, ReproError, SnapcodecError
from repro.faults.injectors import (
    corrupt_blob,
    flip_memory_bits,
    glitch_mpu_permissions,
    inject_irq_drops,
    inject_irq_storm,
)
from repro.faults.plan import FaultPlan
from repro.fleet.device import FleetDevice
from repro.fleet.executor import RecoveryLog, RetryPolicy, run_resilient
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.parallel import (
    ENGINE_REFERENCE,
    golden_boot,
    hydrate_devices,
)
from repro.fleet.service import device_key
from repro.fleet.transport import (
    FaultModel,
    InProcessTransport,
    flap_windows,
)
from repro.fleet.verifier import COMPROMISED, HEALTHY, FleetVerifier
from repro.machine.snapcodec import decode_snapshot
from repro.machine.soc import SRAM_BASE
from repro.ota.campaign import (
    UPDATED,
    DeviceUpdateTask,
    OtaConfig,
    run_device_update,
    sign_containers,
)
from repro.ota.container import encode_container

SCHEMA = "repro.faults/1"

KIND_TAMPER = "tamper"
KIND_ISOLATION = "isolation"
KIND_STRESS = "stress"
KIND_CODEC = "codec"
KIND_OTA = "ota"


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign, fully determined by these fields."""

    seed: int = 0
    rounds: int = 2
    timeout_cycles: int = 8192
    max_retries: int = 2
    backoff: float = 1.0
    step_cycles: int = 2000
    codec_trials: int = 8

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise FaultError(f"rounds must be >= 1: {self.rounds}")
        if self.timeout_cycles <= 0:
            raise FaultError(
                f"timeout_cycles must be positive: {self.timeout_cycles}"
            )
        if self.max_retries < 1:
            raise FaultError(
                "campaigns need max_retries >= 1 (the transport "
                f"scenarios rely on re-challenges): {self.max_retries}"
            )
        if self.backoff <= 0:
            raise FaultError(f"backoff must be positive: {self.backoff}")
        if self.step_cycles < 0:
            raise FaultError(
                f"step_cycles must be >= 0: {self.step_cycles}"
            )
        if self.codec_trials < 1:
            raise FaultError(
                f"codec_trials must be >= 1: {self.codec_trials}"
            )


@dataclass(frozen=True)
class ScenarioTask:
    """One scenario as plain picklable data (crosses process bounds)."""

    name: str
    config: CampaignConfig
    snapshot_blob: bytes
    expected_rows: tuple[tuple[int, bytes], ...]


# ---------------------------------------------------------------------------
# Scenario plumbing.


def _hydrate(task: ScenarioTask, *device_ids: int) -> dict[int, FleetDevice]:
    """Clone the scenario's devices from the golden blob.

    The clones run on the reference engine.  ``irq_storm`` draws once
    per interrupt poll, which is once per instruction there but once
    per trace batch on the trace engine, so the storm (and with it the
    report) would change with the engine.
    """
    return hydrate_devices(
        task.snapshot_blob,
        {device_id: device_key(task.config.seed, device_id)
         for device_id in device_ids},
        engine=ENGINE_REFERENCE,
    )


def _attest(
    task: ScenarioTask,
    devices: dict[int, FleetDevice],
    *,
    fault_model: FaultModel | None = None,
    step: bool = False,
) -> tuple[list[dict], InProcessTransport, int]:
    """Run the scenario's attestation rounds; returns JSON-ready
    verdict rounds, the transport (for stats) and the count of guest
    errors swallowed while stepping (typed errors only — anything
    untyped propagates and fails the campaign)."""
    config = task.config
    transport = InProcessTransport(
        seed=config.seed, fault_model=fault_model or FaultModel()
    )
    verifier = FleetVerifier(
        devices,
        transport,
        {i: device_key(config.seed, i) for i in devices},
        list(task.expected_rows),
        seed=config.seed,
        timeout_cycles=config.timeout_cycles,
        max_retries=config.max_retries,
        backoff=config.backoff,
        metrics=MetricsRegistry(),
    )
    rounds: list[dict] = []
    guest_errors = 0
    for _ in range(config.rounds):
        verdicts = verifier.run_round()
        rounds.append(
            {
                str(i): verdicts[i].to_dict() for i in sorted(verdicts)
            }
        )
        if step and config.step_cycles:
            for i in sorted(devices):
                try:
                    devices[i].step_cycles(config.step_cycles)
                except ReproError:
                    guest_errors += 1
    return rounds, transport, guest_errors


def _statuses(rounds: list[dict], device_id: int) -> list[str]:
    return [r[str(device_id)]["status"] for r in rounds]


def _check_tamper(
    rounds: list[dict], tampered: int, clean: int
) -> list[str]:
    """Shared invariants of the tamper scenarios."""
    violations = []
    for index, status in enumerate(_statuses(rounds, tampered)):
        if status == HEALTHY:
            violations.append(
                f"tampered device {tampered} attested healthy "
                f"in round {index} (false negative)"
            )
    for index, status in enumerate(_statuses(rounds, clean)):
        if status != HEALTHY:
            violations.append(
                f"clean device {clean} was {status} in round {index}"
            )
    return violations


def _check_no_false_compromise(
    rounds: list[dict], device_ids
) -> list[str]:
    """Shared invariant of the stress scenarios."""
    violations = []
    for device_id in device_ids:
        for index, status in enumerate(_statuses(rounds, device_id)):
            if status == COMPROMISED:
                violations.append(
                    f"untampered device {device_id} reported "
                    f"compromised in round {index} (false positive)"
                )
    return violations


# ---------------------------------------------------------------------------
# The scenario catalogue.


def _scenario_prom_code_flip(task, rng):
    """One bit of a trustlet's PROM code flips post-boot."""
    devices = _hydrate(task, 0, 1)
    tampered = devices[0].platform
    image = tampered.image
    modules = image.module_order[1:] or image.module_order
    module = modules[rng.randrange(len(modules))]
    lay = image.layout_of(module)
    lo = min(lay.code_base + ENTRY_VECTOR_SIZE, lay.code_end - 1)
    records = flip_memory_bits(
        tampered, rng, memory="prom", lo=lo, hi=lay.code_end
    )
    rounds, _, _ = _attest(task, devices)
    detail = {"module": module, "flips": records, "rounds": rounds}
    return detail, _check_tamper(rounds, tampered=0, clean=1)


def _scenario_ram_table_flip(task, rng):
    """One bit of a Trustlet Table row's code-end word flips in SRAM.

    The device now measures the wrong region (quote mismatch) or its
    measurement errors out (silence → retries → unresponsive); either
    way it must never attest healthy.
    """
    devices = _hydrate(task, 0, 1)
    tampered = devices[0].platform
    row = rng.randrange(tampered.table.count)
    offset = (
        (TRUSTLET_TABLE_BASE - SRAM_BASE)
        + HEADER_SIZE + row * ROW_SIZE + OFF_CODE_END
    )
    records = flip_memory_bits(
        tampered, rng, memory="sram", lo=offset, hi=offset + 4
    )
    rounds, _, _ = _attest(task, devices)
    detail = {"row": row, "flips": records, "rounds": rounds}
    return detail, _check_tamper(rounds, tampered=0, clean=1)


def _scenario_mpu_perm_glitch(task, rng):
    """A permission bit of a programmed EA-MPU region is cleared.

    Code is untouched, so the verdict must stay clean; the glitch must
    surface as counted MPU faults or a typed machine error once the
    guest runs — never as silent corruption.
    """
    device = _hydrate(task, 0)[0]
    glitch = glitch_mpu_permissions(device.platform, rng)
    rounds, _, guest_errors = _attest(task, {0: device}, step=True)
    faults = device.platform.mpu.stats.faults
    violations = _check_no_false_compromise(rounds, [0])
    detail = {
        "glitch": glitch,
        "mpu_faults": faults,
        "guest_errors": guest_errors,
        "rounds": rounds,
    }
    return detail, violations


def _scenario_irq_storm(task, rng):
    """Spurious vectored interrupts latch while the guest runs."""
    device = _hydrate(task, 0)[0]
    storm = inject_irq_storm(device.platform, rng, rate=0.2)
    rounds, _, guest_errors = _attest(task, {0: device}, step=True)
    violations = _check_no_false_compromise(rounds, [0])
    detail = {
        "raised": storm["raised"],
        "lines": storm["lines"],
        "guest_errors": guest_errors,
        "rounds": rounds,
    }
    return detail, violations


def _scenario_irq_drop(task, rng):
    """Raised interrupt lines are swallowed while the guest runs."""
    device = _hydrate(task, 0)[0]
    drops = inject_irq_drops(device.platform, rng, rate=0.5)
    rounds, _, guest_errors = _attest(task, {0: device}, step=True)
    violations = _check_no_false_compromise(rounds, [0])
    detail = {
        "dropped": drops["dropped"],
        "delivered": drops["delivered"],
        "guest_errors": guest_errors,
        "rounds": rounds,
    }
    return detail, violations


def _scenario_snapcodec_corrupt(task, rng):
    """Truncated / bit-flipped snapshot blobs hit the decoder.

    Every trial must end in ``SnapcodecError`` or a clean decode; a
    decode that succeeds must then clone into a platform or be
    rejected with a typed error.  Any other exception type is an
    invariant violation (the decoder leaked an untyped failure).
    """
    violations: list[str] = []
    trials = []
    for trial in range(task.config.codec_trials):
        mode = "truncate" if rng.random() < 0.5 else "flip"
        bad = corrupt_blob(task.snapshot_blob, rng, mode=mode)
        try:
            snapshot = decode_snapshot(bad)
        except SnapcodecError:
            trials.append({"trial": trial, "mode": mode,
                           "outcome": "rejected"})
            continue
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            violations.append(
                f"trial {trial} ({mode}): decode raised "
                f"{type(exc).__name__} instead of SnapcodecError"
            )
            trials.append({"trial": trial, "mode": mode,
                           "outcome": "untyped_decode_error"})
            continue
        try:
            snapshot.clone()
            outcome = "decoded_and_cloned"
        except ReproError:
            outcome = "clone_rejected"
        except Exception as exc:  # noqa: BLE001 - the invariant itself
            violations.append(
                f"trial {trial} ({mode}): clone of decoded blob "
                f"raised untyped {type(exc).__name__}"
            )
            outcome = "untyped_clone_error"
        trials.append({"trial": trial, "mode": mode, "outcome": outcome})
    return {"trials": trials}, violations


def _scenario_transport_partition(task, rng):
    """The link is down for the whole first attempt window.

    Every challenge of attempt 1 is eaten; the retry goes through, so
    all devices must end up healthy — a partition must cost retries,
    never a compromised verdict.
    """
    devices = _hydrate(task, 0, 1)
    window = (0, task.config.timeout_cycles)
    rounds, transport, _ = _attest(
        task, devices, fault_model=FaultModel(partitions=(window,))
    )
    violations = _check_no_false_compromise(rounds, sorted(devices))
    for device_id in sorted(devices):
        statuses = _statuses(rounds, device_id)
        if statuses[0] != HEALTHY:
            violations.append(
                f"device {device_id} was {statuses[0]} in round 0 — "
                "a one-window partition must be absorbed by retries"
            )
        if rounds[0][str(device_id)]["attempts"] < 2:
            violations.append(
                f"device {device_id} answered during the partition "
                "(the outage window did not bite)"
            )
    if transport.stats.partition_dropped < len(devices):
        violations.append(
            "partition ate fewer messages than devices — "
            f"{transport.stats.partition_dropped} < {len(devices)}"
        )
    detail = {
        "window": list(window),
        "transport": transport.stats.to_dict(),
        "rounds": rounds,
    }
    return detail, violations


def _scenario_transport_flap(task, rng):
    """The link flaps up and down on a seeded schedule."""
    devices = _hydrate(task, 0, 1)
    config = task.config
    horizon = config.timeout_cycles * (config.max_retries + 1) * config.rounds
    windows = flap_windows(
        rng,
        horizon=horizon,
        up_mean=config.timeout_cycles,
        down_mean=max(1, config.timeout_cycles // 2),
    )
    rounds, transport, _ = _attest(
        task, devices, fault_model=FaultModel(partitions=windows)
    )
    violations = _check_no_false_compromise(rounds, sorted(devices))
    detail = {
        "windows": [list(w) for w in windows],
        "transport": transport.stats.to_dict(),
        "rounds": rounds,
    }
    return detail, violations


def _ota_artifacts(seed: int) -> tuple[bytes, bytes, bytes]:
    """Signed v1/v2 container streams plus the trust root for ``seed``."""
    v1, v2, root = sign_containers(seed)
    return encode_container(v1), encode_container(v2), root


def _scenario_ota_chunk_corrupt(task, rng):
    """A firmware chunk is corrupted in flight mid-transfer.

    The device's digest check must *detect* the damage (never install
    it), the chunk must be retried within the fleet
    :class:`~repro.fleet.executor.RetryPolicy` budget, and the update
    must still land verified on the new version — corruption costs
    retries, never silent acceptance.
    """
    config = task.config
    v1, v2, root = _ota_artifacts(config.seed)
    chunk_size = 256
    chunks = (len(v2) + chunk_size - 1) // chunk_size
    corrupt = rng.randrange(chunks)
    ota_config = OtaConfig(
        devices=1,
        seed=config.seed,
        chunk_size=chunk_size,
        delay_max=64,
        timeout_cycles=config.timeout_cycles,
        max_attempts=config.max_retries + 1,
        backoff_cycles=4096,
        corrupt_chunk=corrupt,
    )
    result = run_device_update(
        DeviceUpdateTask(
            device_id=0,
            config=ota_config,
            snapshot_blob=task.snapshot_blob,
            container_v1=v1,
            container_v2=v2,
            trust_root=root,
            key=device_key(config.seed, 0),
            tamper=False,
            action="update",
        )
    )
    transfer = result["transfer"]
    violations = []
    if not transfer["corrupt_detected"]:
        violations.append(
            f"corrupted chunk {corrupt} was not detected by the "
            "device's digest check (silent acceptance)"
        )
    if not transfer["chunk_retries"]:
        violations.append(
            f"corrupted chunk {corrupt} was never retried"
        )
    if result["verdict"] != UPDATED or result["fw_version"] != 2:
        violations.append(
            f"update did not complete after corruption: verdict "
            f"{result['verdict']!r}, fw_version {result['fw_version']}"
        )
    detail = {"corrupt_chunk": corrupt, "result": result}
    return detail, violations


def _scenario_ota_rollback_replay(task, rng):
    """An old signed container is replayed after an update committed.

    Version monotonicity: once v2 is committed, the still-validly-
    signed v1 container must be refused with ``RollbackError``; a
    bit-flipped container stream must be refused with a typed
    ``ContainerError`` — in both cases nothing may boot silently.
    """
    from repro.errors import ContainerError, RollbackError

    v1, v2, root = _ota_artifacts(task.config.seed)
    platform = _hydrate(task, 0)[0].platform
    platform.boot_signed(v1, trust_root=root)
    platform.commit_firmware()
    platform.boot_signed(v2, trust_root=root)
    platform.commit_firmware()
    violations = []
    try:
        platform.boot_signed(v1, trust_root=root)
        violations.append(
            "replayed v1 container booted after v2 was committed "
            "(rollback silently accepted)"
        )
        replay = "accepted"
    except RollbackError:
        replay = "rejected"
    except Exception as exc:  # noqa: BLE001 - the invariant itself
        violations.append(
            f"replayed v1 container raised {type(exc).__name__} "
            "instead of RollbackError"
        )
        replay = "untyped_error"
    position = rng.randrange(len(v2))
    flipped = (
        v2[:position]
        + bytes((v2[position] ^ (1 << rng.randrange(8)),))
        + v2[position + 1:]
    )
    try:
        platform.boot_signed(flipped, trust_root=root)
        violations.append(
            f"container with byte {position} flipped booted "
            "(corruption silently accepted)"
        )
        corrupt = "accepted"
    except ContainerError:
        corrupt = "rejected"
    except Exception as exc:  # noqa: BLE001 - the invariant itself
        violations.append(
            f"flipped container raised untyped {type(exc).__name__} "
            "instead of ContainerError"
        )
        corrupt = "untyped_error"
    if platform.fw_version != 2 or platform.fw_floor != 2:
        violations.append(
            f"device left v2 after refused boots: version "
            f"{platform.fw_version}, floor {platform.fw_floor}"
        )
    detail = {
        "replay": replay,
        "flipped_byte": position,
        "corrupt": corrupt,
        "fw_version": platform.fw_version,
        "fw_floor": platform.fw_floor,
    }
    return detail, violations


SCENARIOS = {
    "irq_drop": (KIND_STRESS, _scenario_irq_drop),
    "irq_storm": (KIND_STRESS, _scenario_irq_storm),
    "mpu_perm_glitch": (KIND_ISOLATION, _scenario_mpu_perm_glitch),
    "ota_chunk_corrupt": (KIND_OTA, _scenario_ota_chunk_corrupt),
    "ota_rollback_replay": (KIND_OTA, _scenario_ota_rollback_replay),
    "prom_code_flip": (KIND_TAMPER, _scenario_prom_code_flip),
    "ram_table_flip": (KIND_TAMPER, _scenario_ram_table_flip),
    "snapcodec_corrupt": (KIND_CODEC, _scenario_snapcodec_corrupt),
    "transport_flap": (KIND_STRESS, _scenario_transport_flap),
    "transport_partition": (KIND_STRESS, _scenario_transport_partition),
}

SCENARIO_NAMES = tuple(sorted(SCENARIOS))


def run_scenario(task: ScenarioTask) -> dict:
    """Execute one scenario; pure function of the task (worker-safe)."""
    if task.name not in SCENARIOS:
        raise FaultError(f"unknown scenario {task.name!r}")
    kind, runner = SCENARIOS[task.name]
    rng = FaultPlan(task.config.seed).rng(f"scenario:{task.name}")
    detail, violations = runner(task, rng)
    return {
        "name": task.name,
        "kind": kind,
        "ok": not violations,
        "violations": violations,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# Campaign runner.


def build_tasks(config: CampaignConfig) -> list[ScenarioTask]:
    """Boot the golden platform once and freeze every scenario."""
    golden = golden_boot()
    return [
        ScenarioTask(
            name=name,
            config=config,
            snapshot_blob=golden.blob,
            expected_rows=golden.expected_rows,
        )
        for name in SCENARIO_NAMES
    ]


def run_campaign(
    config: CampaignConfig,
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    recovery: RecoveryLog | None = None,
) -> dict:
    """Run every scenario; returns the JSON-ready campaign report.

    Scenarios run on the self-healing executor, but the report carries
    **no** execution metadata — each scenario is a pure function of
    (seed, golden blob), so the report is byte-identical for any
    ``workers`` value and across recovery paths.  Pass a ``recovery``
    log if you want to observe what the executor had to do.
    """
    tasks = build_tasks(config)
    # Streamed collection: each scenario result is folded the moment
    # it completes (completion order); the final sort restores name
    # order.
    scenarios: list[dict] = []
    run_resilient(
        run_scenario,
        tasks,
        workers,
        consume=lambda _index, result: scenarios.append(result),
        task_ids=[task.name for task in tasks],
        policy=policy,
        log=recovery,
    )
    scenarios.sort(key=lambda r: r["name"])
    violations = sum(len(r["violations"]) for r in scenarios)
    return {
        "schema": SCHEMA,
        "config": asdict(config),
        "scenarios": scenarios,
        "violations": violations,
        "ok": violations == 0,
    }


def format_campaign(report: dict) -> str:
    """Human-readable rendering of a campaign report."""
    config = report["config"]
    lines = [
        f"fault campaign: seed {config['seed']}, "
        f"{len(report['scenarios'])} scenario(s), "
        f"{config['rounds']} round(s) each"
    ]
    for scenario in report["scenarios"]:
        flag = "ok" if scenario["ok"] else "VIOLATED"
        lines.append(
            f"  {scenario['name']:20s} [{scenario['kind']:9s}] {flag}"
        )
        for violation in scenario["violations"]:
            lines.append(f"    ! {violation}")
    lines.append(
        f"invariants: {'OK' if report['ok'] else 'VIOLATED'} "
        f"({report['violations']} violation(s))"
    )
    return "\n".join(lines)
