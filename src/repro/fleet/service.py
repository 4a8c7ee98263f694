"""Fleet orchestration: golden image → clones → attestation rounds.

``run_fleet`` is the one-call entry point behind
``python -m repro fleet``:

1. boot **one** golden platform from the attestation image, snapshot it
   and serialize the snapshot to the versioned
   :mod:`repro.machine.snapcodec` byte format
   (:func:`~repro.fleet.parallel.golden_boot`, shared with the serving,
   OTA and fault front-ends), then lint it, derive the per-device keys
   and pick the compromised devices (:func:`prepare_run`);
2. partition the fleet into shards and hand each shard — the encoded
   golden bytes plus a plain-data task description — to
   :mod:`repro.fleet.parallel`, which hydrates N clones per shard and
   attests them, on one process or a worker pool (:func:`execute_run`);
3. merge the per-shard verdicts, metrics and transport totals into one
   fleet-level JSON-ready report.

Everything downstream of the seed is deterministic — nonces, link
faults, compromise choice, simulated-cycle latencies — so the same
command line reproduces the same report byte for byte.  The
:class:`~repro.fleet.parallel.ExecutionPlan` (worker count, shard
size, engine) is deliberately *not* part of :class:`FleetConfig`:
it may change how fast the report is produced, never what it says.
Only the report's trailing ``execution`` section records the plan.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass

from repro.analysis import lint_image_cached
from repro.analysis import SCHEMA as LINT_SCHEMA
from repro.crypto import mac, sponge_hash
from repro.errors import FleetError
from repro.fleet.executor import RecoveryLog, RetryPolicy
from repro.fleet.parallel import (
    ExecutionPlan,
    ShardMerger,
    ShardTask,
    attestation_image,
    golden_boot,
    run_shards,
    shard_ids,
)
from repro.fleet.pool import adaptive_shard_size, cost_model, pool_stats
from repro.fleet.shm import SharedBlob
from repro.fleet.transport import LinkParameters
from repro.fleet.verifier import COMPROMISED, HEALTHY, UNRESPONSIVE

#: /3 added the ``lint`` section binding the run to the golden image's
#: static-analysis verdict and CFG fingerprint; /2 added execution.
SCHEMA = "repro.fleet/3"


@dataclass(frozen=True)
class FleetConfig(LinkParameters):
    """One fleet experiment, fully determined by these fields.

    ``step_cycles`` runs each device's guest for that many cycles
    between rounds (devices keep doing their job, and the engine
    counters in the metrics become meaningful); ``trace_capacity``
    attaches a ring-buffer tracer of that depth to every device.
    """

    devices: int = 8
    rounds: int = 1
    seed: int = 0
    compromise: int = 1
    drop_rate: float = 0.0
    delay_min: int = 0
    delay_max: int = 512
    timeout_cycles: int = 8192
    max_retries: int = 2
    backoff: float = 1.0
    step_cycles: int = 0
    trace_capacity: int = 0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise FleetError("fleet needs at least one device")
        if self.rounds < 1:
            raise FleetError("fleet needs at least one round")
        if self.timeout_cycles <= 0:
            raise FleetError(
                f"timeout_cycles must be positive: {self.timeout_cycles}"
            )
        if self.max_retries < 0:
            raise FleetError(
                f"max_retries must be >= 0: {self.max_retries}"
            )
        if self.backoff <= 0:
            raise FleetError(f"backoff must be positive: {self.backoff}")
        if not 0 <= self.compromise <= self.devices:
            raise FleetError(
                f"cannot compromise {self.compromise} of "
                f"{self.devices} devices"
            )
        if self.step_cycles < 0:
            raise FleetError(
                f"step_cycles must be >= 0: {self.step_cycles}"
            )
        if self.trace_capacity < 0:
            raise FleetError(
                f"trace_capacity must be >= 0: {self.trace_capacity}"
            )
        self.fault_model()


def device_key(seed: int, device_id: int) -> bytes:
    """Per-device symmetric key (manufacturing-time provisioning)."""
    master = sponge_hash(f"fleet-master:{seed}".encode("ascii"))
    return mac(master, b"device:" + device_id.to_bytes(4, "little"))


@dataclass(frozen=True)
class PreparedRun:
    """A fleet experiment reduced to plain data, ready to execute.

    Everything here is primitive (bytes, ints, strings, tuples), so a
    prepared run can be executed on any worker process — and prepared
    exactly once when benchmarking different execution plans.
    """

    config: FleetConfig
    snapshot_blob: bytes
    expected_compromised: tuple[int, ...]
    keys: tuple[tuple[int, bytes], ...]
    expected_rows: tuple[tuple[int, bytes], ...]
    memory_bytes: int
    modules: tuple[str, ...]
    prom_bytes: int
    #: Static-analysis verdict for the golden image: schema tag, ok
    #: flag, error/warning counts, per-module and image-level CFG
    #: fingerprints.  Computed once per golden image measurement via
    #: the lint cache; byte-deterministic, so it may live in reports.
    lint: tuple[tuple[str, object], ...] = ()

    def report_sections(self) -> dict:
        """The ``image``, ``lint`` and ``fleet`` report sections, in
        that order (the fleet and serve reports share them)."""
        lint = dict(self.lint)
        return {
            "image": {
                "modules": list(self.modules),
                "prom_bytes": self.prom_bytes,
            },
            "lint": {
                "schema": lint.get("schema"),
                "ok": lint.get("ok"),
                "errors": lint.get("errors", 0),
                "warnings": lint.get("warnings", 0),
                "fingerprints": {
                    "image": lint.get("image_fingerprint") or None,
                    "modules": dict(lint.get("fingerprints") or ()),
                },
            },
            "fleet": {
                "devices": self.config.devices,
                "clone_memory_bytes": self.memory_bytes,
                "snapshot_blob_bytes": len(self.snapshot_blob),
            },
        }


def prepare_run(config: FleetConfig) -> PreparedRun:
    """Boot the golden platform once and freeze the experiment.

    This is the one-time cost (the shared
    :func:`~repro.fleet.parallel.golden_boot`, plus lint, keys and the
    compromise choice); :func:`execute_run` can then be timed on its
    own.
    """
    golden = golden_boot()
    image = attestation_image()

    # Lint the golden image exactly once per measurement: every fleet
    # run (and benchmark re-preparation) of the same bytes hits the
    # verdict cache instead of re-running the dataflow pass.
    lint = lint_image_cached(image, image_name="attestation")
    lint_summary = (
        ("schema", LINT_SCHEMA),
        ("ok", not lint.errors),
        ("errors", len(lint.errors)),
        ("warnings", len(lint.warnings)),
        ("image_fingerprint", lint.image_fingerprint),
        ("fingerprints", lint.fingerprints),
    )

    compromise_rng = random.Random(f"fleet-compromise:{config.seed}")
    expected_compromised = tuple(
        sorted(
            compromise_rng.sample(range(config.devices), config.compromise)
        )
    )
    keys = tuple(
        (device_id, device_key(config.seed, device_id))
        for device_id in range(config.devices)
    )
    return PreparedRun(
        config=config,
        snapshot_blob=golden.blob,
        expected_compromised=expected_compromised,
        keys=keys,
        expected_rows=golden.expected_rows,
        memory_bytes=golden.memory_bytes,
        modules=tuple(image.module_order),
        prom_bytes=len(image.prom),
        lint=lint_summary,
    )


def _resolve_shard_size(
    prepared: PreparedRun, plan: ExecutionPlan
) -> int:
    """The plan's shard size, or an adaptive one from measured cost.

    Sizing is coordinator-side policy: it changes the partition, and
    the partition never depends on worker count — only on (devices,
    shard_size) — so a *pinned* shard size still reproduces the exact
    shard set on any host.  Adaptive runs trade that pin for measured
    amortization.
    """
    if plan.shard_size is not None:
        return plan.shard_size
    config = prepared.config
    per_round = cost_model().per_device_s
    return adaptive_shard_size(
        config.devices,
        plan.workers,
        per_device_s=(
            per_round * config.rounds if per_round else None
        ),
    )


def _shard_tasks(
    prepared: PreparedRun, shard_size: int, blob, engine: str
) -> list[ShardTask]:
    """Cut the prepared run into shard tasks (worker-count agnostic).

    ``blob`` is what workers hydrate from: the encoded snapshot bytes
    or a :class:`~repro.fleet.shm.SharedBlobRef` to them.
    """
    config = prepared.config
    keys = dict(prepared.keys)
    compromised = set(prepared.expected_compromised)
    return [
        ShardTask(
            shard_index=index,
            snapshot_blob=blob,
            device_ids=ids,
            compromised=tuple(
                device_id for device_id in ids if device_id in compromised
            ),
            keys=tuple((device_id, keys[device_id]) for device_id in ids),
            expected_rows=prepared.expected_rows,
            config=config,
            engine=engine,
        )
        for index, ids in enumerate(shard_ids(config.devices, shard_size))
    ]


def execute_run(
    prepared: PreparedRun,
    plan: ExecutionPlan | None = None,
    *,
    policy: RetryPolicy | None = None,
    stage_timings: dict | None = None,
) -> dict:
    """Execute a prepared run under ``plan``; returns the report.

    The report carries no wall-clock fields, and the ``execution``
    section is the only part that mentions the plan or what recovery
    the self-healing executor performed — pop it and two reports from
    different worker counts (or with and without worker crashes)
    compare byte for byte.

    Pass a ``stage_timings`` dict to receive the per-stage wall-clock
    breakdown (``ship_s``, ``pool_spinup_s``, ``hydrate_s``,
    ``shard_execute_s``, ``merge_s``, ``execute_wall_s``) — kept out
    of the report on purpose.

    With ``workers > 1`` the golden blob is published into one
    shared-memory segment and every shard task carries a tiny
    reference; the segment is unlinked in a ``finally``, so it
    survives worker crashes and pool rebuilds but never a completed
    (or failed) run.  Shard results are folded as
    they complete (:class:`~repro.fleet.parallel.ShardMerger`), so the
    coordinator holds O(1) shard results, not O(shards).
    """
    plan = plan or ExecutionPlan()
    config = prepared.config
    shard_size = _resolve_shard_size(prepared, plan)
    recovery = RecoveryLog()
    merger = ShardMerger(rounds=config.rounds)
    spinup_before = pool_stats().spinup_seconds
    shared = None
    try:
        ship_started = time.perf_counter()
        if plan.workers > 1:
            shared = SharedBlob.create(prepared.snapshot_blob)
            blob = shared.ref
        else:
            blob = prepared.snapshot_blob
        tasks = _shard_tasks(prepared, shard_size, blob, plan.engine)
        ship_s = time.perf_counter() - ship_started

        execute_started = time.perf_counter()
        run_shards(
            tasks,
            plan.workers,
            policy=policy,
            recovery=recovery,
            consume=lambda _index, result: merger.add(result),
        )
        execute_wall = time.perf_counter() - execute_started
    finally:
        if shared is not None:
            shared.unlink()
    merged_rounds, metrics, transport = merger.finish()
    cost_model().observe(config.devices * config.rounds, execute_wall)
    if stage_timings is not None:
        stage_timings.update(
            {
                "ship_s": ship_s,
                "pool_spinup_s": (
                    pool_stats().spinup_seconds - spinup_before
                ),
                "hydrate_s": merger.timings.get("hydrate_s", 0.0),
                "shard_execute_s": merger.timings.get("execute_s", 0.0),
                "merge_s": merger.merge_seconds,
                "execute_wall_s": execute_wall,
            }
        )

    rounds = []
    flagged_compromised: set[int] = set()
    flagged_unresponsive: set[int] = set()
    for round_index, verdicts in enumerate(merged_rounds):
        statuses = [verdicts[i]["status"] for i in verdicts]
        for device_id, verdict in verdicts.items():
            if verdict["status"] == COMPROMISED:
                flagged_compromised.add(device_id)
            elif verdict["status"] == UNRESPONSIVE:
                flagged_unresponsive.add(device_id)
        rounds.append(
            {
                "round": round_index,
                "verdicts": {
                    str(device_id): verdicts[device_id]
                    for device_id in sorted(verdicts)
                },
                "healthy": statuses.count(HEALTHY),
                "compromised": statuses.count(COMPROMISED),
                "unresponsive": statuses.count(UNRESPONSIVE),
            }
        )

    ok = (
        tuple(sorted(flagged_compromised)) == prepared.expected_compromised
        and not flagged_unresponsive
    )
    return {
        "schema": SCHEMA,
        "config": asdict(config),
        **prepared.report_sections(),
        "expected_compromised": list(prepared.expected_compromised),
        "rounds": rounds,
        "flagged": {
            "compromised": sorted(flagged_compromised),
            "unresponsive": sorted(flagged_unresponsive),
        },
        "ok": ok,
        "transport": transport,
        "metrics": metrics.to_dict(),
        "execution": {
            "workers": plan.workers,
            "shard_size": shard_size,
            "shards": len(tasks),
            "engine": plan.engine,
            "shared_blob": shared is not None,
            "recovery": recovery.to_dict(),
        },
    }


def run_fleet(
    config: FleetConfig, plan: ExecutionPlan | None = None
) -> dict:
    """Run the whole experiment; returns the JSON-ready report."""
    return execute_run(prepare_run(config), plan)


def _recovery_lines(recovery: dict) -> list[str]:
    """Render ``execution.recovery`` so fault-tolerant runs are legible.

    Shared by the batch fleet and the serving front-end: an undisturbed
    run says so explicitly ("recovery: none"), a disturbed one
    itemizes what it took — crashes, hangs, retries, rebuilds, the
    deterministic backoff charge — and whether the pool degraded to
    in-process execution.
    """
    if not recovery:
        return []
    if not recovery.get("recoveries"):
        return ["recovery: none"]
    lines = [
        f"recovery: {recovery['recoveries']} event(s) — "
        f"{recovery['worker_crash']} worker crash(es), "
        f"{recovery['task_timeout']} timeout(s), "
        f"{recovery['task_retry']} retry(ies), "
        f"{recovery['pool_rebuild']} pool rebuild(s)"
    ]
    if recovery.get("backoff_cycles"):
        lines.append(
            f"recovery backoff: {recovery['backoff_cycles']} "
            f"simulated cycle(s)"
        )
    if recovery.get("degraded"):
        lines.append(
            "recovery degraded: pool abandoned, survivors ran in-process"
        )
    return lines


def format_report(report: dict) -> str:
    """Human-readable rendering of a ``run_fleet`` report."""
    lines = []
    config = report["config"]
    lines.append(
        f"fleet: {config['devices']} devices, {config['rounds']} "
        f"round(s), seed {config['seed']}"
    )
    execution = report.get("execution")
    if execution:
        lines.append(
            f"execution: {execution['workers']} worker(s), "
            f"{execution['shards']} shard(s) of <= "
            f"{execution['shard_size']}, {execution['engine']} engine"
        )
        lines.extend(_recovery_lines(execution.get("recovery", {})))
    lines.append(
        f"image: {', '.join(report['image']['modules'])} "
        f"({report['image']['prom_bytes']} PROM bytes)"
    )
    lint = report.get("lint")
    if lint:
        verdict = "clean" if lint["ok"] else (
            f"{lint['errors']} error(s), {lint['warnings']} warning(s)"
        )
        lines.append(
            f"lint: {verdict}, cfg fingerprint "
            f"{lint['fingerprints']['image']}"
        )
    lines.append(
        f"expected compromised: "
        f"{report['expected_compromised'] or 'none'}"
    )
    for round_report in report["rounds"]:
        lines.append(
            f"round {round_report['round']}: "
            f"{round_report['healthy']} healthy, "
            f"{round_report['compromised']} compromised, "
            f"{round_report['unresponsive']} unresponsive"
        )
    flagged = report["flagged"]
    lines.append(f"flagged compromised : {flagged['compromised'] or 'none'}")
    lines.append(f"flagged unresponsive: {flagged['unresponsive'] or 'none'}")
    transport = report["transport"]
    lines.append(
        f"transport: {transport['sent']} sent, "
        f"{transport['delivered']} delivered, "
        f"{transport['dropped']} dropped"
    )
    latency = report["metrics"]["histograms"].get(
        "fleet_round_latency_cycles", {}
    )
    if latency.get("count"):
        lines.append(
            f"round latency cycles: p50={latency['p50']} "
            f"p95={latency['p95']} max={latency['max']}"
        )
    lines.append(f"verdict: {'OK' if report['ok'] else 'MISMATCH'}")
    return "\n".join(lines)
