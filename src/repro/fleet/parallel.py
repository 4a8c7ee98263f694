"""Sharded multiprocess fleet execution.

PR 2 made a fleet cheap to *provision* (snapshot cloning) and PR 3 made
one device fast to *step* (the fast-path engine), but the whole fleet
still advanced inside a single Python process.  This module partitions
a fleet into **shards** and runs each shard — hydrate N clones from one
golden snapshot, attest them for R rounds, aggregate shard metrics —
on a worker process pool.

Hard rules that make this safe and reproducible:

* **Only bytes cross the process boundary.**  The golden platform
  travels as the versioned :mod:`repro.machine.snapcodec` byte format;
  the shard description (:class:`ShardTask`) and the shard result are
  plain data (ints, strings, bytes, dicts).  No live ``Device``/``Cpu``
  object is ever pickled.
* **The shard partition never depends on the worker count.**
  :func:`shard_ids` cuts ``range(devices)`` into ``shard_size`` chunks;
  workers merely consume the shard queue.  Combined with the fleet's
  per-device RNG streams (``fleet-link:{seed}:{id}``,
  ``fleet-nonce:{seed}:{id}``) and an order-independent merge, verdicts
  and aggregated metrics are byte-identical for 1, 2 or 4 workers.
* **Workers re-derive host handles.**  A decoded snapshot carries no
  ``BuiltImage``; every process builds the attestation image once
  (:func:`attestation_image`) and caches it, like the decoded golden
  snapshot itself.
* **One golden boot, one hydration path.**  :func:`golden_boot` boots
  the attestation image once and freezes it as a TLSC snapshot blob
  and the expected measurement rows; :func:`hydrate_devices`
  turns that blob into keyed, optionally tampered fleet devices.  The
  batch fleet, the serving front-end and the fault and OTA campaigns
  all prepare and build their devices through these two.

:func:`run_shard` is a pure function of its :class:`ShardTask`, so the
``workers=1`` path simply calls it inline — identical results, no pool.
Inside a shard the verifier steps its devices in one thread.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.core.attestation import expected_measurements
from repro.core.platform import TrustLitePlatform
from repro.core.trustlet_table import name_tag
from repro.crypto.sponge import memo_stats
from repro.errors import FleetError
from repro.fleet.device import FleetDevice
from repro.fleet.executor import RecoveryLog, RetryPolicy, run_resilient
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.pool import _CRASH_ENV  # noqa: F401  (re-export)
from repro.fleet.shm import SharedBlobRef, attach_ref
from repro.fleet.transport import InProcessTransport
from repro.fleet.verifier import FleetVerifier
from repro.machine.snapcodec import decode_snapshot, encode_snapshot
from repro.machine.snapshot import Snapshot
from repro.machine.trace import Tracer
from repro.sw.images import build_attestation_image

if TYPE_CHECKING:
    from repro.fleet.service import FleetConfig

ENGINE_REFERENCE = "reference"
ENGINE_TRACE = "trace"
ENGINES = (ENGINE_REFERENCE, ENGINE_TRACE)


def engine_kwargs(engine: str) -> dict:
    """Platform/clone constructor kwargs for a named execution engine."""
    if engine not in ENGINES:
        raise FleetError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return {"fastpath": engine == ENGINE_TRACE}

DEFAULT_SHARD_SIZE = 16


@dataclass(frozen=True)
class ExecutionPlan:
    """How a fleet run is executed (never *what* it computes).

    ``workers`` is the process count, ``shard_size`` the devices per
    shard (``None`` asks :func:`repro.fleet.pool.adaptive_shard_size`
    to size shards from measured per-device cost), ``engine`` the
    execution engine of the hydrated clones (the cached trace engine
    by default: it batches the kernel's idle spin between rounds, and
    a clone that never steps a guest never builds its traces).
    With ``workers > 1`` the golden blob ships once via shared memory
    and the workers come from the persistent warm-pool registry.  None
    of these may change verdicts or aggregated metrics — the
    determinism tests hold the plan's knobs against each other.
    """

    workers: int = 1
    shard_size: int | None = DEFAULT_SHARD_SIZE
    engine: str = ENGINE_TRACE

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise FleetError(f"workers must be >= 1: {self.workers}")
        if self.shard_size is not None and self.shard_size < 1:
            raise FleetError(
                f"shard_size must be >= 1: {self.shard_size}"
            )
        engine_kwargs(self.engine)


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs, as plain picklable data.

    ``snapshot_blob`` is either the encoded golden snapshot itself or
    a :class:`~repro.fleet.shm.SharedBlobRef` naming the shared-memory
    segment the coordinator published it into — the worker decodes the
    identical bytes either way.  ``config`` is the experiment's frozen
    :class:`~repro.fleet.service.FleetConfig`, shared by every shard.
    """

    shard_index: int
    snapshot_blob: bytes | SharedBlobRef
    device_ids: tuple[int, ...]
    compromised: tuple[int, ...]
    keys: tuple[tuple[int, bytes], ...]
    expected_rows: tuple[tuple[int, bytes], ...]
    config: FleetConfig
    engine: str


def shard_ids(devices: int, shard_size: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``range(devices)`` into ``shard_size`` chunks.

    Depends only on (devices, shard_size) — never on worker count —
    so the same experiment always produces the same shards.
    """
    if devices < 1:
        raise FleetError("cannot shard an empty fleet")
    if shard_size < 1:
        raise FleetError(f"shard_size must be >= 1: {shard_size}")
    return tuple(
        tuple(range(start, min(start + shard_size, devices)))
        for start in range(0, devices, shard_size)
    )


# ---------------------------------------------------------------------------
# The golden image.


@functools.cache
def attestation_image(timer_period: int = 2000):
    """This process's attestation image, built once per timer period
    and shared by the golden boot, every hydrated device (tampering
    needs its layouts) and the OTA containers.
    """
    return build_attestation_image(timer_period=timer_period)


class GoldenBoot(NamedTuple):
    """What :func:`golden_boot` freezes for the front-ends."""

    blob: bytes
    expected_rows: tuple[tuple[int, bytes], ...]
    memory_bytes: int


def golden_boot() -> GoldenBoot:
    """Boot :func:`attestation_image` once: the TLSC blob every clone
    hydrates from, the expected ``(name_tag, digest)`` rows in module
    order and the post-boot snapshot's memory size.
    """
    image = attestation_image()
    golden = TrustLitePlatform()
    golden.boot(image)
    snapshot = Snapshot.save(golden)
    digests = expected_measurements(image)
    rows = tuple(
        (name_tag(name), digests[name]) for name in image.module_order
    )
    return GoldenBoot(encode_snapshot(snapshot), rows, snapshot.memory_bytes)


# ---------------------------------------------------------------------------
# Worker side.

# Per-process cache: a worker typically runs several shards of the
# same experiment, and decoding the golden snapshot once per process
# amortizes across them.
_SNAPSHOT_CACHE: dict[bytes, object] = {}
_CACHE_LIMIT = 4


def _cached_snapshot(blob):
    """Decoded golden snapshot for ``blob`` (bytes or SharedBlobRef).

    The cache keys on the blob's sha256 in both cases, so a worker
    that sees the same golden image as bytes and as a shared segment
    still decodes it exactly once.
    """
    shared = isinstance(blob, SharedBlobRef)
    digest = blob.digest if shared else hashlib.sha256(blob).digest()
    snapshot = _SNAPSHOT_CACHE.get(digest)
    if snapshot is None:
        if len(_SNAPSHOT_CACHE) >= _CACHE_LIMIT:
            _SNAPSHOT_CACHE.clear()
        # A shared segment decodes straight out of the mapped
        # read-only view — the stream is never copied into worker heap.
        snapshot = (
            attach_ref(blob, decode_snapshot) if shared
            else decode_snapshot(blob)
        )
        _SNAPSHOT_CACHE[digest] = snapshot
    return snapshot


def hydrate_devices(
    blob: bytes | SharedBlobRef,
    keys: dict[int, bytes],
    *,
    compromised: tuple[int, ...] = (),
    engine: str = ENGINE_TRACE,
    trace_capacity: int = 0,
) -> dict[int, FleetDevice]:
    """Clone one keyed :class:`FleetDevice` per ``keys`` entry.

    Every device is a clone of the decoded golden snapshot for
    ``blob`` (bytes or :class:`~repro.fleet.shm.SharedBlobRef`), on
    the named ``engine``, with this process's copy of the attestation
    image re-attached (the decoded snapshot carries no host handles,
    and tampering needs the image's layouts), its crypto engine keyed
    and, with ``trace_capacity``, a ring-buffer tracer.  The devices
    in ``compromised`` then get their code tampered.
    """
    snapshot = _cached_snapshot(blob)
    image = attestation_image()
    clone_kwargs = engine_kwargs(engine)
    devices: dict[int, FleetDevice] = {}
    for device_id, key in keys.items():
        platform = snapshot.clone(**clone_kwargs)
        platform.image = image
        platform.soc.crypto.set_key(key)
        tracer = Tracer(capacity=trace_capacity) if trace_capacity else None
        devices[device_id] = FleetDevice(
            device_id, platform, key, tracer=tracer
        )
    for device_id in compromised:
        devices[device_id].tamper_code()
    return devices


def collect_device_perf(device: FleetDevice, metrics: MetricsRegistry) -> None:
    """Fold one device's engine/tracer counters into ``metrics``.

    Surfaces the instructions the guest retired while stepping and
    the bytes of memory the clone copied on first write (both the same
    on every engine), the cached engine's observability (decode cache,
    EA-MPU lookaside, bus routing memo, traces) and tracer
    ring-buffer drops at fleet level, so per-shard perf is visible in
    every report.
    """
    platform = device.platform
    cpu = platform.cpu
    decode_hits = decode_misses = 0
    trace_stats = None
    if cpu.fastpath is not None:
        decode_stats = cpu.fastpath.decode_cache.stats
        decode_hits = decode_stats["hits"]
        decode_misses = decode_stats["misses"]
        trace_stats = cpu.fastpath.trace_stats
    metrics.counter("fleet_guest_instructions").inc(device.guest_instructions)
    metrics.counter("fleet_decode_cache_hits").inc(decode_hits)
    metrics.counter("fleet_decode_cache_misses").inc(decode_misses)
    if trace_stats is not None:
        metrics.counter("fleet_trace_runs").inc(trace_stats["runs"])
        metrics.counter("fleet_trace_instructions").inc(
            trace_stats["instructions"]
        )
        metrics.counter("fleet_trace_recorded").inc(trace_stats["recorded"])
        metrics.counter("fleet_trace_invalidations").inc(
            trace_stats["invalidations"]
        )
    mpu_stats = platform.mpu.stats
    metrics.counter("fleet_lookaside_hits").inc(
        getattr(mpu_stats, "lookaside_hits", 0)
    )
    metrics.counter("fleet_lookaside_misses").inc(
        getattr(mpu_stats, "lookaside_misses", 0)
    )
    routing = platform.bus.routing_stats
    metrics.counter("fleet_bus_memo_hits").inc(routing["memo_hits"])
    metrics.counter("fleet_bus_memo_misses").inc(routing["memo_misses"])
    metrics.counter("fleet_trace_dropped").inc(
        device.tracer.dropped if device.tracer is not None else 0
    )
    metrics.counter("fleet_private_memory_bytes").inc(
        sum(
            getattr(mapping.device, "copied_bytes", 0)
            for mapping in platform.bus.mappings
        )
    )


# The ``_CRASH_ENV`` test hook is defined in :mod:`repro.fleet.pool`
# (the warm-pool registry must watch it for staleness) and re-exported
# here, where its consumer lives.
def _maybe_crash_for_test(shard_index: int) -> None:
    spec = os.environ.get(_CRASH_ENV)
    if not spec:
        return
    path, _, shard = spec.rpartition(":")
    if not path or not shard.isdigit() or int(shard) != shard_index:
        return
    try:
        os.remove(path)
    except FileNotFoundError:
        return
    os._exit(23)


def run_shard(task: ShardTask) -> dict:
    """Hydrate and attest one shard; returns a plain-data result.

    Pure function of ``task`` — the workers=1 inline path and the
    process-pool path run exactly this code.
    """
    _maybe_crash_for_test(task.shard_index)
    config = task.config
    memo_before = memo_stats()
    hydrate_started = time.perf_counter()
    keys = dict(task.keys)
    devices = hydrate_devices(
        task.snapshot_blob,
        keys,
        compromised=task.compromised,
        engine=task.engine,
        trace_capacity=config.trace_capacity,
    )
    execute_started = time.perf_counter()

    metrics = MetricsRegistry()
    transport = InProcessTransport(
        seed=config.seed,
        fault_model=config.fault_model(),
    )
    verifier = FleetVerifier(
        devices,
        transport,
        keys,
        list(task.expected_rows),
        seed=config.seed,
        timeout_cycles=config.timeout_cycles,
        max_retries=config.max_retries,
        backoff=config.backoff,
        metrics=metrics,
    )

    rounds: list[dict[int, dict]] = []
    for _round_index in range(config.rounds):
        verdicts = verifier.run_round()
        rounds.append(
            {
                device_id: verdicts[device_id].to_dict()
                for device_id in sorted(verdicts)
            }
        )
        if config.step_cycles:
            # Fleet devices keep doing their job between rounds; the
            # guest work is what the engine choice actually speeds up.
            for device_id in sorted(devices):
                devices[device_id].step_cycles(config.step_cycles)
    for device_id in sorted(devices):
        collect_device_perf(devices[device_id], metrics)

    done = time.perf_counter()
    return {
        "shard": task.shard_index,
        "device_ids": list(task.device_ids),
        "rounds": rounds,
        "metrics": metrics.raw_dict(),
        "transport": transport.stats.to_dict(),
        # Worker-side wall clock; folded into the coordinator's stage
        # timings sink, never into the report payload (determinism).
        "timings": {
            "hydrate_s": execute_started - hydrate_started,
            "execute_s": done - execute_started,
        },
        # This process's sponge-memo traffic for the shard; folded
        # into the report's ``execution`` section, like ``timings``.
        "sponge_memo": memo_stats(since=memo_before),
    }


# ---------------------------------------------------------------------------
# Quote-check batches.  The attestation *service* (repro.fleet.server)
# doesn't ship whole shards to workers — devices live in the serving
# process — but it does fan the MAC verification of admitted quotes
# out to the same process pool.  A batch is plain picklable data and
# its check is a pure function, so results are byte-identical whether
# a batch runs on a worker or inline, and worker count can never
# change a verdict.


@dataclass(frozen=True)
class QuoteCheckBatch:
    """One pipelined verification batch, as plain picklable data.

    ``items`` rows are ``(device_id, seq, nonce, quote, key)``;
    ``expected_rows`` is the golden image's ``(name_tag, digest)``
    table shared by every quote in the batch.
    """

    batch_index: int
    expected_rows: tuple[tuple[int, bytes], ...]
    items: tuple[tuple[int, int, bytes, bytes, bytes], ...]


def verify_quote_batch(batch: QuoteCheckBatch) -> tuple[bool, ...]:
    """Check every quote in the batch; one verdict bool per item.

    Pure function of the batch: recomputes each device's expected
    quote (``MAC(key, nonce ‖ seq ‖ device_id ‖ expected_rows)``) and
    compares in constant time.
    """
    from repro.crypto import constant_time_equal, mac
    from repro.fleet.device import quote_material

    rows = list(batch.expected_rows)
    return tuple(
        constant_time_equal(
            quote, mac(key, quote_material(nonce, seq, device_id, rows))
        )
        for device_id, seq, nonce, quote, key in batch.items
    )


# ---------------------------------------------------------------------------
# Parent side.


def empty_memo_stats() -> dict:
    """A zero :func:`~repro.crypto.sponge.memo_stats` to fold into."""
    return dict.fromkeys(memo_stats(), 0)


def fold_memo_stats(total: dict, part: dict) -> None:
    """Fold one task's :func:`~repro.crypto.sponge.memo_stats` delta
    into ``total``: every hit and miss count adds up over tasks, and
    ``retained_bytes`` is the most that any one process held after a
    task (each process has its own memos)."""
    for name in total:
        if name == "retained_bytes":
            total[name] = max(total[name], part[name])
        else:
            total[name] += part[name]


class ShardMerger:
    """Order-independent streaming fold of shard results.

    Every fold is commutative: counters add, histogram summaries sort
    their raw observations, per-round verdict maps key by disjoint
    device ids, transport totals add.  The coordinator therefore folds
    each shard result the moment it completes — in *completion* order
    — and drops it, holding O(1) shard results instead of O(shards),
    while producing exactly what a sorted batch merge would.

    Worker-side ``timings`` and ``sponge_memo`` counts ride along into
    :attr:`timings` and :attr:`sponge_memo` (and the fold's own cost
    into :attr:`merge_seconds`) but never into the merged payload, so
    the report stays byte-identical across worker counts, shard sizes
    and completion orders.
    """

    def __init__(self, *, rounds: int) -> None:
        if rounds < 0:
            raise FleetError(f"rounds must be >= 0: {rounds}")
        self._rounds = rounds
        self.merged_rounds: list[dict[int, dict]] = [
            {} for _ in range(rounds)
        ]
        self.metrics = MetricsRegistry()
        self.transport_totals = {
            "sent": 0, "delivered": 0, "dropped": 0,
            "partition_dropped": 0, "in_flight": 0,
        }
        self.timings = {"hydrate_s": 0.0, "execute_s": 0.0}
        self.sponge_memo = empty_memo_stats()
        self.shards = 0
        self.merge_seconds = 0.0
        self._finished = False

    def add(self, result: dict) -> None:
        """Fold one shard result; safe in any completion order."""
        if self._finished:
            raise FleetError("ShardMerger already finished")
        started = time.perf_counter()
        for round_index, verdicts in enumerate(result["rounds"]):
            self.merged_rounds[round_index].update(verdicts)
        self.metrics.merge_raw(
            result["metrics"], skip_counters=("fleet_rounds",)
        )
        for key in self.transport_totals:
            self.transport_totals[key] += result["transport"].get(key, 0)
        for key, value in (result.get("timings") or {}).items():
            self.timings[key] = self.timings.get(key, 0.0) + value
        if "sponge_memo" in result:
            fold_memo_stats(self.sponge_memo, result["sponge_memo"])
        self.shards += 1
        self.merge_seconds += time.perf_counter() - started

    def finish(self) -> tuple[list[dict[int, dict]], MetricsRegistry, dict]:
        """Normalize and return ``(rounds, metrics, transport)``.

        ``fleet_rounds`` is set to the experiment's round count here
        (it would otherwise count once per shard).
        """
        if not self._finished:
            self._finished = True
            self.metrics.counter("fleet_rounds").inc(self._rounds)
        return self.merged_rounds, self.metrics, self.transport_totals


def run_shards(
    tasks: list[ShardTask],
    workers: int,
    *,
    consume,
    policy: RetryPolicy | None = None,
    recovery: RecoveryLog | None = None,
) -> None:
    """Execute every shard on ``workers`` processes.

    Execution is self-healing (see :mod:`repro.fleet.executor`):
    crashed or hung workers are detected, their shards requeued on a
    rebuilt pool, and an unrecoverable pool degrades to in-process
    execution.  Because :func:`run_shard` is a pure function of its
    task, the results — and therefore the merged report — are
    byte-identical whether or not any recovery happened; pass a
    ``recovery`` log to see what it took.  A shard whose *work* keeps
    failing raises :class:`~repro.errors.ShardExecutionError` — never
    a raw ``BrokenProcessPool``.

    Each result is streamed to ``consume(index, result)`` (e.g.
    :meth:`ShardMerger.add`, wrapped to drop the index) in completion
    order and then dropped.  ``workers=1`` runs inline (same pure
    function, no pool); otherwise the worker pool stays warm across
    calls.
    """
    run_resilient(
        run_shard,
        list(tasks),
        workers,
        consume=consume,
        task_ids=[task.shard_index for task in tasks],
        policy=policy,
        log=recovery,
    )

