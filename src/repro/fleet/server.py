"""The fleet as a long-running service: asyncio attestation server.

``python -m repro fleet`` is closed-loop batch: challenge everyone,
wait, repeat.  This module is the open-loop counterpart the ROADMAP's
"heavy traffic" goal asks for: devices hydrated from the TLSC golden
snapshot stream replay-protected quotes in continuously over the
seeded, faultable :class:`~repro.fleet.transport.InProcessTransport`,
and an asyncio server keeps up — or visibly sheds — under Poisson
load, burst trains and flap storms from :mod:`repro.fleet.loadgen`.

The serving pipeline, per simulated tick:

1. **Arrivals** — due :class:`~repro.fleet.loadgen.Arrival` events
   become challenges (fresh nonce, monotonically increasing per-device
   ``seq``) sent over the transport, where the
   :class:`~repro.fleet.transport.FaultModel` may drop, delay or eat
   them (storm windows ride on ``FaultModel.partitions``).
2. **Devices** — each device drains its inbox and answers with a live
   re-measured quote; the quote's cycle cost and both link delays are
   charged in simulated cycles.
3. **Admission** — returning quotes enter a bounded queue; when it is
   full the quote is *shed* (counted, never silently lost).  Responses
   for challenges that already timed out count as stale.
4. **Pipelined verification** — up to ``pipeline_depth`` modeled
   verifier lanes pull batches of ``batch_max`` quotes off the queue.
   A batch's *simulated* completion time is a pure cost model
   (``batch_setup_cycles`` + crypto-engine cycles per absorbed MAC
   word); the *actual* MAC checks run as
   :func:`repro.fleet.parallel.verify_quote_batch` on a process pool,
   overlapping wall-clock with the simulation.  Worker count changes
   how fast the report is produced, never what it says.
5. **Observability** — every ``snapshot_every_cycles`` a timeline
   entry (queue depth, outstanding, busy lanes, running totals) is
   recorded and handed to the optional ``on_snapshot`` hook; latency,
   batch size and queue depth land in ``MetricsRegistry`` histograms.

Determinism: everything the report contains is a pure function of
:class:`ServiceConfig` (which includes every simulation knob — tick
size, queue bound, lane count, batch bound, cost model).  The worker
count lives only in the report's trailing ``execution`` section,
exactly like the batch fleet's :class:`~repro.fleet.parallel.ExecutionPlan`.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from repro.crypto.sponge import memo_stats
from repro.crypto.tokens import NONCE_SIZE, NonceSource
from repro.errors import FleetError
from repro.fleet.device import FleetDevice, quote_material
from repro.fleet.executor import (
    RecoveryLog,
    RetryPolicy,
    TASK_RETRY,
    WORKER_CRASH,
)
from repro.fleet.loadgen import (
    Arrival,
    LoadProfile,
    build_schedule,
    storm_windows,
)
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.parallel import (
    QuoteCheckBatch,
    hydrate_devices,
    verify_quote_batch,
)
from repro.fleet.pool import discard_warm_pool, get_warm_pool
from repro.fleet.service import FleetConfig, prepare_run
from repro.fleet.transport import (
    CHALLENGE,
    InProcessTransport,
    LinkParameters,
    Message,
)
from repro.machine.devices.crypto_engine import CYCLES_PER_WORD

SCHEMA = "repro.serve/1"


@dataclass(frozen=True)
class ServiceConfig(LinkParameters):
    """One service run, fully determined by these fields.

    Every knob here may change the report; anything that must *not*
    (worker processes) is passed to :func:`run_service` separately and
    surfaces only under ``execution``.  ``rate_per_kcycle`` is mean
    arrivals per 1000 simulated cycles; burst and storm knobs are
    documented on :class:`~repro.fleet.loadgen.LoadProfile`.
    """

    devices: int = 8
    seed: int = 0
    compromise: int = 1
    duration_cycles: int = 60_000
    rate_per_kcycle: float = 2.0
    burst_every: int = 0
    burst_length: int = 0
    burst_multiplier: float = 1.0
    storm_up_mean: int = 0
    storm_down_mean: int = 0
    drop_rate: float = 0.0
    delay_min: int = 0
    delay_max: int = 256
    timeout_cycles: int = 8192
    tick_cycles: int = 256
    queue_capacity: int = 64
    batch_max: int = 8
    pipeline_depth: int = 2
    batch_setup_cycles: int = 512
    snapshot_every_cycles: int = 4096
    trace_capacity: int = 0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise FleetError("service needs at least one device")
        if not 0 <= self.compromise <= self.devices:
            raise FleetError(
                f"cannot compromise {self.compromise} of "
                f"{self.devices} devices"
            )
        if self.timeout_cycles <= 0:
            raise FleetError(
                f"timeout_cycles must be positive: {self.timeout_cycles}"
            )
        if self.tick_cycles < 1:
            raise FleetError(
                f"tick_cycles must be >= 1: {self.tick_cycles}"
            )
        if self.queue_capacity < 1:
            raise FleetError(
                f"queue_capacity must be >= 1: {self.queue_capacity}"
            )
        if self.batch_max < 1:
            raise FleetError(f"batch_max must be >= 1: {self.batch_max}")
        if self.pipeline_depth < 1:
            raise FleetError(
                f"pipeline_depth must be >= 1: {self.pipeline_depth}"
            )
        if self.batch_setup_cycles < 0:
            raise FleetError(
                f"batch_setup_cycles must be >= 0: {self.batch_setup_cycles}"
            )
        if self.snapshot_every_cycles < 1:
            raise FleetError(
                f"snapshot_every_cycles must be >= 1: "
                f"{self.snapshot_every_cycles}"
            )
        # Delegate the load-shape and link validation to LoadProfile
        # and FaultModel.
        self.profile()
        self.fault_model()

    def profile(self) -> LoadProfile:
        return LoadProfile(
            duration_cycles=self.duration_cycles,
            rate_per_kcycle=self.rate_per_kcycle,
            burst_every=self.burst_every,
            burst_length=self.burst_length,
            burst_multiplier=self.burst_multiplier,
            storm_up_mean=self.storm_up_mean,
            storm_down_mean=self.storm_down_mean,
        )


@dataclass(frozen=True)
class _Outstanding:
    """One challenge the service is still waiting on."""

    nonce: bytes
    sent_at: int


@dataclass
class _Admitted:
    """One quote sitting in the admission queue."""

    device_id: int
    seq: int
    nonce: bytes
    quote: bytes
    challenged_at: int
    admitted_at: int


@dataclass
class _Lane:
    """One modeled verifier pipeline lane."""

    busy_until: int = 0


@dataclass
class _Dispatched:
    """A batch in flight: modeled completion + the real check."""

    batch: QuoteCheckBatch
    done_at: int
    pool: object = field(default=None, repr=False)
    future: object = field(default=None, repr=False)
    inline: tuple[bool, ...] | None = None


class AttestationService:
    """Open-loop attestation server over a snapshot-hydrated fleet.

    Construct, then ``await run()`` (or use :func:`run_service`).  The
    instance is single-use: ``run()`` consumes the schedule and
    returns the ``repro.serve/1`` report.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        workers: int = 1,
        on_snapshot=None,
    ) -> None:
        if workers < 1:
            raise FleetError(f"workers must be >= 1: {workers}")
        self.config = config
        self.workers = workers
        self.on_snapshot = on_snapshot
        self.metrics = MetricsRegistry()
        self.recovery = RecoveryLog()

        # Reuse the batch fleet's preparation: golden boot, TLSC
        # encode, per-device keys, expected measurement rows, seeded
        # compromise choice, cached lint verdict.
        self._prepared = prepare_run(
            FleetConfig(
                devices=config.devices,
                rounds=1,
                seed=config.seed,
                compromise=config.compromise,
                timeout_cycles=config.timeout_cycles,
            )
        )
        profile = config.profile()
        self._storms = storm_windows(profile, seed=config.seed)
        self._schedule = build_schedule(
            profile, seed=config.seed, devices=config.devices
        )
        self.transport = InProcessTransport(
            seed=config.seed,
            fault_model=config.fault_model(partitions=self._storms),
        )
        self.devices = self._hydrate()
        self._keys = dict(self._prepared.keys)
        self._nonces = {
            device_id: NonceSource(f"serve-nonce:{config.seed}:{device_id}")
            for device_id in sorted(self.devices)
        }
        self._seq = {device_id: 0 for device_id in self.devices}
        # Modeled per-quote check cost: the crypto engine absorbs the
        # whole MAC material, CYCLES_PER_WORD per word.  Material
        # length is fixed per image, so compute it once.
        material_len = len(
            quote_material(
                b"\x00" * NONCE_SIZE, 1, 0, list(self._prepared.expected_rows)
            )
        )
        self.check_cycles_per_quote = CYCLES_PER_WORD * (
            (material_len + 3) // 4
        )
        self.timeline: list[dict] = []

    # ------------------------------------------------------------------

    def _hydrate(self) -> dict[int, FleetDevice]:
        """Clone every device from the decoded TLSC golden snapshot.

        The service only quotes its devices, never steps them, so the
        execution engine of the clones is moot.
        """
        devices = hydrate_devices(
            self._prepared.snapshot_blob,
            dict(self._prepared.keys),
            compromised=self._prepared.expected_compromised,
            trace_capacity=self.config.trace_capacity,
        )
        for device_id in devices:
            self.transport.register(device_id)
        return devices

    def _challenge(self, arrival: Arrival) -> None:
        device_id = arrival.device_id
        self._seq[device_id] += 1
        seq = self._seq[device_id]
        nonce = self._nonces[device_id].next_nonce()
        self.transport.send(
            Message(
                kind=CHALLENGE,
                device_id=device_id,
                seq=seq,
                sent_at=arrival.cycle,
                deliver_at=arrival.cycle,
                nonce=nonce,
            )
        )
        self.metrics.counter("serve_challenges_sent").inc()
        self._outstanding[(device_id, seq)] = _Outstanding(
            nonce=nonce, sent_at=arrival.cycle
        )

    def _device_turns(self, now: int) -> None:
        """Every device drains its inbox and answers (sorted order)."""
        for device_id in sorted(self.devices):
            errors = self.devices[device_id].answer(self.transport, now)
            if errors:
                self.metrics.counter("serve_device_errors").inc(errors)

    def _admit(self, now: int) -> None:
        """Move delivered quotes into the bounded admission queue."""
        capacity = self.config.queue_capacity
        for device_id in sorted(self.devices):
            for response in self.transport.poll("verifier", device_id, now):
                key = (device_id, response.seq)
                outstanding = self._outstanding.pop(key, None)
                if outstanding is None:
                    self.metrics.counter("serve_stale_responses").inc()
                    continue
                if len(self._queue) >= capacity:
                    self.metrics.counter("serve_shed").inc()
                    continue
                self._queue.append(
                    _Admitted(
                        device_id=device_id,
                        seq=response.seq,
                        nonce=outstanding.nonce,
                        quote=response.quote,
                        challenged_at=outstanding.sent_at,
                        admitted_at=response.deliver_at,
                    )
                )
                self.metrics.counter("serve_admitted").inc()

    def _expire(self, now: int) -> None:
        """Time out challenges nobody answered (drops, storms)."""
        expired = [
            key for key, outstanding in self._outstanding.items()
            if outstanding.sent_at + self.config.timeout_cycles <= now
        ]
        for key in sorted(expired):
            del self._outstanding[key]
            self.metrics.counter("serve_timeouts").inc()

    def _dispatch(self, now: int, loop) -> None:
        """Fill free verifier lanes with batches off the queue."""
        config = self.config
        for lane in self._lanes:
            if lane.busy_until > now or not self._queue:
                continue
            taken = self._queue[: config.batch_max]
            del self._queue[: config.batch_max]
            batch = QuoteCheckBatch(
                batch_index=self._batch_count,
                expected_rows=self._prepared.expected_rows,
                items=tuple(
                    (
                        item.device_id,
                        item.seq,
                        item.nonce,
                        item.quote,
                        self._keys[item.device_id],
                    )
                    for item in taken
                ),
            )
            cost = config.batch_setup_cycles + (
                self.check_cycles_per_quote * len(taken)
            )
            done_at = now + cost
            lane.busy_until = done_at
            for item in taken:
                self.metrics.histogram("serve_latency_cycles").observe(
                    done_at - item.challenged_at
                )
                self.metrics.histogram("serve_queue_wait_cycles").observe(
                    now - item.admitted_at
                )
            self.metrics.histogram("serve_batch_quotes").observe(len(taken))
            self.metrics.counter("serve_batches").inc()
            self.metrics.counter("serve_checked").inc(len(taken))
            self._batch_count += 1
            dispatched = _Dispatched(
                batch=batch, done_at=done_at, pool=self._pool
            )
            if self._pool is None:
                dispatched.inline = verify_quote_batch(batch)
            else:
                try:
                    dispatched.future = loop.run_in_executor(
                        self._pool, verify_quote_batch, batch
                    )
                except BrokenProcessPool:
                    # A broken pool rejects at *submit*; check inline
                    # (pure function — identical verdicts).
                    self._pool_broke(self._pool, batch.batch_index)
                    dispatched.inline = verify_quote_batch(batch)
            self._inflight.append(dispatched)

    def _pool_broke(self, pool, batch_index: int) -> None:
        """One ``worker_crash`` per broken pool, then the executor's
        rebuild-or-degrade ladder under the default ``RetryPolicy``;
        batches in flight on a replaced pool add no event."""
        if pool is not self._pool:
            return
        self.recovery.record(WORKER_CRASH, batch_index, 1)
        discard_warm_pool(self.workers)
        self._rebuilds += 1
        if self.recovery.pool_broke(RetryPolicy(), self._rebuilds):
            self._pool = None
        else:
            self._pool = get_warm_pool(self.workers)

    def _fold(self, batch: QuoteCheckBatch, verdicts: tuple) -> None:
        """Fold one checked batch into the running accept/reject state.

        Commutative (per-device counts add), so batches may fold in
        completion order — the report cannot tell the difference.
        """
        for item, ok in zip(batch.items, verdicts):
            device_id = item[0]
            if ok:
                self._accepted[device_id] = (
                    self._accepted.get(device_id, 0) + 1
                )
                self.metrics.counter("serve_quotes_accepted").inc()
            else:
                self._rejected[device_id] = (
                    self._rejected.get(device_id, 0) + 1
                )
                self.metrics.counter("serve_quotes_rejected").inc()

    def _resolve(self, dispatched: _Dispatched) -> tuple:
        """This batch's verdicts, recomputing inline on pool failure."""
        if dispatched.inline is not None:
            return dispatched.inline
        try:
            return dispatched.future.result()
        except BrokenProcessPool:
            self._pool_broke(dispatched.pool, dispatched.batch.batch_index)
        except Exception:
            self.recovery.record(TASK_RETRY, dispatched.batch.batch_index, 1)
        return verify_quote_batch(dispatched.batch)

    def _harvest_ready(self) -> None:
        """Fold every finished batch and drop it (per-tick streaming).

        The service used to hold all dispatched batches until drain
        and fold them at report time — O(batches) futures each pinning
        its verdicts.  Folding ready batches as the simulation ticks
        keeps the held set bounded by what is genuinely in flight.
        """
        still = []
        for dispatched in self._inflight:
            if dispatched.inline is None and not dispatched.future.done():
                still.append(dispatched)
                continue
            self._fold(dispatched.batch, self._resolve(dispatched))
        self._inflight = still

    def _snapshot(self, now: int) -> None:
        entry = {
            "cycle": now,
            "queue_depth": len(self._queue),
            "outstanding": len(self._outstanding),
            "busy_lanes": sum(
                1 for lane in self._lanes if lane.busy_until > now
            ),
            "admitted": self.metrics.counter("serve_admitted").value,
            "shed": self.metrics.counter("serve_shed").value,
            "checked": self.metrics.counter("serve_checked").value,
            "batches": self.metrics.counter("serve_batches").value,
        }
        self.timeline.append(entry)
        if self.on_snapshot is not None:
            self.on_snapshot(entry)

    async def _drain(self) -> None:
        """Await and fold the stragglers the per-tick harvest missed.

        ``verify_quote_batch`` is pure, so a batch recomputed after a
        worker crash returns exactly what the worker would have —
        recovery shows up under ``execution.recovery``, never in the
        verdicts.
        """
        for dispatched in self._inflight:
            if dispatched.inline is None:
                try:
                    await dispatched.future
                except Exception:
                    pass  # _resolve records and recomputes.
            self._fold(dispatched.batch, self._resolve(dispatched))
        self._inflight = []

    # ------------------------------------------------------------------

    async def run(self) -> dict:
        config = self.config
        loop = asyncio.get_running_loop()
        self._memo_before = memo_stats()
        # Warm pool from the shared registry: spun up at most once per
        # process and reused across service runs and batches; atexit
        # (or discard on breakage) retires it.
        self._pool = None
        if self.workers > 1:
            self._pool = get_warm_pool(self.workers)
        self._rebuilds = 0
        self._outstanding: dict[tuple[int, int], _Outstanding] = {}
        self._queue: list[_Admitted] = []
        self._lanes = [_Lane() for _ in range(config.pipeline_depth)]
        self._inflight: list[_Dispatched] = []
        self._batch_count = 0
        self._accepted: dict[int, int] = {}
        self._rejected: dict[int, int] = {}

        schedule = list(self._schedule)
        next_arrival = 0
        now = 0
        next_snapshot = config.snapshot_every_cycles
        while True:
            now_end = now + config.tick_cycles
            while (
                next_arrival < len(schedule)
                and schedule[next_arrival].cycle < now_end
            ):
                self._challenge(schedule[next_arrival])
                next_arrival += 1
            self._device_turns(now_end)
            self._admit(now_end)
            self._expire(now_end)
            self._dispatch(now_end, loop)
            self._harvest_ready()
            self.metrics.histogram("serve_queue_depth").observe(
                len(self._queue)
            )
            while next_snapshot <= now_end:
                self._snapshot(now_end)
                next_snapshot += config.snapshot_every_cycles
            now = now_end
            # Yield so pool result callbacks make progress while
            # the simulation keeps ticking.
            await asyncio.sleep(0)
            if (
                next_arrival >= len(schedule)
                and now >= config.duration_cycles
                and not self._outstanding
                and not self._queue
                and all(lane.busy_until <= now for lane in self._lanes)
            ):
                break
        await self._drain()
        return self._report(drained_at=now)

    # ------------------------------------------------------------------

    def _report(self, *, drained_at: int) -> dict:
        config = self.config
        prepared = self._prepared
        # Folded incrementally by _harvest_ready/_drain; only counts
        # survive to here, never the batches themselves.
        accepted = self._accepted
        rejected = self._rejected

        expected = set(prepared.expected_compromised)
        flagged = sorted(rejected)
        # ok: the service never rejects a healthy device's quote and
        # never accepts a tampered device's quote.  Devices whose
        # quotes all vanished (drops, storms, shedding) contribute
        # nothing — open-loop loss is measured, not masked.
        false_positives = sorted(set(flagged) - expected)
        false_negatives = sorted(
            device_id for device_id in expected if accepted.get(device_id)
        )
        ok = not false_positives and not false_negatives

        counters = {
            name: self.metrics.counter(name).value
            for name in (
                "serve_challenges_sent", "serve_admitted", "serve_shed",
                "serve_timeouts", "serve_stale_responses",
                "serve_device_errors", "serve_checked", "serve_batches",
                "serve_quotes_accepted", "serve_quotes_rejected",
            )
        }
        queue_depth = self.metrics.histogram("serve_queue_depth")
        profile = config.profile()
        return {
            "schema": SCHEMA,
            "config": asdict(config),
            **prepared.report_sections(),
            "load": {
                "arrivals": len(self._schedule),
                "offered_rate_per_kcycle": round(
                    len(self._schedule) * 1000 / config.duration_cycles, 3
                ),
                "burst_windows": [
                    list(window) for window in profile.burst_windows()
                ],
                "storm_windows": [
                    list(window) for window in self._storms
                ],
            },
            "service": {
                "admitted": counters["serve_admitted"],
                "shed": counters["serve_shed"],
                "timeouts": counters["serve_timeouts"],
                "stale": counters["serve_stale_responses"],
                "checked": counters["serve_checked"],
                "accepted": counters["serve_quotes_accepted"],
                "rejected": counters["serve_quotes_rejected"],
                "batches": counters["serve_batches"],
                "max_queue_depth": queue_depth.percentile(100),
                "drained_at_cycle": drained_at,
            },
            "latency": self.metrics.histogram(
                "serve_latency_cycles"
            ).summary(),
            "expected_compromised": list(prepared.expected_compromised),
            "flagged": {
                "compromised": flagged,
                "false_positives": false_positives,
                "false_negatives": false_negatives,
            },
            "ok": ok,
            "timeline": self.timeline,
            "transport": self.transport.stats.to_dict(),
            "metrics": self.metrics.to_dict(),
            "execution": {
                "workers": self.workers,
                "recovery": self.recovery.to_dict(),
                # Devices measure in this process; pooled quote checks
                # MAC material below the memo threshold.
                "sponge_memo": memo_stats(since=self._memo_before),
            },
        }


def run_service(
    config: ServiceConfig,
    *,
    workers: int = 1,
    on_snapshot=None,
) -> dict:
    """Run the whole service to drain; returns the JSON-ready report."""
    return asyncio.run(
        AttestationService(
            config, workers=workers, on_snapshot=on_snapshot
        ).run()
    )


def format_serve_report(report: dict) -> str:
    """Human-readable rendering of a ``run_service`` report."""
    from repro.fleet.service import _recovery_lines

    config = report["config"]
    load = report["load"]
    service = report["service"]
    latency = report["latency"]
    lines = [
        f"serve: {config['devices']} devices, "
        f"{config['duration_cycles']} cycles, seed {config['seed']}",
        f"load: {load['arrivals']} arrivals "
        f"({load['offered_rate_per_kcycle']}/kcycle), "
        f"{len(load['burst_windows'])} burst window(s), "
        f"{len(load['storm_windows'])} storm window(s)",
        f"admission: {service['admitted']} admitted, "
        f"{service['shed']} shed, {service['timeouts']} timed out, "
        f"{service['stale']} stale (queue depth max "
        f"{service['max_queue_depth']})",
        f"verified: {service['checked']} quotes in "
        f"{service['batches']} batch(es) — "
        f"{service['accepted']} accepted, {service['rejected']} rejected",
    ]
    if latency.get("count"):
        lines.append(
            f"latency cycles: p50={latency['p50']} p95={latency['p95']} "
            f"p99={latency['p99']} max={latency['max']}"
        )
    flagged = report["flagged"]
    lines.append(
        f"flagged compromised: {flagged['compromised'] or 'none'} "
        f"(expected {report['expected_compromised'] or 'none'})"
    )
    execution = report.get("execution")
    if execution:
        lines.append(f"execution: {execution['workers']} worker(s)")
        lines.extend(_recovery_lines(execution.get("recovery", {})))
    lines.append(f"verdict: {'OK' if report['ok'] else 'MISMATCH'}")
    return "\n".join(lines)
