"""Self-healing execution of plain-data tasks on a worker pool.

The sharded fleet executor and the OTA and fault campaigns fan pure
functions of picklable tasks out to worker processes.  A single
crashed or hung worker used to kill the whole run — this module wraps
the pool with the recovery ladder the ROADMAP's "degrades gracefully"
goal demands:

1. **Detect.**  Each task result is awaited with an optional per-task
   wall-clock timeout; a worker that dies surfaces as
   ``BrokenProcessPool``, a worker that hangs as a timeout.
2. **Requeue.**  The broken pool is torn down (hung workers are
   terminated), a fresh pool is built, and every unfinished task is
   resubmitted — results already collected are kept.  Because tasks
   are pure functions of their inputs, a retried task returns exactly
   the bytes the first attempt would have.  Every pool is *warm*
   (:mod:`repro.fleet.pool`): acquired from a per-worker-count
   registry and left running afterwards, so successive rounds,
   ``execute_run`` calls and service batches never pay fork/import
   spin-up again; only a broken pool is discarded and rebuilt.
3. **Degrade.**  When the pool keeps breaking
   (:attr:`RetryPolicy.max_pool_rebuilds` exceeded) or a single task
   keeps failing, the survivors run *in-process* — slower, but the
   report still completes.
4. **Account.**  Every recovery event lands in a
   :class:`RecoveryLog` (backed by the fleet
   :class:`~repro.fleet.metrics.MetricsRegistry`), including a
   deterministic simulated-cycle backoff charge per rebuild, so the
   report's ``execution`` section says what it took to produce it.

Delivery has one mode: every result is streamed to the caller's
``consume(index, result)`` as it completes — whether it came from a
worker, an inline retry or a degraded survivor — and then dropped.

A task that raises the same exception :attr:`RetryPolicy.max_attempts`
times is reported as a typed
:class:`~repro.errors.ShardExecutionError` carrying the shard id, the
attempt count and the underlying cause — callers never see a raw
``BrokenProcessPool``.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.errors import FleetError, ShardExecutionError
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.pool import discard_warm_pool, get_warm_pool

# Recovery event kinds; each increments an ``executor_<kind>`` counter
# and the aggregate ``executor_recoveries``.
WORKER_CRASH = "worker_crash"
TASK_TIMEOUT = "task_timeout"
TASK_RETRY = "task_retry"
POOL_REBUILD = "pool_rebuild"
DEGRADED = "degraded"

_KINDS = (WORKER_CRASH, TASK_TIMEOUT, TASK_RETRY, POOL_REBUILD, DEGRADED)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor fights before giving up.

    ``max_attempts`` bounds executions of one task (first try
    included); ``max_pool_rebuilds`` bounds fresh pools after
    crashes/hangs before degrading to in-process execution;
    ``timeout_s`` is the per-task wall-clock budget (``None`` =
    unbounded); ``backoff_cycles`` is the *simulated*-cycle charge
    recorded for rebuild ``k`` as ``backoff_cycles * 2**(k-1)``
    (:meth:`backoff`) — deterministic, never a wall-clock sleep.
    """

    max_attempts: int = 3
    max_pool_rebuilds: int = 2
    timeout_s: float | None = None
    backoff_cycles: int = 4096

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FleetError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.max_pool_rebuilds < 0:
            raise FleetError(
                f"max_pool_rebuilds must be >= 0: {self.max_pool_rebuilds}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise FleetError(f"timeout_s must be positive: {self.timeout_s}")
        if self.backoff_cycles < 0:
            raise FleetError(
                f"backoff_cycles must be >= 0: {self.backoff_cycles}"
            )

    def backoff(self, attempt: int) -> int:
        """Simulated-cycle backoff charged before retry ``attempt + 1``."""
        return self.backoff_cycles * 2 ** (attempt - 1)


class RecoveryLog:
    """Counted recovery events (a :class:`MetricsRegistry` underneath).

    The log is deliberately *separate* from the experiment's metrics
    registry: recovery is a property of one run's execution, not of
    the experiment, so its counters surface only in the report's
    ``execution`` section — the report payload stays byte-identical
    whether or not workers died along the way.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.events: list[dict] = []

    def record(
        self, kind: str, task_id, attempt: int, *, backoff_cycles: int = 0
    ) -> None:
        if kind not in _KINDS:
            raise FleetError(f"unknown recovery event kind {kind!r}")
        self.metrics.counter(f"executor_{kind}").inc()
        self.metrics.counter("executor_recoveries").inc()
        if backoff_cycles:
            self.metrics.counter("executor_backoff_cycles").inc(
                backoff_cycles
            )
        self.events.append(dict(
            kind=kind, task=task_id, attempt=attempt,
            backoff_cycles=backoff_cycles,
        ))

    def pool_broke(self, policy: RetryPolicy, rebuilds: int) -> bool:
        """One step of the rebuild-or-degrade ladder for the
        ``rebuilds``-th broken pool: record ``POOL_REBUILD`` with its
        backoff, or ``DEGRADED`` once ``max_pool_rebuilds`` is spent.
        Returns whether the caller must finish inline."""
        if rebuilds > policy.max_pool_rebuilds:
            self.record(DEGRADED, None, rebuilds)
            return True
        self.record(
            POOL_REBUILD, None, rebuilds,
            backoff_cycles=policy.backoff(rebuilds),
        )
        return False

    @property
    def recoveries(self) -> int:
        return self.metrics.counter("executor_recoveries").value

    def to_dict(self) -> dict:
        """JSON-ready counts for a report's ``execution`` section."""
        counters = {
            kind: self.metrics.counter(f"executor_{kind}").value
            for kind in _KINDS
        }
        counters["recoveries"] = self.recoveries
        counters["backoff_cycles"] = self.metrics.counter(
            "executor_backoff_cycles"
        ).value
        return counters


def run_resilient(
    fn,
    tasks: list,
    workers: int,
    *,
    consume,
    task_ids: list | None = None,
    policy: RetryPolicy | None = None,
    log: RecoveryLog | None = None,
) -> None:
    """Run ``fn`` over every task, streaming each result to
    ``consume(index, result)``, or raise :class:`ShardExecutionError`.

    ``fn`` must be an importable top-level callable and every task a
    pure, picklable value — retries rely on re-execution being
    byte-identical.  ``workers == 1`` (or a single task) runs inline
    with the same retry bounds and no pool at all.

    Results arrive in completion order, not task order, and are
    dropped once ``consume`` returns, so the coordinator never holds
    more than the result being folded.  Folds must therefore be
    order-independent, which every fleet merge is by construction.

    The pool comes from the warm registry in :mod:`repro.fleet.pool`
    and stays running for the next call; a crashed or hung pool is
    discarded from the registry before the rebuild.
    """
    if workers < 1:
        raise FleetError(f"workers must be >= 1: {workers}")
    policy = policy or RetryPolicy()
    log = log if log is not None else RecoveryLog()
    ids = list(task_ids) if task_ids is not None else list(range(len(tasks)))
    if len(ids) != len(tasks):
        raise FleetError(
            f"{len(tasks)} task(s) but {len(ids)} task id(s)"
        )

    # Attempts spent so far, per unfinished task index.
    pending: dict[int, int] = {index: 0 for index in range(len(tasks))}

    def finish_inline(index: int) -> None:
        """Run one task in-process with bounded retries."""
        attempts = pending.pop(index)
        while True:
            attempts += 1
            try:
                result = fn(tasks[index])
            except Exception as exc:
                if attempts >= policy.max_attempts:
                    raise ShardExecutionError(
                        ids[index], attempts, exc
                    ) from exc
                log.record(TASK_RETRY, ids[index], attempts)
                continue
            consume(index, result)
            return

    if workers == 1 or len(tasks) <= 1:
        for index in range(len(tasks)):
            finish_inline(index)
        return

    rebuilds = 0
    while pending:
        pool = get_warm_pool(workers)
        abandoned = False
        try:
            futures = {}
            try:
                for index in sorted(pending):
                    futures[pool.submit(fn, tasks[index])] = index
            except BrokenProcessPool:
                # A warm pool's workers are already running, so a
                # crashing task can break the pool while later tasks
                # are still being submitted.
                pending[index] += 1
                log.record(WORKER_CRASH, ids[index], pending[index])
                abandoned = True
            not_done = set(futures)
            while not_done and not abandoned:
                done, not_done = wait(
                    not_done,
                    timeout=policy.timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # No progress inside the per-task budget: the
                    # earliest task still out is hung.
                    index = min(futures[f] for f in not_done)
                    pending[index] += 1
                    log.record(TASK_TIMEOUT, ids[index], pending[index])
                    abandoned = True
                    break
                for future in sorted(done, key=lambda f: futures[f]):
                    # Drop the future before folding: a completed
                    # Future pins its result, and streaming merges
                    # must not accumulate them behind our back.
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pending[index] += 1
                        log.record(
                            WORKER_CRASH, ids[index], pending[index]
                        )
                        abandoned = True
                        break
                    except Exception as exc:
                        # The task itself failed; the pool is good.
                        pending[index] += 1
                        if pending[index] >= policy.max_attempts:
                            raise ShardExecutionError(
                                ids[index], pending[index], exc
                            ) from exc
                        log.record(TASK_RETRY, ids[index], pending[index])
                        continue
                    del pending[index]
                    consume(index, result)
                    del result, future
        finally:
            if abandoned:
                discard_warm_pool(workers)
        if not abandoned:
            continue
        rebuilds += 1
        # Once the pool is unrecoverable, every survivor runs inline.
        degraded = log.pool_broke(policy, rebuilds)
        # A task that keeps killing workers must not rebuild pools
        # forever: once it exhausts its attempts, run it inline now
        # and keep the pool for the healthy remainder.
        for index in sorted(pending):
            if degraded or pending[index] >= policy.max_attempts:
                finish_inline(index)
