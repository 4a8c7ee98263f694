"""Persistent warm worker pools and adaptive shard sizing.

Profiling the PR 4 executor showed two fixed costs eating the
parallelism: every round built (and tore down) a fresh
``ProcessPoolExecutor`` — fork, import, first-task warmup — and every
fleet paid a per-shard dispatch overhead that dwarfed small shards.
This module removes both:

* :func:`get_warm_pool` hands out a **process pool that persists
  across calls** (rounds, ``execute_run`` invocations,
  ``AttestationService`` batches) keyed by worker count.  Pools are
  forked eagerly and verified idle-alive; a pool whose workers died —
  or whose fork-time environment went stale (see below) — is rebuilt
  transparently.
* :class:`CostModel` keeps an EWMA of measured per-device seconds and
  :func:`adaptive_shard_size` turns it into a shard size that
  amortizes dispatch overhead while still giving every worker a few
  shards to balance across.

The crash-injection hook ``REPRO_FLEET_TEST_CRASH`` (consumed in
:func:`repro.fleet.parallel._maybe_crash_for_test`) reads the
environment *workers inherited at fork time*.  A warm pool forked
before a test sets the variable would never crash — so the registry
snapshots the variable at fork and treats any change as staleness,
rebuilding the pool.  That keeps the recovery tests (and any operator
using the hook) working unchanged under pool reuse.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.errors import FleetError

# Test hook: ``REPRO_FLEET_TEST_CRASH=<flag-file>:<shard-index>`` makes
# the worker that picks up that shard die hard (``os._exit``) exactly
# once — the flag file is consumed first, so the retry succeeds.  This
# is how the executor-recovery tests and the CI fleet-scale job kill a
# real pool worker mid-run without patching library code.  Defined
# here (the lowest fleet layer that must observe it) and re-exported
# by :mod:`repro.fleet.parallel`.
_CRASH_ENV = "REPRO_FLEET_TEST_CRASH"


def _warmup() -> bool:
    """No-op worker task; forces lazy process spawn during warm-up."""
    return True


@dataclass
class _PoolEntry:
    pool: ProcessPoolExecutor
    crash_env: str | None


@dataclass
class PoolStats:
    """Cumulative registry accounting (coordinator-side, wall clock)."""

    created: int = 0
    reused: int = 0
    discarded: int = 0
    spinup_seconds: float = 0.0
    last_spinup_seconds: float = 0.0


_POOLS: dict[int, _PoolEntry] = {}
_STATS = PoolStats()


def pool_stats() -> PoolStats:
    return _STATS


def _alive(entry: _PoolEntry) -> bool:
    pool = entry.pool
    if getattr(pool, "_broken", False) or getattr(pool, "_shutdown_thread", False):
        return False
    return True


def get_warm_pool(workers: int) -> ProcessPoolExecutor:
    """A ready pool of ``workers`` processes, reused when possible.

    The pool is *warm*: on first construction every worker is forked
    and has executed one no-op task before this returns, so the caller
    never pays spawn latency inside a timed region.  The spin-up cost
    lands in :func:`pool_stats` instead.  Do not ``shutdown()`` the
    returned pool — hand it back by simply dropping it, or call
    :func:`discard_warm_pool` if it broke.
    """
    if workers < 2:
        raise FleetError(f"warm pools need workers >= 2: {workers}")
    crash_env = os.environ.get(_CRASH_ENV)
    entry = _POOLS.get(workers)
    if entry is not None:
        if _alive(entry) and entry.crash_env == crash_env:
            _STATS.reused += 1
            _STATS.last_spinup_seconds = 0.0
            return entry.pool
        discard_warm_pool(workers)
    started = time.perf_counter()
    pool = ProcessPoolExecutor(max_workers=workers)
    # Fork and import eagerly: one no-op per worker.  (The executor
    # may satisfy them with fewer processes; submitting ``workers``
    # tasks still forces the full complement under the default
    # spawn-on-demand policy because none has finished yet.)
    for future in [pool.submit(_warmup) for _ in range(workers)]:
        future.result()
    spinup = time.perf_counter() - started
    _POOLS[workers] = _PoolEntry(pool=pool, crash_env=crash_env)
    _STATS.created += 1
    _STATS.spinup_seconds += spinup
    _STATS.last_spinup_seconds = spinup
    return pool


def discard_warm_pool(workers: int) -> None:
    """Forget the pool for ``workers`` (broken, hung or stale) and tear
    it down without waiting; the next :func:`get_warm_pool` builds fresh.
    """
    entry = _POOLS.pop(workers, None)
    if entry is None:
        return
    _STATS.discarded += 1
    # Snapshot the worker handles first: shutdown() clears _processes.
    processes = list((entry.pool._processes or {}).values())
    entry.pool.shutdown(wait=False, cancel_futures=True)
    # A *hung* worker never exits on its own; terminate so neither the
    # executor's management thread nor interpreter exit blocks on it.
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


def shutdown_warm_pools() -> None:
    """Shut every warm pool down (tests, interpreter exit)."""
    for workers in list(_POOLS):
        entry = _POOLS.pop(workers)
        try:
            entry.pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass


atexit.register(shutdown_warm_pools)


# ---------------------------------------------------------------------------
# Adaptive shard sizing.

#: Target shards per worker: enough slack for the pool to balance a
#: crashed/slow worker's queue across survivors, few enough that the
#: per-shard dispatch overhead stays amortized.
SHARDS_PER_WORKER = 4

#: Per-shard dispatch overhead budget: size shards so the measured
#: device work per shard is at least this many seconds.
MIN_SHARD_SECONDS = 0.25

MIN_SHARD_DEVICES = 4
MAX_SHARD_DEVICES = 1024


@dataclass
class CostModel:
    """EWMA of measured per-device wall seconds (coordinator-side).

    Purely advisory: it sizes shards for the *next* run, never changes
    what any run computes.  ``alpha`` weights the newest observation.
    """

    alpha: float = 0.4
    per_device_s: float | None = None
    observations: int = 0

    def observe(self, devices: int, seconds: float) -> None:
        if devices < 1 or seconds <= 0:
            return
        sample = seconds / devices
        if self.per_device_s is None:
            self.per_device_s = sample
        else:
            self.per_device_s += self.alpha * (sample - self.per_device_s)
        self.observations += 1


_COST_MODEL = CostModel()


def cost_model() -> CostModel:
    return _COST_MODEL


def adaptive_shard_size(
    devices: int,
    workers: int,
    *,
    per_device_s: float | None = None,
) -> int:
    """Devices per shard for this fleet, from measured per-device cost.

    Two pressures, clamped to ``[MIN_SHARD_DEVICES, MAX_SHARD_DEVICES]``
    (and the fleet size):

    * **balance** — about :data:`SHARDS_PER_WORKER` shards per worker,
      so stragglers and requeued shards level out;
    * **amortization** — a shard should carry at least
      :data:`MIN_SHARD_SECONDS` of measured device work, so dispatch
      overhead cannot dominate when devices are cheap.

    With no cost measurement yet, balance alone decides.
    """
    if devices < 1:
        raise FleetError("cannot size shards for an empty fleet")
    if workers < 1:
        raise FleetError(f"workers must be >= 1: {workers}")
    if per_device_s is None:
        per_device_s = _COST_MODEL.per_device_s
    balance = max(1, devices // (workers * SHARDS_PER_WORKER))
    size = balance
    if per_device_s and per_device_s > 0:
        amortized = int(MIN_SHARD_SECONDS / per_device_s) + 1
        size = max(balance, amortized)
    size = max(MIN_SHARD_DEVICES, min(size, MAX_SHARD_DEVICES))
    return min(size, devices)
