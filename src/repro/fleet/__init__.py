"""Fleet-scale remote attestation over snapshot-cloned devices.

The paper targets *large numbers of tiny devices*; this package scales
the single-platform simulator out to a fleet:

* :mod:`repro.fleet.transport` — challenge/response messages over a
  lossy, delayed, seed-deterministic in-process link;
* :mod:`repro.fleet.device` — the device endpoint: live code
  re-measurement MAC'd under a per-device key, replay protection;
* :mod:`repro.fleet.verifier` — batched challenges, one loop over the
  device endpoints, healthy/compromised/unresponsive verdicts with
  retry and timeout in simulated cycles;
* :mod:`repro.fleet.metrics` — counters and latency histograms
  exported as JSON;
* :mod:`repro.fleet.parallel` — the sharded executor: the fleet cut
  into worker-count-independent shards, each hydrated from the encoded
  golden snapshot (:func:`~repro.fleet.parallel.hydrate_devices`) on a
  process pool, with an order-independent streaming merge
  (:class:`~repro.fleet.parallel.ShardMerger`);
* :mod:`repro.fleet.shm` — the golden blob shipped once per run via
  POSIX shared memory with guaranteed unlink;
* :mod:`repro.fleet.pool` — persistent warm worker pools and
  measured-cost adaptive shard sizing;
* :mod:`repro.fleet.service` — the one-call experiment: boot one
  golden image, snapshot-clone N devices, tamper some, attest all;
* :mod:`repro.fleet.loadgen` — seeded open-loop traffic: Poisson
  arrivals, burst trains, flap storms, all pure functions of the seed;
* :mod:`repro.fleet.server` — the long-running asyncio attestation
  service: devices stream quotes in, a bounded admission queue feeds
  pipelined batch verification on the process pool, and the
  ``repro.serve/1`` report is byte-identical per seed.
"""

from repro.fleet.device import FleetDevice
from repro.fleet.executor import (
    RecoveryLog,
    RetryPolicy,
    run_resilient,
)
from repro.fleet.loadgen import (
    Arrival,
    LoadProfile,
    build_schedule,
    storm_windows,
)
from repro.fleet.metrics import Counter, Histogram, MetricsRegistry
from repro.fleet.parallel import (
    ENGINE_REFERENCE,
    ENGINE_TRACE,
    ENGINES,
    ExecutionPlan,
    engine_kwargs,
    QuoteCheckBatch,
    ShardMerger,
    ShardTask,
    hydrate_devices,
    run_shard,
    run_shards,
    shard_ids,
    verify_quote_batch,
)
from repro.fleet.pool import (
    CostModel,
    PoolStats,
    adaptive_shard_size,
    cost_model,
    discard_warm_pool,
    get_warm_pool,
    pool_stats,
    shutdown_warm_pools,
)
from repro.fleet.server import (
    AttestationService,
    ServiceConfig,
    format_serve_report,
    run_service,
)
from repro.fleet.service import (
    FleetConfig,
    PreparedRun,
    device_key,
    execute_run,
    format_report,
    prepare_run,
    run_fleet,
)
from repro.fleet.shm import SharedBlob, SharedBlobRef, attach_ref
from repro.fleet.transport import (
    FaultModel,
    InProcessTransport,
    Message,
    TransportStats,
    flap_windows,
)
from repro.fleet.verifier import (
    COMPROMISED,
    DeviceVerdict,
    FleetVerifier,
    HEALTHY,
    UNRESPONSIVE,
)

__all__ = [
    "Arrival",
    "AttestationService",
    "COMPROMISED",
    "CostModel",
    "Counter",
    "DeviceVerdict",
    "ENGINE_REFERENCE",
    "ENGINE_TRACE",
    "ENGINES",
    "ExecutionPlan",
    "FaultModel",
    "FleetConfig",
    "FleetDevice",
    "FleetVerifier",
    "HEALTHY",
    "Histogram",
    "InProcessTransport",
    "LoadProfile",
    "Message",
    "MetricsRegistry",
    "PoolStats",
    "PreparedRun",
    "QuoteCheckBatch",
    "RecoveryLog",
    "RetryPolicy",
    "ServiceConfig",
    "SharedBlob",
    "SharedBlobRef",
    "ShardMerger",
    "ShardTask",
    "TransportStats",
    "UNRESPONSIVE",
    "adaptive_shard_size",
    "attach_ref",
    "build_schedule",
    "cost_model",
    "device_key",
    "discard_warm_pool",
    "engine_kwargs",
    "execute_run",
    "flap_windows",
    "format_report",
    "format_serve_report",
    "get_warm_pool",
    "hydrate_devices",
    "pool_stats",
    "prepare_run",
    "run_fleet",
    "run_resilient",
    "run_service",
    "run_shard",
    "run_shards",
    "shard_ids",
    "shutdown_warm_pools",
    "storm_windows",
    "verify_quote_batch",
]
