"""Attestation service under open-loop load: throughput + tail latency.

The batch-fleet benchmarks report aggregate speedups; a *service* is
judged by what it sustains and what its tail looks like while faults
rage.  Following the TrustZone performance-measurement template
(Amacher & Schiavoni — sustained throughput plus percentiles, not one
average), this benchmark drives ``repro.fleet.server`` through three
scenarios and reports, per scenario:

* **sustained quotes/sec** — verified quotes over wall-clock seconds
  (the only wall-clock number; everything else is simulated cycles);
* **p50/p95/p99 verification latency in simulated cycles** —
  challenge send to modeled batch completion, including link delays,
  quote computation, queue wait and batch verification;
* the admission story — admitted / shed / timed out — so overload and
  outage scenarios are legible, not averaged away.

Scenarios: ``steady`` (Poisson only), ``bursty`` (4x burst trains on
top of the base rate), ``flap_storm`` (seeded link outage windows via
``FaultModel.partitions``).  Determinism is always asserted: the
steady report (minus ``execution``) must be byte-identical across a
rerun and across worker counts.

Scale knobs (so CI smoke runs stay quick):

    SERVICE_BENCH_DURATION  load horizon in cycles     (default 60000)
    SERVICE_BENCH_RATE      base arrivals per kcycle   (default 3.0)
    SERVICE_BENCH_DEVICES   fleet size                 (default 8)
    SERVICE_BENCH_WORKERS   pool size for quote checks (default 1)
"""

import json
import os
import time

from benchmarks._util import (
    detect_host_cores,
    write_artifact,
    write_bench_json,
)
from repro.fleet import ServiceConfig, run_service

DURATION = int(os.environ.get("SERVICE_BENCH_DURATION", "60000"))
RATE = float(os.environ.get("SERVICE_BENCH_RATE", "3.0"))
DEVICES = int(os.environ.get("SERVICE_BENCH_DEVICES", "8"))
WORKERS = int(os.environ.get("SERVICE_BENCH_WORKERS", "1"))
SEED = 11

SCENARIOS = {
    "steady": dict(),
    "bursty": dict(
        burst_every=max(1, DURATION // 4),
        burst_length=max(1, DURATION // 8),
        burst_multiplier=4.0,
    ),
    "flap_storm": dict(
        storm_up_mean=max(1, DURATION // 8),
        storm_down_mean=max(1, DURATION // 16),
        drop_rate=0.05,
    ),
}


def _config(extra: dict) -> ServiceConfig:
    return ServiceConfig(
        devices=DEVICES,
        seed=SEED,
        compromise=1,
        duration_cycles=DURATION,
        rate_per_kcycle=RATE,
        delay_min=0,
        delay_max=256,
        **extra,
    )


def _canonical(report: dict) -> str:
    report = dict(report)
    report.pop("execution")
    return json.dumps(report, sort_keys=True)


def test_service_load():
    """Three load scenarios; steady report deterministic across reruns
    and worker counts."""
    workloads = {}
    reports = {}
    for name, extra in SCENARIOS.items():
        config = _config(extra)
        started = time.perf_counter()
        report = run_service(config, workers=WORKERS)
        elapsed = time.perf_counter() - started
        assert report["ok"] is True, f"{name}: verdict mismatch"
        reports[name] = report
        service = report["service"]
        latency = report["latency"]
        workloads[name] = {
            "arrivals": report["load"]["arrivals"],
            "offered_rate_per_kcycle":
                report["load"]["offered_rate_per_kcycle"],
            "admitted": service["admitted"],
            "shed": service["shed"],
            "timeouts": service["timeouts"],
            "checked": service["checked"],
            "batches": service["batches"],
            "max_queue_depth": service["max_queue_depth"],
            "seconds": round(elapsed, 3),
            "quotes_per_sec": round(service["checked"] / elapsed, 1),
            "latency_cycles": {
                "p50": latency.get("p50", 0),
                "p95": latency.get("p95", 0),
                "p99": latency.get("p99", 0),
                "max": latency.get("max", 0),
            },
        }

    # The scenarios must actually exercise their regimes.
    assert reports["bursty"]["load"]["burst_windows"]
    assert reports["flap_storm"]["load"]["storm_windows"]
    assert reports["flap_storm"]["service"]["timeouts"] > 0, (
        "flap storm produced no timeouts — outages not biting"
    )
    assert reports["flap_storm"]["transport"]["partition_dropped"] > 0

    # Determinism: same seed, same report — across reruns and workers.
    steady = _canonical(reports["steady"])
    assert steady == _canonical(run_service(_config({}), workers=WORKERS))
    other_workers = 2 if WORKERS == 1 else 1
    assert steady == _canonical(
        run_service(_config({}), workers=other_workers)
    ), "report changed with worker count"

    # Host-core evidence (affinity/quota aware, ``REPRO_HOST_CORES``
    # overridable): quotes/sec from a quota-capped runner must not
    # read like a full-width host's.
    cores = detect_host_cores()
    lines = [
        f"attestation service, {DEVICES} devices, horizon {DURATION} "
        f"cycles, base rate {RATE}/kcycle, {WORKERS} worker(s), "
        f"{cores['usable']} usable core(s) ({cores['source']})",
        f"  {'scenario':>11}{'arrivals':>9}{'checked':>8}{'shed':>6}"
        f"{'timeout':>8}{'q/s':>8}{'p50':>7}{'p95':>7}{'p99':>7}",
    ]
    for name, row in workloads.items():
        lat = row["latency_cycles"]
        lines.append(
            f"  {name:>11}{row['arrivals']:>9}{row['checked']:>8}"
            f"{row['shed']:>6}{row['timeouts']:>8}"
            f"{row['quotes_per_sec']:>8.1f}"
            f"{lat['p50']:>7}{lat['p95']:>7}{lat['p99']:>7}"
        )
    lines.append(
        "  latency percentiles in simulated cycles; q/s is wall clock"
    )
    lines.append(
        "  determinism: steady report byte-identical across reruns "
        "and worker counts"
    )
    write_artifact("service_load.txt", "\n".join(lines))

    write_bench_json(
        "service_load",
        {
            "devices": DEVICES,
            "duration_cycles": DURATION,
            "rate_per_kcycle": RATE,
            "workers": WORKERS,
            "seed": SEED,
            "host_cores": cores["usable"],
            "host_cores_evidence": cores,
            "deterministic_across_workers": True,
            "workloads": workloads,
        },
    )
