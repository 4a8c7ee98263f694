"""Fleet attestation at scale: clone cost vs cold boots, round latency.

The fleet subsystem's founding claim is that stamping devices out of a
golden snapshot is an order of magnitude cheaper than booting each one
through the Secure Loader (which wipes data word by word and sponge-
measures every module).  This benchmark pins that claim — snapshot-
cloning N devices must beat N cold boots by at least 10x — and
characterizes a full attestation round over the cloned fleet.

Scale knobs (so CI smoke runs stay quick):

    FLEET_BENCH_DEVICES   fleet size          (default 64)
    FLEET_BENCH_ROUNDS    attestation rounds  (default 1)
"""

import os
import time

from benchmarks._util import write_artifact, write_bench_json
from repro.core.platform import TrustLitePlatform
from repro.fleet import FleetConfig, run_fleet
from repro.machine import Snapshot
from repro.sw.images import build_attestation_image

DEVICES = int(os.environ.get("FLEET_BENCH_DEVICES", "64"))
ROUNDS = int(os.environ.get("FLEET_BENCH_ROUNDS", "1"))
SPEEDUP_FLOOR = 10.0


def _cold_boot():
    platform = TrustLitePlatform()
    platform.boot(build_attestation_image())
    return platform


def test_snapshot_clone_beats_cold_boot(benchmark):
    """Cloning N devices is >= 10x faster than N cold boots."""
    golden = _cold_boot()
    snapshot = Snapshot.save(golden)

    started = time.perf_counter()
    for _ in range(DEVICES):
        _cold_boot()
    boot_total = time.perf_counter() - started

    started = time.perf_counter()
    clones = [snapshot.clone() for _ in range(DEVICES)]
    clone_total = time.perf_counter() - started

    assert len(clones) == DEVICES
    assert Snapshot.save(clones[-1]) == snapshot
    # Copy-on-first-write: a clone shares the snapshot's memory bytes.
    copied = sum(
        getattr(mapping.device, "copied_bytes", 0)
        for clone in clones for mapping in clone.bus.mappings
    )
    assert copied == 0
    speedup = boot_total / clone_total
    lines = [
        f"fleet provisioning, {DEVICES} devices",
        f"  {DEVICES} cold boots : {boot_total * 1e3:9.1f} ms",
        f"  {DEVICES} clones     : {clone_total * 1e3:9.1f} ms",
        f"  speedup        : {speedup:9.1f}x "
        f"(floor {SPEEDUP_FLOOR:.0f}x)",
        f"  state/device   : {snapshot.memory_bytes // 1024} KiB "
        f"(copied per clone: {copied // DEVICES} B)",
    ]
    write_artifact("fleet_attest.txt", "\n".join(lines))
    write_bench_json(
        "fleet_attest",
        {
            "devices": DEVICES,
            "speedup_floor": SPEEDUP_FLOOR,
            "workloads": {
                "provisioning": {
                    "cold_boot_ms": round(boot_total * 1e3, 2),
                    "clone_ms": round(clone_total * 1e3, 2),
                    "speedup": round(speedup, 2),
                    "state_bytes_per_device": snapshot.memory_bytes,
                    "copied_bytes_per_device": copied // DEVICES,
                },
            },
        },
    )
    assert clone_total * SPEEDUP_FLOOR <= boot_total, (
        f"clone speedup only {speedup:.1f}x "
        f"({clone_total * 1e3:.1f} ms vs {boot_total * 1e3:.1f} ms)"
    )
    benchmark(snapshot.clone)


def test_single_clone_cost(benchmark):
    snapshot = Snapshot.save(_cold_boot())
    clone = benchmark(snapshot.clone)
    assert clone.cpu.cycles == snapshot.cpu.cycles


def test_fleet_round_shape_and_latency(benchmark):
    """One full experiment: verdicts correct, metrics well-formed."""
    config = FleetConfig(
        devices=DEVICES, rounds=ROUNDS, seed=7, compromise=1,
        delay_min=0, delay_max=512,
    )
    report = benchmark.pedantic(
        run_fleet, args=(config,), rounds=1, iterations=1
    )
    assert report["ok"] is True
    assert len(report["flagged"]["compromised"]) == 1
    latency = report["metrics"]["histograms"]["fleet_round_latency_cycles"]
    assert latency["count"] == (DEVICES - 1) * ROUNDS
    assert 0 < latency["p50"] <= latency["p95"] <= latency["max"]
    counters = report["metrics"]["counters"]
    assert counters["fleet_challenges_sent"] == DEVICES * ROUNDS
