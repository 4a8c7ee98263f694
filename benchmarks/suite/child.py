"""One measured run of one workload, in a fresh process.

    python -m benchmarks.suite.child fleet-attest --seed 1 --spawned-at T

The driver spawns this module and passes ``time.monotonic()`` from just
before the spawn, so ``setup_s`` covers interpreter start, imports and
the workload's set-up.  The process then makes the one timed call,
reaps its worker processes and prints one JSON record as its last
line.  Without ``--trace`` it samples the host's speed from start to
end and reports a host factor for set-up and one for the timed call
(:mod:`benchmarks.suite.hostspeed`).  With ``--trace`` the span wrappers are installed after set-up
(before any pool forks) and the record carries the per-layer table;
the spans themselves go to ``benchmarks/suite/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import sys
import threading
import time

from benchmarks.suite import hostspeed, spans
from benchmarks.suite.workloads import WORKLOADS

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
SHM_DIR = "/dev/shm"


def _segments(prefix: str) -> set[str]:
    if not os.path.isdir(SHM_DIR):
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith(prefix)}


def _thread_cpu() -> dict:
    """CPU seconds of every live thread except the calling one."""
    cpu = {}
    for thread in threading.enumerate():
        if thread is threading.current_thread() or thread.ident is None:
            continue
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            cpu[thread] = time.clock_gettime(clock)
        except OSError:
            pass  # the thread ended meanwhile
    return cpu


def _percentile(samples: list[float], pct: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def layer_metrics(summary: dict, report_layers: dict, record: dict) -> dict:
    """The per-layer table, ``name -> (value, unit)``.

    ``*_s`` values are CPU seconds summed over threads and processes
    unless the name says ``wall``; self time excludes nested spans,
    while ``core.measure_s``, ``machine.guest_s``, ``machine.hydrate_s``
    and the OTA/server entry points are inclusive of what they call.
    """
    names = summary["names"]
    counters = summary["counters"]

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def cpu(name, key="self_cpu"):
        return names[name][key] if name in names else 0.0

    sponge = cpu("crypto.update") + cpu("crypto.digest")
    absorbed = counters.get("crypto.bytes_absorbed", 0)
    measures = calls("core.measure")
    quote_ms = [
        sample * 1e3
        for sample in (names["core.quote"]["samples"]
                       if "core.quote" in names else [])
    ]
    guest = cpu("machine.guest", "cpu")
    instructions = counters.get("machine.guest_instructions", 0)
    lookups = report_layers.get("decode_lookups", 0)
    shard_wall = cpu("parallel.shard", "wall")
    return {
        "crypto.sponge_s": (sponge, "s"),
        "crypto.bytes_absorbed": (absorbed, "count"),
        "crypto.sponge_mb_per_s": (
            absorbed / 1e6 / sponge if sponge else 0.0, "MB/s"
        ),
        "core.measure_calls": (measures, "count"),
        "core.measure_s": (cpu("core.measure", "cpu"), "s"),
        "core.measure_repeat_ratio": (
            counters.get("core.measure_repeats", 0) / measures
            if measures else 0.0,
            "ratio",
        ),
        "core.quotes": (calls("core.quote"), "count"),
        "core.quote_ms_p50": (_percentile(quote_ms, 50), "ms"),
        "core.quote_ms_p99": (_percentile(quote_ms, 99), "ms"),
        "core.boot_signed_s": (cpu("core.boot_signed", "cpu"), "s"),
        "ota.container_s": (
            cpu("ota.decode", "cpu") + cpu("ota.verify", "cpu"), "s"
        ),
        "ota.chunks": (report_layers.get("ota.chunks", 0), "count"),
        "ota.chunk_retries": (
            report_layers.get("ota.chunk_retries", 0), "count"
        ),
        "machine.guest_s": (guest, "s"),
        "machine.guest_instructions": (instructions, "count"),
        "machine.guest_ips": (instructions / guest if guest else 0.0, "1/s"),
        "machine.decode_cache_hit_ratio": (
            report_layers.get("decode_hits", 0) / lookups if lookups else 0.0,
            "ratio",
        ),
        "machine.trace_instruction_share": (
            report_layers.get("trace_instructions", 0) / instructions
            if instructions else 0.0,
            "ratio",
        ),
        "machine.hydrate_s": (
            cpu("machine.clone", "cpu") + cpu("machine.decode", "cpu"), "s"
        ),
        "machine.clones": (calls("machine.clone"), "count"),
        "proc.coordinator_rss_mb": (record["coordinator_rss_mb"], "MB"),
        "proc.worker_rss_mb": (record["worker_rss_mb"], "MB"),
        "verifier.s": (
            cpu("verifier.round") + cpu("verifier.expected_quote"), "s"
        ),
        "verifier.pool_overhead_s": (summary["pool_overhead"], "s"),
        "verifier.retries": (
            report_layers.get("verifier.retries", 0), "count"
        ),
        "parallel.shards": (report_layers.get("parallel.shards", 0), "count"),
        "parallel.shard_cpu_s": (summary["shard_cpu"], "s"),
        "parallel.merge_s": (cpu("parallel.merge", "cpu"), "s"),
        "parallel.worker_busy_ratio": (
            shard_wall / (report_layers["workers"] * record["wall_s"]),
            "ratio",
        ),
        "pool.spinup_wall_s": (
            report_layers.get("pool.spinup_wall_s", 0.0), "s"
        ),
        "shm.ship_wall_s": (report_layers.get("shm.ship_wall_s", 0.0), "s"),
        "executor.recoveries": (
            report_layers.get("executor.recoveries", 0), "count"
        ),
        "transport.s": (
            cpu("transport.send") + cpu("transport.poll"), "s"
        ),
        "transport.messages": (calls("transport.send"), "count"),
        "server.s": (cpu("server.run"), "s"),
        "server.verify_batch_s": (cpu("server.verify_batch", "cpu"), "s"),
        "server.batches": (report_layers.get("server.batches", 0), "count"),
        "trace.unattributed_s": (
            sum(p["unattributed"] for p in summary["processes"]), "s"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject", action="store_true")
    args = parser.parse_args(argv)
    # A traced process reports only per-layer metrics, in host seconds;
    # its spans would otherwise have to account for the samples.
    sampler = None if args.trace else hostspeed.Sampler()

    from repro.fleet import shutdown_warm_pools
    from repro.fleet.shm import SEGMENT_PREFIX

    workload = WORKLOADS[args.workload]
    run = workload.setup(args.seed, args.quick, args.inject)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        install_problems = spans.install(recorder)
        threads_before = _thread_cpu()
    segments = _segments(SEGMENT_PREFIX)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)

    started = time.monotonic()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    if recorder is not None:
        recorder.active = True
        root = recorder.open(spans.ROOT)
    report = run.call()
    cpu_self = time.process_time() - cpu_started
    wall_ended = time.perf_counter()
    ended = time.monotonic()
    wall = wall_ended - wall_started
    host_setup = host_call = 1.0
    if sampler is not None:
        sampler.stop()
        cpu_self -= sampler.cpu_s(started, ended)
        host_setup = sampler.factor(args.spawned_at, started)
        host_call = sampler.factor(started, ended)
    if recorder is not None:
        # The process pool's feeder and result threads run no wrapped
        # function; their thread CPU is the pool layer's.
        traced_threads = {span[3] for span in recorder.spans}
        for thread, cpu in _thread_cpu().items():
            if thread.ident not in traced_threads:
                recorder.add_thread(
                    "pool.threads", thread.ident,
                    cpu - threads_before.get(thread, 0.0),
                    (wall_started, wall_ended), root[0],
                )
        recorder.close(root)
        recorder.active = False

    # Reap the warm pool so the workers' CPU and peak RSS are counted.
    shutdown_warm_pools()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = resource.getrusage(resource.RUSAGE_SELF)
    cpu_children = (children.ru_utime + children.ru_stime) - (
        children_before.ru_utime + children_before.ru_stime
    )
    problems = workload.problems(report)
    leaked = sorted(_segments(SEGMENT_PREFIX) - segments)
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")

    ops = workload.ops(report)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": started - args.spawned_at,
        # Divide a host time by the factor of its window to get
        # reference seconds (1.0 in a traced process).
        "host_setup": host_setup,
        "host_call": host_call,
        "wall_s": wall,
        "cpu_s": cpu_self + cpu_children,
        "ops": ops,
        "attempted": workload.attempted(report),
        "failed": workload.failed(report),
        # ru_maxrss is in KiB on Linux.
        "coordinator_rss_mb": own.ru_maxrss / 1024,
        "worker_rss_mb": children.ru_maxrss / 1024,
        "payload": workload.payload_digest(report),
        "check": workload.check_value(report),
        "problems": problems,
    }
    record["peak_rss_mb"] = max(
        record["coordinator_rss_mb"], record["worker_rss_mb"]
    )
    if recorder is not None:
        summary = spans.summarize(
            [recorder.table(cpu_self)] + recorder.remote
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans.write_spans(OUT_DIR / f"spans-{workload.name}.jsonl", summary)
        record["layers"] = {
            name: list(value)
            for name, value in layer_metrics(
                summary, workload.report_layers(report, run.stages), record
            ).items()
        }
        record["spans"] = {
            name: {
                "calls": row["calls"],
                "self_cpu_s": row["self_cpu"],
                "cpu_s": row["cpu"],
            }
            for name, row in sorted(summary["names"].items())
        }
        record["processes"] = summary["processes"]
        record["coverage"] = install_problems + spans.coverage_problems(
            workload.expected_spans(report), summary
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
