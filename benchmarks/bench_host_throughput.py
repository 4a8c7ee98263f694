"""Host execution throughput: the trace engine vs reference.

The cached engine — decode cache, EA-MPU lookaside and bus routing
cache (:mod:`repro.machine.fastpath`) with recorded traces on top
(:mod:`repro.machine.traces`) — exists to make the simulator fast
enough for fleet-scale experiments without changing a single
architectural outcome.  This benchmark pins the speed half of that
claim — the correctness half is pinned by
``tests/integration/test_lockstep.py``.

Four workloads, each run on both engines (``reference`` =
``fastpath=False``, ``trace`` = ``fastpath=True``):

* ``busy-loop``          — a register-only spin under a compute-sized
  scheduling quantum; the trace engine's best case and the dominant
  instruction mix of idle guests.
* ``memcpy``             — a word-copy loop, exercising the MPU
  lookaside and the bus RAM short-circuit on every iteration.
* ``trustlet-ipc``       — the full sender/receiver IPC image with
  preemptive scheduling: interrupts, state spills — the worst
  realistic case for batching.
* ``trustlet-ipc-heavy`` — deep IPC ping-pong with per-hop compute
  loops and an EA-MPU reconfiguration between hops, forcing a
  lookaside reload and a trace revalidation per hop.

All engines must retire the *same* instruction count in the same
simulated-cycle budget (a cheap lockstep sanity check); throughput is
retired instructions per host second, best of ``HOST_BENCH_REPEATS``.
Per-workload decode-cache / lookaside / trace statistics land in the
JSON artifact so regressions in cache behaviour are visible without
rerunning anything.

Artifacts: a human-readable table in ``benchmarks/out/
host_throughput.txt`` and machine-readable ``BENCH_host_throughput.json``
at the repo root for trend tracking across commits.

Scale knobs (so CI smoke runs stay quick):

    HOST_BENCH_CYCLES    simulated cycles per measurement (default 400000)
    HOST_BENCH_REPEATS   best-of repeat count             (default 3)
    REPRO_BENCH_FLOOR    override every speedup floor (0 disables)
"""

import os
import time

from benchmarks._util import bench_floor, write_artifact, write_bench_json
from repro.core.image import ImageBuilder, SoftwareModule
from repro.core.platform import TrustLitePlatform
from repro.sw import runtime
from repro.sw.images import build_ipc_heavy_image, build_ipc_image, os_module

CYCLES = int(os.environ.get("HOST_BENCH_CYCLES", "400000"))
REPEATS = int(os.environ.get("HOST_BENCH_REPEATS", "3"))
#: Trace engine floors: busy-loop and the IPC-heavy workload.
TRACE_FLOOR_BUSY = bench_floor(15.0)
TRACE_FLOOR_IPC_HEAVY = bench_floor(8.0)
MEMCPY_WORDS = 64
#: Scheduling quantum for the compute-bound workloads: long enough
#: that the benchmark measures the guest loop rather than the OS tick
#: path, short enough that preemption still happens ~200 times per run.
BUSY_QUANTUM = 2000

ENGINES = {
    "reference": {"fastpath": False},
    "trace": {"fastpath": True},
}


def _busy_source(lay):
    return f"""
{runtime.entry_vector()}
main:
    movi r4, 0
loop:
    addi r4, r4, 1
    jmp loop
{runtime.continue_impl(lay)}
{runtime.halt_stub()}
"""


def _memcpy_source(lay):
    src = lay.data_base + 0x40
    dst = lay.data_base + 0x40 + 4 * MEMCPY_WORDS
    return f"""
{runtime.entry_vector()}
main:
outer:
    movi r4, {src:#x}
    movi r5, {dst:#x}
    movi r6, {MEMCPY_WORDS}
copy:
    ldw r7, [r4]
    stw r7, [r5]
    addi r4, r4, 4
    addi r5, r5, 4
    subi r6, r6, 1
    cmpi r6, 0
    bne copy
    jmp outer
{runtime.continue_impl(lay)}
{runtime.halt_stub()}
"""


def _single_trustlet_image(source, timer_period=BUSY_QUANTUM):
    builder = ImageBuilder()
    builder.add_module(os_module(timer_period=timer_period))
    builder.add_module(
        SoftwareModule(name="BENCH", source=source, data_size=0x400)
    )
    return builder.build()


WORKLOADS = {
    "busy-loop": lambda: _single_trustlet_image(_busy_source),
    "memcpy": lambda: _single_trustlet_image(_memcpy_source),
    "trustlet-ipc": lambda: build_ipc_image(timer_period=600),
    "trustlet-ipc-heavy": lambda: build_ipc_heavy_image(timer_period=600),
}


def _engine_stats(platform) -> dict:
    """Cache observability for one finished run (empty for reference)."""
    fp = platform.cpu.fastpath
    if fp is None:
        return {}
    mpu_stats = platform.mpu.stats
    stats = {
        "decode_cache": fp.decode_cache.stats,
        "lookaside": {
            "hits": mpu_stats.lookaside_hits,
            "misses": mpu_stats.lookaside_misses,
            "evictions": fp.lookaside.evictions if fp.lookaside else 0,
            "checks": mpu_stats.checks,
            "regions_scanned": mpu_stats.regions_scanned,
        },
    }
    if fp.trace_stats is not None:
        stats["traces"] = fp.trace_stats
    return stats


def _throughput(build_image, engine: dict) -> tuple[float, int, dict]:
    """Best-of-N retired instr/host-second, count, and cache stats."""
    best = 0.0
    retired = 0
    stats: dict = {}
    for _ in range(REPEATS):
        platform = TrustLitePlatform(**engine)
        platform.boot(build_image())
        base = platform.cpu.instructions_retired
        started = time.perf_counter()
        platform.run(max_cycles=CYCLES)
        elapsed = time.perf_counter() - started
        retired = platform.cpu.instructions_retired - base
        best = max(best, retired / elapsed)
        stats = _engine_stats(platform)
    return best, retired, stats


def test_host_throughput():
    """Trace >= 15x on busy-loop and >= 8x on IPC-heavy; both engines
    retire the identical instruction count."""
    results = {}
    for name, build_image in WORKLOADS.items():
        rows = {}
        stats = {}
        baseline_retired = None
        for engine_name, engine in ENGINES.items():
            ips, engine_retired, engine_stats = _throughput(
                build_image, engine
            )
            assert engine_retired > 0, f"{name}: workload retired nothing"
            if baseline_retired is None:
                baseline_retired = engine_retired
            assert engine_retired == baseline_retired, (
                f"{name}: engine {engine_name!r} diverged "
                f"({engine_retired} vs {baseline_retired} retired)"
            )
            rows[engine_name] = ips
            if engine_stats:
                stats[engine_name] = engine_stats
        reference = rows["reference"]
        results[name] = {
            "reference_ips": round(reference),
            "trace_ips": round(rows["trace"]),
            "trace_speedup": round(rows["trace"] / reference, 2),
            "retired": baseline_retired,
            "stats": stats,
        }

    lines = [
        f"host throughput, {CYCLES} simulated cycles, "
        f"best of {REPEATS}",
        f"  {'workload':<20}{'reference':>12}{'trace':>9}",
    ]
    for name, row in results.items():
        lines.append(
            f"  {name:<20}{row['reference_ips']:>10}/s"
            f"{row['trace_speedup']:>8.2f}x"
        )
    lines.append(
        f"  floors: trace busy-loop >= {TRACE_FLOOR_BUSY:.1f}x, trace "
        f"ipc-heavy >= {TRACE_FLOOR_IPC_HEAVY:.1f}x"
    )
    write_artifact("host_throughput.txt", "\n".join(lines))

    write_bench_json(
        "host_throughput",
        {
            "cycles": CYCLES,
            "repeats": REPEATS,
            "trace_floor_busy": TRACE_FLOOR_BUSY,
            "trace_floor_ipc_heavy": TRACE_FLOOR_IPC_HEAVY,
            "workloads": results,
        },
    )

    trace_busy = results["busy-loop"]["trace_speedup"]
    assert trace_busy >= TRACE_FLOOR_BUSY, (
        f"busy-loop trace speedup only {trace_busy:.2f}x "
        f"(floor {TRACE_FLOOR_BUSY}x)"
    )
    trace_ipc = results["trustlet-ipc-heavy"]["trace_speedup"]
    assert trace_ipc >= TRACE_FLOOR_IPC_HEAVY, (
        f"trustlet-ipc-heavy trace speedup only {trace_ipc:.2f}x "
        f"(floor {TRACE_FLOOR_IPC_HEAVY}x)"
    )
