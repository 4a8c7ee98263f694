"""Differential lockstep harness: cached engines vs reference.

The fast-path execution engine (decode cache, EA-MPU lookaside, bus
routing cache) and the trace engine stacked on top of it (recorded
superinstruction regions, :mod:`repro.machine.traces`) claim to be
semantically invisible.  This harness *proves* it per workload: every
canned guest program is run on the reference engine
(``fastpath=False``) and twice on the cached engine, and the
platforms must end in bit-identical architectural state: register
file, memories, device internals, EA-MPU region file, pending
interrupts, cycle totals, retired-instruction counts and fault
addresses.  A retire hook makes the trace tier run its observed
closures, so one cached run attaches a tracer and must also emit the
complete retired-instruction stream, while the other attaches none and
runs the plain closures every fleet device runs.

MPU counter discipline: ``checks`` and ``faults`` must match exactly
(a lookaside hit is still a check, and a trace entry charges exactly
the checks its instructions would have performed); only
``regions_scanned`` may drop on the cached engines.
"""

import pytest

from repro.core.platform import TrustLitePlatform
from repro.machine.snapshot import Snapshot
from repro.machine.trace import Tracer
from repro.mpu.regions import ANY_SUBJECT, Perm
from repro.sw.images import (
    build_attestation_image,
    build_idle_image,
    build_ipc_heavy_image,
    build_ipc_image,
    build_probe_image,
    build_two_counter_image,
)

# Every guest workload in the repo's examples/benchmarks, including
# fault-heavy adversarial ones (probes) and interrupt-heavy ones
# (short timer periods force frequent preemption).
WORKLOADS = {
    "two-counter": lambda: build_two_counter_image(timer_period=400),
    "two-counter-tight-timer": lambda: build_two_counter_image(
        timer_period=97
    ),
    "ipc": lambda: build_ipc_image(timer_period=600),
    "ipc-heavy": lambda: build_ipc_heavy_image(timer_period=600),
    "attestation": lambda: build_attestation_image(),
    "os-idle": lambda: build_idle_image(timer_period=2000),
    # Watchdog NMIs land inside the timer ISR, and the watchdog ISR
    # stores its marker to the UART in the middle of a straight line.
    "os-watchdog": lambda: build_idle_image(
        timer_period=400, watchdog_period=1003
    ),
    "probe-read-data": lambda: build_probe_image(
        operation="read", target="data"
    ),
    "probe-write-code": lambda: build_probe_image(
        operation="write", target="code"
    ),
    "probe-execute-stack": lambda: build_probe_image(
        operation="execute", target="stack"
    ),
    "probe-write-mpu": lambda: build_probe_image(
        operation="write", target="mpu"
    ),
    "probe-write-table": lambda: build_probe_image(
        operation="write", target="table"
    ),
}

#: Constructor arguments of the cached engine.
CACHED = {"fastpath": True}

#: The cached runs, each diffed against the reference, by whether a
#: retire hook (a tracer) is attached.
ENGINES = {"trace": True, "trace-unobserved": False}

MAX_CYCLES = 150_000
TRACE_CAPACITY = 1 << 17


def _tracer(platform, observed=True):
    if not observed:
        return None
    return Tracer(capacity=TRACE_CAPACITY).attach(platform.cpu)


def _run(build_image, observed=True, **engine):
    platform = TrustLitePlatform(**engine)
    platform.boot(build_image())
    tracer = _tracer(platform, observed)
    platform.run(max_cycles=MAX_CYCLES)
    return platform, tracer


def _assert_identical(fast, slow, fast_trace, slow_trace):
    snap_fast = Snapshot.save(fast)
    snap_slow = Snapshot.save(slow)
    # Architectural state: registers, ip, flags, cycles, retired.
    assert snap_fast.cpu == snap_slow.cpu
    # EA-MPU region file, enable bit, latched fault address/ip.
    assert snap_fast.mpu == snap_slow.mpu
    # Every memory image and device-internal state, byte for byte.
    assert dict(snap_fast.devices).keys() == dict(snap_slow.devices).keys()
    for (name, state_fast), (_, state_slow) in zip(
        snap_fast.devices, snap_slow.devices
    ):
        assert state_fast == state_slow, f"device {name!r} state diverged"
    assert snap_fast.irq_pending == snap_slow.irq_pending
    assert snap_fast.irq_vectors == snap_slow.irq_vectors
    assert snap_fast.exception_vectors == snap_slow.exception_vectors
    # Check/fault counters keep their meaning under the lookaside.
    assert fast.mpu.stats.checks == slow.mpu.stats.checks
    assert fast.mpu.stats.faults == slow.mpu.stats.faults
    assert fast.mpu.stats.regions_scanned <= slow.mpu.stats.regions_scanned
    # The reference engine never consults a lookaside.
    assert slow.mpu.stats.lookaside_hits == 0
    assert slow.mpu.stats.lookaside_misses == 0
    if fast_trace is None:
        return
    # Retired-instruction streams are identical, entry by entry.
    assert fast_trace.retired == slow_trace.retired
    assert fast_trace.dropped == slow_trace.dropped
    assert fast_trace.entries == slow_trace.entries
    assert fast_trace.opcode_counts == slow_trace.opcode_counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lockstep(name):
    build_image = WORKLOADS[name]
    slow, slow_trace = _run(build_image, fastpath=False)
    assert slow_trace.retired > 0, "workload retired no instructions"
    for engine_name, observed in ENGINES.items():
        cached, cached_trace = _run(build_image, observed, **CACHED)
        try:
            _assert_identical(cached, slow, cached_trace, slow_trace)
        except AssertionError as exc:
            raise AssertionError(
                f"{engine_name} engine diverged from reference: {exc}"
            ) from exc


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_lockstep_warm_reset(engine_name):
    """Re-boot through the loader (MPU reprogramming) stays identical."""
    observed = ENGINES[engine_name]
    cached, _ = _run(WORKLOADS["two-counter"], observed, **CACHED)
    slow, _ = _run(WORKLOADS["two-counter"], fastpath=False)
    for platform in (cached, slow):
        platform.warm_reset()
    cached_trace = _tracer(cached, observed)
    slow_trace = _tracer(slow)
    cached.run(max_cycles=60_000)
    slow.run(max_cycles=60_000)
    _assert_identical(cached, slow, cached_trace, slow_trace)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_lockstep_across_snapshot_clone(engine_name):
    """A clone of a warmed cached platform replays like the reference."""
    observed = ENGINES[engine_name]
    cached, _ = _run(WORKLOADS["ipc"], observed, **CACHED)
    slow, _ = _run(WORKLOADS["ipc"], fastpath=False)
    clone = Snapshot.save(cached).clone(**CACHED)
    clone_trace = _tracer(clone, observed)
    slow_trace = _tracer(slow)
    clone.run(max_cycles=60_000)
    slow.run(max_cycles=60_000)
    snap_clone = Snapshot.save(clone)
    snap_slow = Snapshot.save(slow)
    assert snap_clone.cpu == snap_slow.cpu
    assert snap_clone.mpu == snap_slow.mpu
    assert snap_clone.devices == snap_slow.devices
    assert snap_clone.irq_pending == snap_slow.irq_pending
    if observed:
        assert clone_trace.entries == slow_trace.entries


def _log_irq_deliveries(platform) -> list[tuple[int, int]]:
    """Record ``(cycle, line)`` at every interrupt the core takes."""
    log: list[tuple[int, int]] = []
    engine = platform.engine
    deliver = engine.deliver_interrupt

    def logged(cpu, interrupt):
        log.append((cpu.cycles, interrupt.line))
        return deliver(cpu, interrupt)

    engine.deliver_interrupt = logged
    return log


@pytest.mark.parametrize("name", ["os-idle", "attestation"])
def test_idle_spin_takes_every_tick_on_the_reference_cycle(name):
    """The kernel idles in ``jmp idle``/``jmp sched_idle_spin`` between
    timer ticks.  Every tier must take each tick at the very cycle the
    reference engine does, and agree on the rest of the machine."""

    def run(observed=True, **engine):
        platform = TrustLitePlatform(**engine)
        platform.boot(WORKLOADS[name]())
        log = _log_irq_deliveries(platform)
        _tracer(platform, observed)
        platform.run(max_cycles=MAX_CYCLES)
        return platform, log

    slow, slow_log = run(fastpath=False)
    assert len(slow_log) > 10, "the timer never ticked"
    for engine_name, observed in ENGINES.items():
        cached, cached_log = run(observed, **CACHED)
        assert cached_log == slow_log, f"{engine_name}: IRQ cycles moved"
        assert Snapshot.save(cached).cpu == Snapshot.save(slow).cpu
        assert cached.cpu.cycles == slow.cpu.cycles
        assert (
            cached.cpu.instructions_retired
            == slow.cpu.instructions_retired
        )
        assert cached.mpu.stats.checks == slow.mpu.stats.checks
        # Between ticks the spin dominates, and the trace tier runs it.
        traced_share = (
            cached.cpu.fastpath.traces.stats["instructions"]
            / cached.cpu.instructions_retired
        )
        assert traced_share >= 0.8, f"{engine_name}: {traced_share:.2f}"


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_revoked_entry_vector_faults_on_the_reference_cycle(engine_name):
    """The scheduler enters a trustlet with ``jmpr`` into its entry
    vector, an EA-MPU subject check on the jump's target.  Revoking
    that rule mid-run must fault the very next entry, on the cycle the
    reference engine faults, even after the entry path ran warm."""
    image = WORKLOADS["two-counter"]()
    entry = image.layout_of("TL-A").entry

    def run(observed=True, **engine):
        platform = TrustLitePlatform(**engine)
        platform.boot(image)
        faults: list[tuple[int, int, int]] = []
        deliver = platform.engine.deliver_fault

        def logged(cpu, fault):
            faults.append((cpu.cycles, cpu.curr_ip, fault.address))
            return deliver(cpu, fault)

        platform.engine.deliver_fault = logged
        tracer = _tracer(platform, observed)
        platform.run(max_cycles=60_000)
        if engine.get("fastpath"):
            # The scheduler's jmpr into the entry runs warm: the entry
            # path is a recorded trace when the rule goes.
            assert entry in platform.cpu.fastpath.traces._traces
        mpu = platform.mpu
        (index,) = [
            i for i, region in enumerate(mpu.regions)
            if region.valid and region.base == entry
            and region.perm == Perm.X and region.subjects == ANY_SUBJECT
        ]
        mpu.clear_region(index)
        platform.run(max_cycles=20_000)
        return platform, tracer, faults

    slow, slow_trace, slow_faults = run(fastpath=False)
    cached, cached_trace, cached_faults = run(
        ENGINES[engine_name], **CACHED
    )
    assert slow_faults and slow_faults[0][2] == entry
    assert cached_faults == slow_faults
    _assert_identical(cached, slow, cached_trace, slow_trace)


def test_timer_isr_runs_as_a_trace():
    """The kernel's timer ISR is straight-line code entered from the
    interrupt vector; the trace tier records it there and, with the
    idle spin, runs nearly every instruction of the workload."""
    image = WORKLOADS["attestation"]()
    traced, _ = _run(lambda: image, **CACHED)
    traces = traced.cpu.fastpath.traces
    assert image.layout_of("OS").symbol("isr_timer") in traces._traces
    share = traces.stats["instructions"] / traced.cpu.instructions_retired
    assert share >= 0.95
