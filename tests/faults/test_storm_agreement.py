"""The IRQ storm runs in simulated time, so every engine sees the same storm.

``inject_irq_storm`` counts its arrivals down in device time, on the
path the timer and watchdog take.  The reference engine (one
instruction per step), the trace engine with a tracer attached
(observed closures) and the trace engine with no retire hook (plain
closures, closed-form idle spins) must therefore latch every storm
line at the same cycle and deliver every interrupt at the same
``(cycle, line, ip)``, and end in the same architectural state.

The run budget (997 cycles, prime) and the storm's mean gaps are not
multiples of each other, so no batch boundary lines up with an
arrival by construction.
"""

import random

import pytest

from repro.faults import inject_irq_storm
from repro.machine import Snapshot
from repro.machine.trace import Tracer

BUDGET = 997
CHUNKS = 20

#: ``(fastpath, tracer attached)`` per run.
RUNS = {
    "reference": (False, False),
    "trace": (True, True),
    "trace-unobserved": (True, False),
}


def _stormed(golden, fastpath, observed, mean_gap):
    """A golden clone stepped under a storm; returns the platform, the
    storm's state and every delivered interrupt."""
    platform = golden.clone(fastpath=fastpath)
    if observed:
        Tracer(capacity=1 << 16).attach(platform.cpu)
    storm = inject_irq_storm(
        platform, random.Random(mean_gap), mean_gap=mean_gap
    )
    engine = platform.engine
    deliver = engine.deliver_interrupt
    deliveries = []

    def recorded(cpu, interrupt):
        deliveries.append(
            (cpu.cycles, interrupt.line, interrupt.source, cpu.ip)
        )
        return deliver(cpu, interrupt)

    engine.deliver_interrupt = recorded
    for _ in range(CHUNKS):
        platform.run(max_cycles=BUDGET)
    return platform, storm, deliveries


@pytest.mark.parametrize("mean_gap", [37, 61, 173])
def test_engines_see_the_same_storm(golden_snapshot, mean_gap):
    runs = {
        name: _stormed(golden_snapshot, fastpath, observed, mean_gap)
        for name, (fastpath, observed) in RUNS.items()
    }
    slow, slow_storm, slow_deliveries = runs.pop("reference")
    storm_deliveries = [
        d for d in slow_deliveries if d[2] == "fault:storm"
    ]
    assert storm_deliveries, "the storm never reached the CPU"
    assert slow_storm["raised"] >= len(storm_deliveries)
    for name, (fast, storm, deliveries) in runs.items():
        assert deliveries == slow_deliveries, name
        assert storm["raised"] == slow_storm["raised"], name
        # Registers, ip, flags, cycle total and retired count.
        assert Snapshot.save(fast).cpu == Snapshot.save(slow).cpu, name
        assert fast.cpu.instructions_retired == \
            slow.cpu.instructions_retired, name
        assert fast.mpu.stats.checks == slow.mpu.stats.checks, name
        assert set(fast.soc.irq._pending) == \
            set(slow.soc.irq._pending), name
        # The cached runs really batched through traces.
        assert fast.cpu.fastpath.traces.instructions > 0, name
