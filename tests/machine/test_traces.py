"""Trace-engine coherence: the edge cases that corrupt recording JITs.

The trace engine (:mod:`repro.machine.traces`) pre-fuses hot loop
bodies into single Python closures and replays them under a cycle
budget.  Everything that can yank the ground truth out from under a
recorded trace is exercised here end to end:

* self-modifying code — a guest store, executed *inside* a running
  trace, that rewrites the trace's own instruction bytes must kill the
  trace mid-flight and take effect on the very next iteration;
* EA-MPU revocation — dropping a permission a recorded memory op
  depends on must fault the very next access, never replay a stale
  allow from the baked-in decision memo;
* snapshot restore into a warmed trace cache — the restored machine
  must not replay superinstructions recorded in its previous life;
* IRQ delivery at every instruction offset of a recorded trace — the
  event horizon must bound batching so a pending timer interrupt is
  taken at exactly the same instruction as on the reference engine
  (swept timer periods walk the delivery point across the loop body);
* idle spins — a one-instruction ``jmp .`` loop, the kernel's idle
  state, must batch up to the budget or the next tick and no further;
* straight-line regions — code entered from an interrupt vector or an
  indirect jump runs as a one-pass trace: a write to a page it reaches
  through a followed ``jmp`` must kill it, an MMIO store must end the
  step right after the store, and a non-maskable interrupt landing
  inside the timer ISR must be taken at the reference instruction;
* device time — a device register read or written inside a batched
  run must see the time the reference engine shows it.

The architectural ground rule throughout: ``trace=True`` may only
change how fast the simulation runs, never what it computes.
"""

import pytest

from repro.asm import assemble
from repro.core.platform import TrustLitePlatform
from repro.errors import MachineError, MemoryProtectionFault
from repro.isa.registers import Reg
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.device import Device
from repro.machine.devices.timer import Timer
from repro.machine.irq import InterruptController
from repro.machine.memories import Ram
from repro.machine.snapshot import Snapshot
from repro.machine.trace import Tracer
from repro.mpu.ea_mpu import EaMpu
from repro.mpu.regions import ANY_SUBJECT, Perm
from repro.sw.images import build_idle_image, build_two_counter_image

RAM_SIZE = 0x8000
BUDGET = 4_000


def _machine(source: str, *, fastpath=True, trace=False) -> Cpu:
    bus = Bus()
    ram = Ram("ram", RAM_SIZE)
    bus.attach(0, ram)
    program = assemble(source, base=0)
    ram.load(0, program.data)
    cpu = Cpu(bus, fastpath=fastpath, trace=trace)
    cpu.sp = RAM_SIZE
    cpu._program = program  # symbols for the tests
    return cpu


def _run(cpu: Cpu, max_rounds: int = 50_000, budget: int = BUDGET) -> None:
    for _ in range(max_rounds):
        if cpu.halted:
            return
        cpu.step(budget)
    raise AssertionError("program did not halt")


def _loop_source(iterations: int = 200) -> str:
    return f"""
main:
    movi r1, 0
    movi r2, {iterations}
loop:
    addi r1, r1, 1
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    halt
"""


class TestEngineContract:
    def test_trace_requires_fastpath(self):
        with pytest.raises(MachineError):
            _machine("main:\n    halt\n", fastpath=False, trace=True)

    def test_plain_step_never_enters_traces(self):
        """Single-stepping (no budget) stays on the interpreter."""
        cpu = _machine(_loop_source(), trace=True)
        for _ in range(2_000):
            if cpu.halted:
                break
            cpu.step()
        assert cpu.halted
        assert cpu.fastpath.traces.stats["runs"] == 0

    def test_engine_is_built_on_the_first_budgeted_step(self):
        cpu = _machine(_loop_source(), trace=True)
        for _ in range(10):
            cpu.step()
        assert cpu.fastpath.trace_stats is None
        cpu.step(BUDGET)
        assert cpu.fastpath.trace_stats is not None

    def test_budgeted_run_batches_and_matches_reference(self):
        traced = _machine(_loop_source(), trace=True)
        slow = _machine(_loop_source(), fastpath=False)
        _run(traced)
        _run(slow, budget=None)
        stats = traced.fastpath.traces.stats
        assert stats["recorded"] >= 1
        assert stats["runs"] > 0
        assert stats["instructions"] > 0
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles
        assert traced.instructions_retired == slow.instructions_retired


class TestSelfModifyingCodeInsideTrace:
    # The store at the loop head normally targets a data scratch word;
    # on the second pass r4 is retargeted at the immediate slot of the
    # ``movi`` *inside the same loop* — so the patching store executes
    # from within the recorded trace it is invalidating.
    def _program(self) -> str:
        return """
main:
    movi r1, 0
    movi r2, 600
    movi r4, 0x4000
loop:
    stw r0, [r4]
patch:
    movi r0, 1
    addi r1, r1, 1
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    cmpi r3, 1
    beq done
    movi r3, 1
    movi r4, patch
    addi r4, r4, 4
    movi r0, 99
    movi r2, 50
    jmp loop
done:
    halt
"""

    def test_store_into_own_trace_takes_effect_immediately(self):
        cpu = _machine(self._program(), trace=True)
        _run(cpu)
        # Second pass must execute the patched ``movi r0, 99``, not a
        # stale superinstruction fused from the original bytes.
        assert cpu.get_reg(Reg.R0) == 99
        stats = cpu.fastpath.traces.stats
        assert stats["recorded"] >= 1, "loop never became a trace"
        assert stats["runs"] > 0, "trace never executed"
        assert stats["invalidations"] >= 1, "patch never killed the trace"

    def test_matches_reference_engine(self):
        traced = _machine(self._program(), trace=True)
        slow = _machine(self._program(), fastpath=False)
        _run(traced)
        _run(slow, budget=None)
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles
        assert traced.instructions_retired == slow.instructions_retired


class TestMpuRevocationMidTrace:
    SECRET = 0x4000

    def _machine_with_mpu(self) -> tuple[Cpu, EaMpu]:
        cpu = _machine(
            f"""
main:
    movi r4, {self.SECRET:#x}
loop:
    ldw r7, [r4]
    addi r1, r1, 1
    jmp loop
""",
            trace=True,
        )
        mpu = EaMpu(num_regions=8)
        mpu.program_region(0, 0x0000, 0x1000, Perm.RX, subjects=ANY_SUBJECT)
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x100, Perm.RW,
            subjects=ANY_SUBJECT,
        )
        mpu.set_enabled(True)
        cpu.mpu = mpu
        return cpu, mpu

    def test_revoked_load_faults_next_access(self):
        cpu, mpu = self._machine_with_mpu()
        # Warm until the load loop runs as a recorded trace.
        for _ in range(5_000):
            cpu.step(BUDGET)
            if cpu.fastpath.traces.stats["runs"] > 0:
                break
        assert cpu.fastpath.traces.stats["runs"] > 0, "loop never traced"
        retired_before = cpu.instructions_retired
        # Revoke the read permission mid-run, exactly as guest software
        # would reprogram the region: the baked decision memo and the
        # trace's subject masks are both stale now.
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x100, Perm.NONE,
            subjects=ANY_SUBJECT,
        )
        with pytest.raises(MemoryProtectionFault):
            for _ in range(100):
                cpu.step(BUDGET)
        assert mpu.fault_address == self.SECRET
        # The fault came from the very next guest load: at most one
        # trace-free loop iteration ran after the side exit.
        assert cpu.instructions_retired - retired_before <= 4


class TestSnapshotRestoreIntoWarmedTraceCache:
    def test_restore_drops_recorded_traces(self):
        """Restoring over a trace-warmed platform must not replay it.

        Both images have identical layouts but different instruction
        bytes at the same addresses (counter stride 1 vs 5); a stale
        superinstruction would keep counting with the old stride.
        """
        warmed = TrustLitePlatform(trace=True)
        warmed.boot(build_two_counter_image(timer_period=400))
        warmed.run(max_cycles=60_000)
        assert warmed.cpu.fastpath.traces.stats["recorded"] > 0

        def stride5():
            from repro.core.image import ImageBuilder, SoftwareModule
            from repro.sw import trustlets
            from repro.sw.images import os_module

            builder = ImageBuilder()
            builder.add_module(os_module(timer_period=400))
            builder.add_module(
                SoftwareModule(
                    name="TL-A", source=trustlets.counter_source(5)
                )
            )
            builder.add_module(
                SoftwareModule(
                    name="TL-B", source=trustlets.counter_source(5)
                )
            )
            return builder.build()

        donor = TrustLitePlatform()
        donor.boot(stride5())
        donor.run(max_cycles=10_000)
        snapshot = Snapshot.save(donor)

        snapshot.restore(warmed)
        reference = TrustLitePlatform(fastpath=False)
        reference.boot(stride5())
        snapshot.restore(reference)

        warmed.run(max_cycles=60_000)
        reference.run(max_cycles=60_000)
        assert Snapshot.save(warmed).cpu == Snapshot.save(reference).cpu
        assert (
            Snapshot.save(warmed).devices
            == Snapshot.save(reference).devices
        )

    def test_clone_starts_with_cold_trace_cache(self):
        platform = TrustLitePlatform(trace=True)
        platform.boot(build_two_counter_image(timer_period=400))
        platform.run(max_cycles=60_000)
        assert platform.cpu.fastpath.traces.stats["runs"] > 0
        clone = Snapshot.save(platform).clone(trace=True)
        assert clone.cpu.fastpath.traces.stats["traces"] == 0
        clone.run(max_cycles=40_000)
        # And the clone's trace cache warms independently afterwards.
        assert clone.cpu.fastpath.traces.stats["runs"] > 0


class TestIrqDeliveryAtEveryTraceOffset:
    """Timer-period sweep walks IRQ delivery across the loop body.

    The counter trustlet's hot loop is a handful of instructions; 16
    consecutive timer periods cover every cycle residue of the loop,
    so some sweep point lands the interrupt on each instruction offset
    of the recorded trace.  The event horizon must make the trace
    engine stop batching exactly there — lockstep-checked against the
    reference down to the retired-instruction stream.
    """

    @pytest.mark.parametrize("period", range(97, 113))
    def test_lockstep_across_irq_offsets(self, period):
        def run(**engine):
            platform = TrustLitePlatform(**engine)
            platform.boot(build_two_counter_image(timer_period=period))
            tracer = Tracer(capacity=1 << 15).attach(platform.cpu)
            platform.run(max_cycles=40_000)
            return platform, tracer

        traced, traced_stream = run(fastpath=True, trace=True)
        slow, slow_stream = run(fastpath=False)
        snap_traced = Snapshot.save(traced)
        snap_slow = Snapshot.save(slow)
        assert snap_traced.cpu == snap_slow.cpu
        assert snap_traced.mpu == snap_slow.mpu
        assert snap_traced.devices == snap_slow.devices
        assert snap_traced.irq_pending == snap_slow.irq_pending
        assert traced_stream.entries == slow_stream.entries
        assert traced.mpu.stats.checks == slow.mpu.stats.checks
        assert traced.mpu.stats.faults == slow.mpu.stats.faults


class TestIdleSpin:
    """``jmp .``: the loop head is the branch itself."""

    SOURCE = """
main:
    cli
spin:
    jmp spin
"""

    @pytest.mark.parametrize("budget", [1 + 3 * 5_000, 1 + 3 * 5_000 + 2])
    def test_masked_spin_consumes_exactly_the_budget(self, budget):
        """With interrupts masked nothing ends the spin but the budget:
        every tier stops on the reference engine's cycle, which is the
        budget itself whenever the spin's cycles divide it."""
        slow = _machine(self.SOURCE, fastpath=False)
        used = slow.run(max_cycles=budget)
        for engine in ({"trace": False}, {"trace": True}):
            cpu = _machine(self.SOURCE, **engine)
            assert cpu.run(max_cycles=budget) == used
            assert cpu.regs == slow.regs
            assert cpu.ip == slow.ip
            assert cpu.curr_ip == slow.curr_ip
            assert cpu.instructions_retired == slow.instructions_retired
        assert (used == budget) == ((budget - 1) % 3 == 0)
        # The last cpu is the trace tier: it ran the spin as a trace.
        spun = cpu.fastpath.traces.stats["instructions"]
        assert spun > 0.9 * cpu.instructions_retired

    def test_observed_spin_emits_the_reference_stream(self):
        def run(**engine):
            cpu = _machine(self.SOURCE, **engine)
            tracer = Tracer(capacity=1 << 12).attach(cpu)
            cpu.run(max_cycles=3_001)
            return cpu, tracer

        traced, traced_stream = run(trace=True)
        slow, slow_stream = run(fastpath=False)
        assert traced.cycles == slow.cycles
        assert traced_stream.retired == slow_stream.retired
        assert traced_stream.entries == slow_stream.entries
        assert traced_stream.opcode_counts == slow_stream.opcode_counts
        assert traced.fastpath.traces.stats["instructions"] > 0

    @pytest.mark.parametrize("period", range(400, 416))
    def test_lockstep_across_idle_irq_offsets(self, period):
        """Each tick lands on a different cycle residue of the spin."""

        def run(**engine):
            platform = TrustLitePlatform(**engine)
            platform.boot(build_idle_image(timer_period=period))
            tracer = Tracer(capacity=1 << 15).attach(platform.cpu)
            platform.run(max_cycles=40_000)
            return platform, tracer

        traced, traced_stream = run(fastpath=True, trace=True)
        slow, slow_stream = run(fastpath=False)
        snap_traced = Snapshot.save(traced)
        snap_slow = Snapshot.save(slow)
        assert snap_traced.cpu == snap_slow.cpu
        assert snap_traced.devices == snap_slow.devices
        assert snap_traced.irq_pending == snap_slow.irq_pending
        assert traced_stream.entries == slow_stream.entries
        assert traced.mpu.stats.checks == slow.mpu.stats.checks
        assert traced.cpu.fastpath.traces.stats["instructions"] > 0


class _Recorder(Device):
    """An MMIO sink that logs every write it receives."""

    def __init__(self) -> None:
        super().__init__("recorder", 0x10)
        self.writes: list[tuple[int, int, int]] = []

    def read(self, offset: int, size: int) -> int:
        return 0

    def write(self, offset: int, size: int, value: int) -> None:
        self.writes.append((offset, size, value))


class TestStraightLine:
    """Straight-line regions entered from a non-sequential transfer: an
    interrupt vector, an indirect jump, or the exit of another trace."""

    RECORDER = 0x1_0000

    # ``line`` is entered through ``jmpr`` and follows a ``jmp`` onto
    # the page at 0x400, then jumps back to page 0, where its last op
    # sits.  On the second pass the main code patches the immediate of
    # the ``addi`` on page 0x400: only a trace that indexes that page
    # dies and picks the patch up.
    FAR_PAGE = """
main:
    movi r2, 60
    movi r5, line
    movi r6, back
loop:
    jmpr r5
back:
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    cmpi r7, 1
    beq done
    movi r7, 1
    movi r4, far
    movi r0, 100
    stw r0, [r4+4]
    movi r2, 20
    jmp loop
done:
    halt
line:
    addi r1, r1, 1
    jmp far
tail:
    nop
    jmpr r6
    .org 0x400
far:
    addi r3, r3, 1
    jmp tail
"""

    # ``line`` stores to RAM, then to the MMIO recorder, then to RAM
    # again.
    MMIO_LINE = f"""
main:
    movi r2, 40
    movi r5, line
    movi r6, back
    movi r4, {RECORDER:#x}
    movi r8, 0x4000
loop:
    jmpr r5
back:
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    halt
line:
    addi r1, r1, 1
    stw r1, [r8]
    stb r1, [r4]
    addi r3, r3, 3
    stw r3, [r8+4]
    jmpr r6
"""

    def _step_all(self, cpu: Cpu, observe) -> list:
        seen = []
        for _ in range(50_000):
            if cpu.halted:
                return seen
            cpu.step(BUDGET)
            seen.append(observe(cpu))
        raise AssertionError("program did not halt")

    def test_write_to_a_followed_jump_page_kills_the_line(self):
        slow = _machine(self.FAR_PAGE, fastpath=False)
        _run(slow, budget=None)
        assert slow.get_reg(Reg.R3) == 60 + 20 * 100
        traced = _machine(self.FAR_PAGE, trace=True)
        _run(traced)
        stats = traced.fastpath.traces.stats
        assert stats["runs"] > 0, "the line never ran as a trace"
        assert stats["invalidations"] >= 1, "the patch never killed it"
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles
        assert traced.instructions_retired == slow.instructions_retired

    @pytest.mark.parametrize("name", ["FAR_PAGE", "MMIO_LINE"])
    def test_observed_lines_emit_the_reference_stream(self, name):
        def run(**engine):
            cpu = _machine(getattr(self, name), **engine)
            cpu.bus.attach(self.RECORDER, _Recorder())
            tracer = Tracer(capacity=1 << 14).attach(cpu)
            _run(cpu)
            return cpu, tracer

        traced, traced_stream = run(trace=True)
        slow, slow_stream = run(fastpath=False)
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles
        assert traced_stream.retired == slow_stream.retired
        assert traced_stream.entries == slow_stream.entries

    def test_mmio_store_mid_line_exits_right_after_the_store(self):
        """Every write lands in reference order, and the step that made
        the MMIO write ends on the very next instruction."""

        def run(**engine):
            cpu = _machine(self.MMIO_LINE, **engine)
            recorder = _Recorder()
            cpu.bus.attach(self.RECORDER, recorder)
            writes: list[tuple[int, int]] = []
            cpu.bus.add_write_listener(
                lambda address, length: writes.append((address, length))
            )
            count = [0]

            def observe(cpu):
                if len(recorder.writes) == count[0]:
                    return None
                count[0] = len(recorder.writes)
                return (cpu.ip, cpu.curr_ip, cpu.cycles,
                        cpu.instructions_retired, tuple(cpu.regs))

            after_mmio = [s for s in self._step_all(cpu, observe) if s]
            return cpu, recorder, writes, after_mmio

        traced, traced_mmio, traced_writes, traced_after = run(trace=True)
        slow, slow_mmio, slow_writes, slow_after = run(fastpath=False)
        assert traced.fastpath.traces.stats["runs"] > 0
        assert len(slow_mmio.writes) == 40
        assert traced_mmio.writes == slow_mmio.writes
        assert traced_writes == slow_writes
        assert traced_after == slow_after
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles

    @pytest.mark.parametrize("period", range(1001, 1017))
    def test_lockstep_across_nmi_offsets_in_the_timer_isr(self, period):
        """The non-maskable watchdog lands inside the (masked) timer
        ISR and scheduler at different offsets per period; the trace
        tier must take each NMI at the reference engine's
        instruction."""

        def run(**engine):
            platform = TrustLitePlatform(**engine)
            image = build_idle_image(timer_period=400, watchdog_period=period)
            platform.boot(image)
            lay = image.layout_of("OS")
            isr = (lay.symbol("isr_timer"), lay.symbol("sched_idle_spin"))
            inside = []
            deliver = platform.engine.deliver_interrupt

            def logged(cpu, interrupt):
                if interrupt.nmi and isr[0] < cpu.ip < isr[1]:
                    inside.append((cpu.cycles, cpu.ip))
                return deliver(cpu, interrupt)

            platform.engine.deliver_interrupt = logged
            tracer = Tracer(capacity=1 << 15).attach(platform.cpu)
            platform.run(max_cycles=40_000)
            return platform, tracer, inside

        traced, traced_stream, traced_inside = run(fastpath=True, trace=True)
        slow, slow_stream, slow_inside = run(fastpath=False)
        assert slow_inside, "no NMI landed inside the timer ISR"
        assert traced_inside == slow_inside
        snap_traced = Snapshot.save(traced)
        snap_slow = Snapshot.save(slow)
        assert snap_traced.cpu == snap_slow.cpu
        assert snap_traced.devices == snap_slow.devices
        assert snap_traced.irq_pending == snap_slow.irq_pending
        assert traced_stream.entries == slow_stream.entries
        assert traced.mpu.stats.checks == slow.mpu.stats.checks


class TestCompiledCodeSharing:
    """Clones record identical traces and share their code objects;
    each trace keeps its own env, so liveness stays per clone."""

    def test_clones_share_code_but_not_liveness(self):
        golden = TrustLitePlatform(trace=True)
        golden.boot(build_two_counter_image(timer_period=400))
        snapshot = Snapshot.save(golden)
        clones = [snapshot.clone(trace=True) for _ in range(2)]
        for clone in clones:
            clone.run(max_cycles=40_000)
        engines = [clone.cpu.fastpath.traces for clone in clones]
        heads = set(engines[0]._traces) & set(engines[1]._traces)
        assert heads, "the clones recorded no common trace"
        head = min(heads)
        first, second = (engine._traces[head] for engine in engines)
        run_first, run_second = first.runner(False), second.runner(False)
        assert run_first.__code__ is run_second.__code__
        assert run_first.__globals__ is not run_second.__globals__

        engines[0].invalidate_range(head, 4)
        assert head not in engines[0]._traces
        assert not first.alive[0]
        assert engines[1]._traces[head] is second
        assert second.alive[0]
        runs = engines[1].runs
        clones[1].run(max_cycles=20_000)
        assert engines[1].runs > runs


class TestDeviceTime:
    """Devices tick between steps, so a batched run must not read or
    write a device register partway through a batch: the device would
    see the time at the start of the batch, not the reference time."""

    TIMER = 0x1_0000

    # The loop reads the timer count at op 1; the line (entered through
    # ``jmpr``) rewrites the period, which reloads the count, at op 2
    # and reads the count back at op 3.
    SOURCE = f"""
main:
    movi r4, {TIMER:#x}
    movi r5, 100000
    stw r5, [r4+0]
    movi r5, 1
    stw r5, [r4+8]
    movi r2, 200
    movi r9, line
    movi r10, back
loop:
    addi r7, r7, 1
    ldw r6, [r4+12]
    add r8, r8, r6
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    movi r2, 40
again:
    jmpr r9
back:
    subi r2, r2, 1
    cmpi r2, 0
    bne again
    halt
line:
    addi r7, r7, 1
    movi r5, 100000
    stw r5, [r4+0]
    ldw r6, [r4+12]
    add r8, r8, r6
    jmpr r10
"""

    def _run(self, **engine):
        cpu = _machine(self.SOURCE, **engine)
        timer = Timer(InterruptController())
        cpu.bus.attach(self.TIMER, timer)
        cpu.event_horizon = cpu.bus.next_event_in
        for _ in range(50_000):
            if cpu.halted:
                return cpu, timer
            cpu.bus.tick(cpu.step(BUDGET))
        raise AssertionError("program did not halt")

    def test_device_registers_see_the_reference_time(self):
        slow, slow_timer = self._run(fastpath=False)
        for engine in ({"trace": False}, {"trace": True}):
            cpu, timer = self._run(**engine)
            assert cpu.regs == slow.regs
            assert cpu.cycles == slow.cycles
            assert timer.snapshot_state() == slow_timer.snapshot_state()
        assert cpu.fastpath.traces.stats["runs"] > 0
