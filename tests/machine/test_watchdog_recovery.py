"""Watchdog recovery under faults: storms, snapshots and clones.

The watchdog is the platform's last line of fault tolerance (Sec. 6),
so it must itself survive the faults the campaign throws at
everything else: its NMI must remain visible through an IRQ storm of
maskable lines, and its countdown must travel exactly through
``snapshot_state``/``restore_state`` and ``Snapshot.clone`` so a
restored fleet device keeps its DoS protection mid-countdown.  The
fault injectors, which wrap instance methods, do not travel: a clone of
a fault-injected platform keeps what was latched and starts fault-free.
"""

import pytest

from repro.core.platform import TrustLitePlatform
from repro.faults import FaultPlan, inject_irq_drops, inject_irq_storm
from repro.machine import Snapshot, decode_snapshot, encode_snapshot
from repro.machine.bus import Bus
from repro.machine.devices.watchdog import (
    CTRL,
    CTRL_ENABLE,
    PERIOD,
    Watchdog,
)
from repro.machine.irq import Interrupt, InterruptController
from repro.machine.soc import WATCHDOG_BASE, WATCHDOG_IRQ_LINE
from repro.sw.images import build_attestation_image


class TestExpiryUnderStorm:
    def test_nmi_visible_through_latched_maskable_lines(self):
        irq = InterruptController()
        dog = Watchdog(irq, line=WATCHDOG_IRQ_LINE)
        dog.write(PERIOD, 4, 50)
        dog.write(CTRL, 4, CTRL_ENABLE)
        # A storm of lower- and higher-numbered maskable lines latches
        # before the dog expires.
        for line in (0, 2, 3, 4, 5):
            irq.raise_line(Interrupt(line=line, source="storm"))
        dog.tick(50)
        pending = irq.pending(ie=False)
        assert pending is not None
        assert pending.line == WATCHDOG_IRQ_LINE
        assert pending.nmi

    def test_expiry_fires_amid_injected_storm(self):
        """A storm arrival latched on the watchdog's own line before
        the dog expires must not swallow its NMI."""
        platform = TrustLitePlatform()
        platform.boot(build_attestation_image())
        storm = inject_irq_storm(
            platform, FaultPlan(11).rng("wdog-storm"), mean_gap=2
        )
        dog = platform.soc.watchdog
        dog.write(PERIOD, 4, 64)
        dog.write(CTRL, 4, CTRL_ENABLE)
        for _ in range(64):
            platform.bus.tick(1)
        assert storm["raised"] == 36
        assert dog.fired == 1
        masked = platform.soc.irq.pending(ie=False)
        assert masked == Interrupt(
            line=WATCHDOG_IRQ_LINE, source=dog.name, nmi=True
        )

    @pytest.mark.parametrize("mean_gap", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_expiry_survives_a_seeded_storm(self, mean_gap, seed):
        """Whatever the storm latched first, the NMI is pending from the
        expiry on and stays through the storm's later arrivals."""
        platform = TrustLitePlatform()
        platform.boot(build_attestation_image())
        inject_irq_storm(
            platform, FaultPlan(seed).rng("wdog-storm"), mean_gap=mean_gap
        )
        dog = platform.soc.watchdog
        period = 16 + 7 * seed
        dog.write(PERIOD, 4, period)
        dog.write(CTRL, 4, CTRL_ENABLE)
        irq = platform.soc.irq
        for cycle in range(1, 3 * period):
            platform.bus.tick(1)
            masked = irq.pending(ie=False)
            if cycle < period:
                assert masked is None
            else:
                assert masked is not None and masked.nmi
                assert masked.line == WATCHDOG_IRQ_LINE

    def test_nmi_replaces_a_maskable_interrupt_on_its_line(self):
        irq = InterruptController()
        irq.raise_line(Interrupt(line=WATCHDOG_IRQ_LINE, source="storm"))
        nmi = Interrupt(line=WATCHDOG_IRQ_LINE, source="watchdog", nmi=True)
        irq.raise_line(nmi)
        assert irq.pending(ie=False) == nmi
        assert irq.pending() == nmi
        assert len(irq) == 1

    def test_maskable_raise_never_replaces_a_latched_nmi(self):
        irq = InterruptController()
        nmi = Interrupt(line=WATCHDOG_IRQ_LINE, source="watchdog", nmi=True)
        irq.raise_line(nmi)
        irq.raise_line(Interrupt(line=WATCHDOG_IRQ_LINE, source="storm"))
        assert irq.pending(ie=False) == nmi
        # Re-raising a latched line of the same kind keeps the first.
        irq.raise_line(
            Interrupt(line=WATCHDOG_IRQ_LINE, source="other", nmi=True)
        )
        assert irq.pending(ie=False) == nmi
        irq.raise_line(Interrupt(line=2, source="timer"))
        irq.raise_line(Interrupt(line=2, source="storm"))
        assert irq.pending(ie=True) == nmi
        irq.acknowledge(WATCHDOG_IRQ_LINE)
        assert irq.pending() == Interrupt(line=2, source="timer")


class TestStateRoundTrip:
    def _programmed(self, period=100):
        irq = InterruptController()
        dog = Watchdog(irq, line=WATCHDOG_IRQ_LINE)
        dog.write(PERIOD, 4, period)
        dog.write(CTRL, 4, CTRL_ENABLE)
        return irq, dog

    def test_round_trip_mid_countdown(self):
        _, dog = self._programmed()
        dog.tick(130)  # fired once, 70 into the second countdown
        state = dog.snapshot_state()

        irq2 = InterruptController()
        twin = Watchdog(irq2, line=WATCHDOG_IRQ_LINE)
        twin.restore_state(state)
        assert twin.snapshot_state() == state

        # Deterministic continuation: both expire on the same cycle.
        dog.tick(69)
        twin.tick(69)
        assert len(irq2) == 0  # one cycle short of expiry
        dog.tick(1)
        twin.tick(1)
        assert dog.fired == twin.fired == 2
        assert irq2.pending(ie=False).nmi

    def test_restore_clears_divergent_state(self):
        _, dog = self._programmed()
        state = dog.snapshot_state()
        dog.tick(1000)
        assert dog.fired == 10
        dog.restore_state(state)
        assert dog.snapshot_state() == state
        assert dog.fired == 0


class TestSnapshotClone:
    @pytest.fixture(scope="class")
    def armed_snapshot(self):
        platform = TrustLitePlatform()
        platform.boot(build_attestation_image())
        # Program the watchdog over the bus and advance mid-countdown,
        # as guest code would.
        platform.bus.write(WATCHDOG_BASE + PERIOD, 500)
        platform.bus.write(WATCHDOG_BASE + CTRL, CTRL_ENABLE)
        platform.soc.watchdog.tick(200)
        return Snapshot.save(platform)

    def test_clone_carries_mid_countdown_state(self, armed_snapshot):
        clone = armed_snapshot.clone()
        dog = clone.soc.watchdog
        assert dog.enabled
        assert dog.period == 500
        assert dog.read(0x08, 4) == 300  # COUNT resumes where it was
        assert dog.fired == 0

    def test_clones_tick_independently(self, armed_snapshot):
        a = armed_snapshot.clone()
        b = armed_snapshot.clone()
        a.soc.watchdog.tick(300)
        assert a.soc.watchdog.fired == 1
        assert a.soc.irq.pending(ie=False) is not None
        # The sibling clone and the snapshot itself are untouched.
        assert b.soc.watchdog.fired == 0
        assert b.soc.irq.pending(ie=False) is None
        assert armed_snapshot.clone().soc.watchdog.read(0x08, 4) == 300

    def test_codec_round_trip_preserves_countdown(self, armed_snapshot):
        decoded = decode_snapshot(encode_snapshot(armed_snapshot))
        dog = decoded.clone().soc.watchdog
        assert (dog.period, dog.enabled, dog.read(0x08, 4)) == (
            500, True, 300,
        )


class TestInjectedFaultsAcrossClones:
    def test_clone_of_a_faulted_platform_starts_fault_free(self):
        """A snapshot keeps the interrupts the storm already latched and
        drops both injectors; ticking the clone latches nothing, while
        the original's storm keeps arriving.  A caller that wants the
        faults on a clone re-injects them after cloning."""
        platform = TrustLitePlatform()
        platform.boot(build_attestation_image())
        storm = inject_irq_storm(
            platform, FaultPlan(11).rng("wdog-storm"), mean_gap=2
        )
        inject_irq_drops(platform, FaultPlan(11).rng("wdog-drops"))
        for _ in range(32):
            platform.bus.tick(1)
        saved = Snapshot.save(platform)
        assert saved.irq_pending
        assert {i.source for i in saved.irq_pending} == {"fault:storm"}

        clone = decode_snapshot(encode_snapshot(saved)).clone()
        assert Snapshot.save(clone).irq_pending == saved.irq_pending
        soc = clone.soc
        assert soc.bus.tick.__func__ is Bus.tick
        assert soc.cpu.event_horizon == soc.bus.next_event_in
        assert soc.irq.raise_line.__func__ is InterruptController.raise_line

        for twin in (clone, platform):
            for interrupt in Snapshot.save(twin).irq_pending:
                twin.soc.irq.acknowledge(interrupt.line)
        raised = storm["raised"]
        for _ in range(64):
            clone.bus.tick(1)
            platform.bus.tick(1)
        assert len(clone.soc.irq) == 0
        assert storm["raised"] == raised + 32
        assert len(platform.soc.irq) > 0
