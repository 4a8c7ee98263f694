"""Tests for the seeded fault injectors."""

import types

import pytest

from repro.errors import FaultError
from repro.faults import (
    FaultPlan,
    corrupt_blob,
    flip_memory_bits,
    glitch_mpu_permissions,
    inject_irq_drops,
    inject_irq_storm,
)
from repro.machine.irq import Interrupt
from repro.mpu.ea_mpu import EaMpu


class TestFaultPlan:
    def test_same_scope_same_stream(self):
        plan = FaultPlan(seed=7)
        assert [plan.rng("a").random() for _ in range(3)] == \
            [plan.rng("a").random() for _ in range(3)]

    def test_scopes_are_independent(self):
        plan = FaultPlan(seed=7)
        assert plan.rng("a").random() != plan.rng("b").random()

    def test_seeds_are_independent(self):
        assert FaultPlan(0).rng("a").random() != \
            FaultPlan(1).rng("a").random()

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultPlan(seed="zero")
        with pytest.raises(FaultError):
            FaultPlan().rng("")


class TestMemoryFlips:
    def test_flip_changes_the_byte_and_is_deterministic(
        self, golden_snapshot
    ):
        def flips():
            platform = golden_snapshot.clone()
            before = platform.soc.sram.dump()
            records = flip_memory_bits(
                platform, FaultPlan(3).rng("flip"), memory="sram", flips=4
            )
            after = platform.soc.sram.dump()
            return records, before, after

        records, before, after = flips()
        assert before != after
        changed = [i for i in range(len(before)) if before[i] != after[i]]
        assert set(changed) <= {r["offset"] for r in records}
        again, _, _ = flips()
        assert again == records

    def test_prom_flips_use_the_programming_port(self, golden_snapshot):
        platform = golden_snapshot.clone()
        records = flip_memory_bits(
            platform, FaultPlan(0).rng("prom"), memory="prom",
            lo=0x100, hi=0x200,
        )
        assert all(0x100 <= r["offset"] < 0x200 for r in records)

    def test_validation(self, golden_snapshot):
        platform = golden_snapshot.clone()
        rng = FaultPlan(0).rng("x")
        with pytest.raises(FaultError):
            flip_memory_bits(platform, rng, memory="cache")
        with pytest.raises(FaultError):
            flip_memory_bits(platform, rng, memory="sram", flips=0)
        with pytest.raises(FaultError):
            flip_memory_bits(
                platform, rng, memory="sram", lo=10, hi=10
            )


class TestMpuGlitch:
    def test_clears_exactly_one_permission_bit(self, golden_snapshot):
        platform = golden_snapshot.clone()
        info = glitch_mpu_permissions(platform, FaultPlan(1).rng("mpu"))
        removed = info["old_attr"] & ~info["new_attr"]
        assert removed in (1, 2, 4)
        assert info["new_attr"] == info["old_attr"] & ~removed
        live = platform.mpu.regions[info["region"]]
        assert live.attr == info["new_attr"]

    def test_deterministic(self, golden_snapshot):
        first = glitch_mpu_permissions(
            golden_snapshot.clone(), FaultPlan(5).rng("mpu")
        )
        second = glitch_mpu_permissions(
            golden_snapshot.clone(), FaultPlan(5).rng("mpu")
        )
        assert first == second

    def test_unprogrammed_mpu_rejected(self):
        platform = types.SimpleNamespace(mpu=EaMpu(4))
        with pytest.raises(FaultError):
            glitch_mpu_permissions(platform, FaultPlan(0).rng("mpu"))


class TestIrqFaults:
    def test_storm_latches_only_vectored_lines(self, golden_snapshot):
        platform = golden_snapshot.clone()
        vectored = sorted(platform.engine.irq_vectors)
        assert vectored  # the attestation image installs handlers
        storm = inject_irq_storm(
            platform, FaultPlan(2).rng("storm"), mean_gap=3
        )
        irq = platform.soc.irq
        for _ in range(50):  # device time passes; the CPU stays put
            platform.bus.tick(3)
        assert storm["raised"] > 0
        assert set(irq._pending) <= set(vectored)

    def test_drops_swallow_lines(self, golden_snapshot):
        platform = golden_snapshot.clone()
        drops = inject_irq_drops(
            platform, FaultPlan(2).rng("drop"), rate=0.5
        )
        irq = platform.soc.irq
        for line in range(16):
            irq.raise_line(Interrupt(line=line, source="test"))
        assert drops["dropped"] + drops["delivered"] == 16
        assert drops["dropped"] > 0
        assert len(irq) == drops["delivered"]

    def test_rates_validated(self, golden_snapshot):
        platform = golden_snapshot.clone()
        rng = FaultPlan(0).rng("r")
        with pytest.raises(FaultError):
            inject_irq_storm(platform, rng, mean_gap=0)
        with pytest.raises(FaultError):
            inject_irq_drops(platform, rng, rate=-0.1)


class TestBlobCorruption:
    BLOB = bytes(range(256)) * 4

    def test_truncate_shortens(self):
        bad = corrupt_blob(self.BLOB, FaultPlan(0).rng("t"),
                           mode="truncate")
        assert len(bad) < len(self.BLOB)
        assert bad == self.BLOB[: len(bad)]

    def test_flip_keeps_length_changes_bits(self):
        bad = corrupt_blob(self.BLOB, FaultPlan(0).rng("f"), mode="flip")
        assert len(bad) == len(self.BLOB)
        assert bad != self.BLOB

    def test_deterministic(self):
        first = corrupt_blob(self.BLOB, FaultPlan(9).rng("d"), mode="flip")
        second = corrupt_blob(self.BLOB, FaultPlan(9).rng("d"), mode="flip")
        assert first == second

    def test_validation(self):
        rng = FaultPlan(0).rng("v")
        with pytest.raises(FaultError):
            corrupt_blob(b"", rng)
        with pytest.raises(FaultError):
            corrupt_blob(self.BLOB, rng, mode="scramble")
        with pytest.raises(FaultError):
            corrupt_blob(self.BLOB, rng, mode="flip", flips=0)
