"""Tests for the fleet service: end-to-end runs and determinism."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import (
    FleetConfig,
    device_key,
    format_report,
    hydrate_devices,
    prepare_run,
    run_fleet,
)
from repro.fleet.parallel import _cached_snapshot, attestation_image
from repro.fleet.service import SCHEMA

from ..crypto.test_sponge_memo import isolated_memo


class TestConfig:
    def test_validation(self):
        with pytest.raises(FleetError):
            FleetConfig(devices=0)
        with pytest.raises(FleetError):
            FleetConfig(rounds=0)
        with pytest.raises(FleetError):
            FleetConfig(devices=2, compromise=3)
        with pytest.raises(FleetError):
            FleetConfig(compromise=-1)

    def test_device_keys_distinct_and_deterministic(self):
        assert device_key(7, 0) == device_key(7, 0)
        assert device_key(7, 0) != device_key(7, 1)
        assert device_key(7, 0) != device_key(8, 0)
        assert len(device_key(0, 0)) == 16


class TestHydrateDevices:
    def test_clones_share_golden_state(self):
        prepared = prepare_run(FleetConfig(devices=3, compromise=0))
        keys = dict(prepared.keys)
        devices = hydrate_devices(
            prepared.snapshot_blob, keys, compromised=(1,),
            trace_capacity=16,
        )
        snapshot = _cached_snapshot(prepared.snapshot_blob)
        image = attestation_image()
        assert set(devices) == {0, 1, 2}
        assert snapshot.memory_bytes > 0
        assert "ATTEST" in image.module_order
        for device_id, device in devices.items():
            assert device.device_id == device_id
            assert device.platform.image is image
            assert device.platform.cpu.cycles == snapshot.cpu.cycles
            assert device.tracer is not None
        assert devices[1].tampered_modules
        assert not devices[0].tampered_modules
        assert not devices[2].tampered_modules
        quotes = {
            device_id: device.compute_quote(b"n" * 8, 1)[0]
            for device_id, device in devices.items()
        }
        assert quotes[0] != quotes[2]  # keyed per device


class TestRunFleet:
    def test_flags_exactly_the_compromised_device(self):
        report = run_fleet(FleetConfig(devices=4, rounds=1, seed=7))
        assert report["schema"] == SCHEMA
        assert report["ok"] is True
        assert len(report["expected_compromised"]) == 1
        assert report["flagged"]["compromised"] == \
            report["expected_compromised"]
        assert report["flagged"]["unresponsive"] == []
        counters = report["metrics"]["counters"]
        assert counters["fleet_challenges_sent"] == 4
        assert counters["fleet_quotes_verified"] == 3
        assert counters["fleet_quotes_rejected"] == 1

    def test_clean_fleet_all_healthy(self):
        report = run_fleet(FleetConfig(devices=3, compromise=0))
        assert report["ok"] is True
        assert report["expected_compromised"] == []
        assert report["rounds"][0]["healthy"] == 3

    def test_bitwise_deterministic_with_faults(self):
        config = FleetConfig(
            devices=4, rounds=2, seed=13, compromise=1,
            drop_rate=0.2, delay_min=16, delay_max=256,
        )
        # Each run starts from empty sponge caches, so their counts
        # under execution.sponge_memo are compared too.
        with isolated_memo():
            first = json.dumps(run_fleet(config), sort_keys=True)
        with isolated_memo():
            second = json.dumps(run_fleet(config), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        base = FleetConfig(devices=6, delay_max=256)
        first = run_fleet(base)
        second = run_fleet(FleetConfig(devices=6, delay_max=256, seed=1))
        assert first["metrics"]["histograms"] != \
            second["metrics"]["histograms"]

    def test_report_is_json_serializable(self):
        report = run_fleet(FleetConfig(devices=2, compromise=0))
        json.dumps(report)

    def test_format_report_mentions_verdict(self):
        report = run_fleet(FleetConfig(devices=2, compromise=1))
        text = format_report(report)
        assert "verdict: OK" in text
        assert "2 devices" in text
