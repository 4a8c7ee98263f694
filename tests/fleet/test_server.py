"""Tests for the async attestation service (``repro.fleet.server``)."""

import json
import os
import signal

import pytest

from repro.crypto import mac
from repro.errors import FleetError
from repro.fleet.device import quote_material
from repro.fleet.parallel import QuoteCheckBatch, verify_quote_batch
from repro.fleet.pool import get_warm_pool
from repro.fleet.server import (
    SCHEMA,
    AttestationService,
    ServiceConfig,
    format_serve_report,
    run_service,
)


def small_config(**overrides):
    """A service run small enough for unit tests (one golden boot)."""
    defaults = dict(
        devices=3,
        seed=3,
        compromise=1,
        duration_cycles=8000,
        rate_per_kcycle=3.0,
        delay_min=0,
        delay_max=128,
        timeout_cycles=4096,
        tick_cycles=256,
        snapshot_every_cycles=2048,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def canonical(report):
    report = dict(report)
    report.pop("execution")
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module")
def baseline_report():
    return run_service(small_config())


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(FleetError):
            small_config(devices=0)
        with pytest.raises(FleetError):
            small_config(compromise=4)  # > devices
        with pytest.raises(FleetError):
            small_config(queue_capacity=0)
        with pytest.raises(FleetError):
            small_config(batch_max=0)
        with pytest.raises(FleetError):
            small_config(pipeline_depth=0)
        with pytest.raises(FleetError):
            small_config(tick_cycles=0)
        with pytest.raises(FleetError):
            small_config(timeout_cycles=0)
        # Load-shape validation is delegated to LoadProfile.
        with pytest.raises(FleetError):
            small_config(burst_every=1000)  # missing burst_length
        with pytest.raises(FleetError):
            small_config(rate_per_kcycle=0.0)

    def test_workers_validated_at_construction(self):
        with pytest.raises(FleetError):
            AttestationService(small_config(), workers=0)


class TestReportShape:
    def test_schema_and_sections(self, baseline_report):
        report = baseline_report
        assert report["schema"] == SCHEMA
        for section in (
            "config", "image", "lint", "fleet", "load", "service",
            "latency", "flagged", "timeline", "transport", "metrics",
            "execution",
        ):
            assert section in report, f"missing section {section!r}"
        memo = report["execution"]["sponge_memo"]
        assert set(memo) == {"hits", "misses", "retained_bytes",
                             "final_hits", "final_misses",
                             "prefix_hits", "prefix_misses"}
        assert memo["hits"] > 0
        assert memo["final_hits"] > 0 and memo["prefix_hits"] > 0
        json.dumps(report)  # must serialize cleanly

    def test_verdict_flags_the_compromised_device(self, baseline_report):
        report = baseline_report
        assert report["ok"] is True
        assert report["expected_compromised"] == \
            report["flagged"]["compromised"]
        assert report["flagged"]["false_positives"] == []
        assert report["flagged"]["false_negatives"] == []
        assert report["service"]["rejected"] > 0
        assert report["service"]["accepted"] > 0

    def test_counter_conservation(self, baseline_report):
        service = baseline_report["service"]
        sent = baseline_report["metrics"]["counters"][
            "serve_challenges_sent"
        ]
        assert sent == baseline_report["load"]["arrivals"]
        # Every challenge ends exactly one way: verified, shed, timed
        # out — stale responses re-enter as timeouts of the original.
        assert service["admitted"] == service["checked"]
        assert service["checked"] == \
            service["accepted"] + service["rejected"]
        assert sent == service["admitted"] + service["shed"] + \
            service["timeouts"]

    def test_latency_percentiles_present(self, baseline_report):
        latency = baseline_report["latency"]
        assert latency["count"] == baseline_report["service"]["checked"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]

    def test_timeline_snapshots_cadenced(self, baseline_report):
        timeline = baseline_report["timeline"]
        assert timeline, "no snapshots recorded"
        cycles = [entry["cycle"] for entry in timeline]
        assert cycles == sorted(cycles)
        for entry in timeline:
            assert entry["queue_depth"] >= 0
            assert entry["checked"] <= \
                baseline_report["service"]["checked"]


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(
        self, baseline_report
    ):
        rerun = run_service(small_config())
        assert canonical(baseline_report) == canonical(rerun)
        two_workers = run_service(small_config(), workers=2)
        assert canonical(baseline_report) == canonical(two_workers)
        assert two_workers["execution"]["workers"] == 2

    def test_seed_changes_the_report(self, baseline_report):
        other = run_service(small_config(seed=4))
        assert canonical(baseline_report) != canonical(other)


class TestBackpressure:
    def test_tiny_queue_sheds_under_burst(self):
        report = run_service(small_config(
            rate_per_kcycle=12.0,
            queue_capacity=2,
            batch_max=1,
            pipeline_depth=1,
            batch_setup_cycles=4096,
        ))
        service = report["service"]
        assert service["shed"] > 0, "overload never shed a quote"
        assert service["max_queue_depth"] <= 2
        # Shedding must not corrupt the verdict accounting.
        assert service["checked"] == \
            service["accepted"] + service["rejected"]

    def test_storm_produces_timeouts(self):
        report = run_service(small_config(
            storm_up_mean=2000, storm_down_mean=1500,
        ))
        assert report["load"]["storm_windows"]
        assert report["service"]["timeouts"] > 0
        assert report["transport"]["partition_dropped"] > 0
        assert report["ok"] is True  # losses measured, never misflagged


class TestSnapshotHook:
    def test_hook_sees_every_timeline_entry(self):
        seen = []
        report = run_service(
            small_config(), on_snapshot=seen.append
        )
        assert seen == report["timeline"]


class TestWorkerCrash:
    """A pool worker killed mid-run costs one crash and one rebuild."""

    CONFIG = ServiceConfig(
        devices=6, seed=5, compromise=1, duration_cycles=20_000,
        rate_per_kcycle=3.0, drop_rate=0.1,
    )

    def test_killed_worker_is_recovered_once(self):
        killed = []

        def kill_one_worker(entry):
            if killed or entry["batches"] < 2:
                return
            pid = next(iter(get_warm_pool(2)._processes))
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

        disturbed = run_service(
            self.CONFIG, workers=2, on_snapshot=kill_one_worker
        )
        assert killed
        recovery = disturbed["execution"]["recovery"]
        assert recovery["worker_crash"] == 1
        assert recovery["pool_rebuild"] == 1
        assert recovery["degraded"] == 0
        assert canonical(disturbed) == canonical(run_service(self.CONFIG))


class TestFormatServeReport:
    def test_renders_the_essentials(self, baseline_report):
        text = format_serve_report(baseline_report)
        assert "verdict: OK" in text
        assert "admission:" in text
        assert "latency cycles: p50=" in text
        assert "execution: 1 worker(s)" in text
        assert "recovery: none" in text


class TestVerifyQuoteBatch:
    def test_pure_batch_verdicts(self):
        rows = ((1, b"\x11" * 16), (2, b"\x22" * 16))
        key = b"k" * 16
        nonce = b"n" * 8
        good = mac(key, quote_material(nonce, 7, 0, list(rows)))
        batch = QuoteCheckBatch(
            batch_index=0,
            expected_rows=rows,
            items=(
                (0, 7, nonce, good, key),
                (0, 7, nonce, b"\x00" * 16, key),
                (0, 8, nonce, good, key),  # wrong seq in material
            ),
        )
        assert verify_quote_batch(batch) == (True, False, False)
        # Pure: same input, same verdicts, no state carried over.
        assert verify_quote_batch(batch) == (True, False, False)
