"""Tests for the fleet verifier's rounds, retries and verdicts."""

import pytest

from repro.core.attestation import expected_measurements
from repro.core.trustlet_table import name_tag
from repro.errors import AttestationError, FleetError
from repro.fleet.device import FleetDevice
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.transport import FaultModel, InProcessTransport
from repro.fleet.verifier import (
    COMPROMISED,
    FleetVerifier,
    HEALTHY,
    UNRESPONSIVE,
)

KEY = b"\x33" * 16


class DeafDevice(FleetDevice):
    """Never answers — models a dead or unreachable device."""

    def handle_challenge(self, message):
        return None


class FlakyDevice(FleetDevice):
    """Ignores the first ``misses`` challenges, then behaves."""

    def __init__(self, *args, misses=1, **kwargs):
        super().__init__(*args, **kwargs)
        self._misses = misses

    def handle_challenge(self, message):
        if self._misses > 0:
            self._misses -= 1
            return None
        return super().handle_challenge(message)


class RaisingDevice(FleetDevice):
    """Raises ``error`` on every challenge (a broken endpoint)."""

    def __init__(self, *args, error, **kwargs):
        super().__init__(*args, **kwargs)
        self._error = error

    def handle_challenge(self, message):
        raise self._error


def expected_rows(image):
    digests = expected_measurements(image)
    return [(name_tag(name), digests[name]) for name in image.module_order]


def make_verifier(golden, devices, **kwargs):
    _snapshot, image = golden
    transport = kwargs.pop("transport", InProcessTransport())
    metrics = kwargs.pop("metrics", MetricsRegistry())
    return FleetVerifier(
        devices,
        transport,
        {i: KEY for i in devices},
        expected_rows(image),
        metrics=metrics,
        **kwargs,
    ), metrics


class TestVerdicts:
    def test_flags_exactly_the_tampered_device(self, golden):
        snapshot, _image = golden
        devices = {
            i: FleetDevice(i, snapshot.clone(), KEY) for i in range(3)
        }
        devices[1].tamper_code()
        verifier, metrics = make_verifier(golden, devices)
        verdicts = verifier.run_round()
        assert verdicts[0].status == HEALTHY
        assert verdicts[1].status == COMPROMISED
        assert verdicts[1].reason == "quote MAC mismatch"
        assert verdicts[2].status == HEALTHY
        exported = metrics.to_dict()["counters"]
        assert exported["fleet_quotes_verified"] == 2
        assert exported["fleet_quotes_rejected"] == 1

    def test_healthy_latency_recorded_in_cycles(self, golden):
        snapshot, _image = golden
        devices = {0: FleetDevice(0, snapshot.clone(), KEY)}
        verifier, metrics = make_verifier(
            golden, devices,
            transport=InProcessTransport(
                fault_model=FaultModel(delay_min=64, delay_max=64)
            ),
        )
        verdicts = verifier.run_round()
        assert verdicts[0].status == HEALTHY
        # challenge link + quote computation + response link; the cost
        # depends only on material sizes, so any 8-byte nonce works.
        _quote, cycles = FleetDevice(
            0, devices[0].platform, KEY
        ).compute_quote(b"x" * 8, 99)
        assert verdicts[0].latency_cycles == 64 + cycles + 64
        summary = metrics.to_dict()["histograms"][
            "fleet_round_latency_cycles"
        ]
        assert summary["count"] == 1

    def test_deaf_device_unresponsive_after_retries(self, golden):
        snapshot, _image = golden
        devices = {
            0: FleetDevice(0, snapshot.clone(), KEY),
            1: DeafDevice(1, snapshot.clone(), KEY),
        }
        verifier, metrics = make_verifier(
            golden, devices, max_retries=2, timeout_cycles=4096
        )
        verdicts = verifier.run_round()
        assert verdicts[0].status == HEALTHY
        assert verdicts[1].status == UNRESPONSIVE
        assert verdicts[1].attempts == 3
        counters = metrics.to_dict()["counters"]
        assert counters["fleet_timeouts"] == 1
        assert counters["fleet_retries"] == 2
        # The clock advanced one timeout window per attempt.
        assert verifier.now == 3 * 4096

    def test_flaky_device_recovers_on_retry(self, golden):
        snapshot, _image = golden
        devices = {0: FlakyDevice(0, snapshot.clone(), KEY, misses=1)}
        verifier, metrics = make_verifier(golden, devices, max_retries=2)
        verdicts = verifier.run_round()
        assert verdicts[0].status == HEALTHY
        assert verdicts[0].attempts == 2
        assert metrics.to_dict()["counters"]["fleet_retries"] == 1

    def test_wrong_key_is_compromised(self, golden):
        snapshot, _image = golden
        devices = {0: FleetDevice(0, snapshot.clone(), b"\x44" * 16)}
        verifier, _metrics = make_verifier(golden, devices)
        assert verifier.run_round()[0].status == COMPROMISED


class TestDeviceErrors:
    def test_typed_error_leaves_device_unresponsive(self, golden):
        snapshot, _image = golden
        devices = {
            0: FleetDevice(0, snapshot.clone(), KEY),
            1: RaisingDevice(
                1, snapshot.clone(), KEY,
                error=AttestationError("measurement crashed"),
            ),
            2: FleetDevice(2, snapshot.clone(), KEY),
        }
        verifier, metrics = make_verifier(golden, devices, max_retries=2)
        verdicts = verifier.run_round()
        assert verdicts[0].status == HEALTHY
        assert verdicts[1].status == UNRESPONSIVE
        assert verdicts[2].status == HEALTHY
        counters = metrics.to_dict()["counters"]
        assert counters["fleet_device_errors"] == 2 + 1

    def test_untyped_error_propagates_out_of_the_round(self, golden):
        snapshot, _image = golden
        devices = {
            0: FleetDevice(0, snapshot.clone(), KEY),
            1: RaisingDevice(
                1, snapshot.clone(), KEY, error=RuntimeError("bug")
            ),
        }
        verifier, _metrics = make_verifier(golden, devices)
        with pytest.raises(RuntimeError, match="bug"):
            verifier.run_round()


class TestRounds:
    def test_sequence_numbers_advance_across_rounds(self, golden):
        snapshot, _image = golden
        devices = {0: FleetDevice(0, snapshot.clone(), KEY)}
        verifier, _metrics = make_verifier(golden, devices)
        assert verifier.run_round()[0].status == HEALTHY
        assert verifier.run_round()[0].status == HEALTHY
        assert devices[0].last_seq == 2
        assert devices[0].replays_rejected == 0

    def test_one_round_handles_many_devices(self, golden):
        snapshot, _image = golden
        devices = {
            i: FleetDevice(i, snapshot.clone(), KEY) for i in range(6)
        }
        verifier, _metrics = make_verifier(golden, devices)
        verdicts = verifier.run_round()
        assert all(v.status == HEALTHY for v in verdicts.values())


class TestValidation:
    def test_keys_must_cover_devices(self, golden):
        snapshot, image = golden
        devices = {0: FleetDevice(0, snapshot.clone(), KEY)}
        with pytest.raises(FleetError):
            FleetVerifier(
                devices, InProcessTransport(), {1: KEY},
                expected_rows(image),
            )

    def test_timeout_must_be_positive(self, golden):
        snapshot, image = golden
        devices = {0: FleetDevice(0, snapshot.clone(), KEY)}
        with pytest.raises(FleetError):
            FleetVerifier(
                devices, InProcessTransport(), {0: KEY},
                expected_rows(image), timeout_cycles=0,
            )
