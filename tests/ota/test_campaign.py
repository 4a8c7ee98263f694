"""Tests for staged OTA campaigns: gates, rollback, determinism."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet.parallel import _CRASH_ENV
from repro.ota import OtaConfig, format_ota_report, run_campaign
from repro.ota.campaign import ROLLED_BACK, UPDATED, _wave_plan


def _payload(report):
    """The deterministic part: everything but how it was produced."""
    stripped = dict(report)
    stripped.pop("execution")
    return json.dumps(stripped, sort_keys=True)


@pytest.fixture(scope="module")
def config():
    return OtaConfig(devices=4, seed=7, delay_max=32)


@pytest.fixture(scope="module")
def report(config):
    return run_campaign(config, workers=1)


class TestHappyPath:
    def test_campaign_updates_whole_fleet(self, config, report):
        assert report["schema"] == "repro.ota/1"
        assert report["ok"] is True
        assert report["devices_on_target"] == list(
            range(config.devices)
        )
        assert set(report["final_versions"].values()) == {2}
        assert not report["rollback"]["triggered"]

    def test_waves_are_staged(self, report):
        names = [wave["wave"] for wave in report["waves"]]
        assert names == ["canary", "cohort", "fleet"]
        assert all(wave["gate"] == "pass" for wave in report["waves"])
        covered = [
            device
            for wave in report["waves"]
            for device in wave["devices"]
        ]
        assert sorted(covered) == covered == list(range(4))

    def test_every_device_attested_on_new_version(self, report):
        for wave in report["waves"]:
            for verdict in wave["verdicts"].values():
                assert verdict["verdict"] == UPDATED
                assert verdict["fw_version"] == 2

    def test_sponge_memo_counts_only_under_execution(self, report):
        memo = report["execution"]["sponge_memo"]
        # Re-measured modules are served by the digest memo.
        assert memo["hits"] > 0 and memo["retained_bytes"] > 0
        assert "sponge_memo" not in _payload(report)

    def test_report_is_json_clean(self, report):
        assert json.loads(json.dumps(report)) == report

    def test_format_report_renders(self, report):
        text = format_ota_report(report)
        assert "gate PASS" in text
        assert "verdict: OK" in text


class TestDeterminism:
    def test_rerun_is_byte_identical(self, config, report):
        again = run_campaign(config, workers=1)
        # A rerun in the same process finds the sponge memo warm, so
        # its counts are the one field that reads process history.
        assert again["execution"]["sponge_memo"]["hits"] > 0

        def without_memo(one):
            one = json.loads(json.dumps(one))
            one["execution"].pop("sponge_memo")
            return json.dumps(one, sort_keys=True)

        assert without_memo(again) == without_memo(report)

    def test_worker_count_does_not_change_payload(self, config, report):
        two = run_campaign(config, workers=2)
        assert two["execution"]["workers"] == 2
        assert _payload(two) == _payload(report)

    def test_worker_crash_does_not_change_payload(
        self, config, report, tmp_path, monkeypatch
    ):
        flag = tmp_path / "crash"
        flag.write_text("")
        monkeypatch.setenv(_CRASH_ENV, f"{flag}:2")
        crashed = run_campaign(config, workers=2)
        assert not flag.exists(), "crash hook never fired"
        recovery = crashed["execution"]["recovery"]
        assert recovery["worker_crash"] >= 1
        assert _payload(crashed) == _payload(report)


class TestLossyTransfer:
    def test_corrupt_chunk_detected_and_retried(self):
        report = run_campaign(
            OtaConfig(
                devices=1, seed=3, chunk_size=256, corrupt_chunk=0,
                delay_max=16,
            )
        )
        transfer = report["waves"][0]["transfer"]
        assert transfer["corrupt_detected"] >= 1
        assert transfer["chunk_retries"] >= 1
        assert transfer["backoff_cycles"] > 0
        assert report["ok"] is True  # detected, retried, installed

    def test_dropped_chunks_recovered(self):
        report = run_campaign(
            OtaConfig(
                devices=2, seed=5, chunk_size=512, drop_rate=0.2,
                delay_max=16, max_attempts=6,
            )
        )
        assert report["ok"] is True
        assert (
            run_campaign(
                OtaConfig(
                    devices=2, seed=5, chunk_size=512, drop_rate=0.2,
                    delay_max=16, max_attempts=6,
                )
            )["waves"]
            == report["waves"]
        )


class TestRollback:
    @pytest.fixture(scope="class")
    def failed(self):
        return run_campaign(
            OtaConfig(devices=3, seed=7, fail="canary", delay_max=32)
        )

    def test_canary_failure_stops_the_campaign(self, failed):
        assert failed["ok"] is False
        assert failed["waves"][0]["gate"] == "fail"
        assert len(failed["waves"]) == 1  # no promotion past the gate

    def test_zero_devices_on_rejected_version(self, failed):
        assert failed["devices_on_target"] == []
        assert set(failed["final_versions"].values()) == {1}

    def test_rollback_is_attested(self, failed):
        rollback = failed["rollback"]
        assert rollback["triggered"] is True
        assert rollback["wave"] == "canary"
        for verdict in rollback["verdicts"].values():
            assert verdict["verdict"] == ROLLED_BACK
            assert verdict["fw_version"] == 1

    def test_rollback_report_is_deterministic(self, failed):
        again = run_campaign(
            OtaConfig(devices=3, seed=7, fail="canary", delay_max=32),
            workers=2,
        )
        assert _payload(again) == _payload(failed)

    def test_format_reports_rollback(self, failed):
        text = format_ota_report(failed)
        assert "gate FAIL" in text
        assert "rollback: triggered" in text
        assert "verdict: ROLLED-BACK" in text


class TestWavePlan:
    def test_default_cohort_is_quarter_of_remainder(self):
        waves = dict(_wave_plan(OtaConfig(devices=9, canary=1)))
        assert waves["canary"] == (0,)
        assert waves["cohort"] == (1, 2)
        assert waves["fleet"] == (3, 4, 5, 6, 7, 8)

    def test_single_device_is_one_canary_wave(self):
        assert _wave_plan(OtaConfig(devices=1)) == [("canary", (0,))]

    def test_explicit_cohort_respected(self):
        waves = dict(
            _wave_plan(OtaConfig(devices=6, canary=2, cohort=3))
        )
        assert waves["canary"] == (0, 1)
        assert waves["cohort"] == (2, 3, 4)
        assert waves["fleet"] == (5,)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"devices": 0},
            {"devices": 2, "canary": 0},
            {"devices": 2, "canary": 3},
            {"devices": 4, "canary": 2, "cohort": 3},
            {"chunk_size": 0},
            {"timeout_cycles": 0},
            {"max_attempts": 0},
            {"backoff_cycles": -1},
            {"fail": "everything"},
        ],
    )
    def test_bad_config_refused(self, kwargs):
        with pytest.raises(FleetError):
            OtaConfig(**kwargs)
