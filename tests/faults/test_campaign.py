"""Tests for the fault-injection campaign runner."""

import json

import pytest

from repro.errors import FaultError
from repro.faults import campaign as campaign_module
from repro.faults import (
    SCENARIO_NAMES,
    CampaignConfig,
    build_tasks,
    format_campaign,
    run_campaign,
    run_scenario,
)
from repro.faults.campaign import SCHEMA, ScenarioTask
from repro.fleet import device_key, hydrate_devices

# Small but complete: every scenario, one attestation round each.
SMALL = CampaignConfig(seed=1, rounds=1, step_cycles=500, codec_trials=3)


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(SMALL)


class TestConfig:
    def test_defaults_valid(self):
        CampaignConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"timeout_cycles": 0},
            {"max_retries": 0},
            {"backoff": 0.0},
            {"step_cycles": -1},
            {"codec_trials": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(FaultError):
            CampaignConfig(**kwargs)


class TestBuildTasks:
    def test_one_task_per_scenario_sorted(self):
        tasks = build_tasks(SMALL)
        assert [task.name for task in tasks] == list(SCENARIO_NAMES)
        assert SCENARIO_NAMES == tuple(sorted(SCENARIO_NAMES))
        first = tasks[0]
        assert first.snapshot_blob  # golden blob frozen into the task
        assert first.expected_rows
        assert all(
            task.snapshot_blob == first.snapshot_blob for task in tasks
        )

    def test_unknown_scenario_rejected(self):
        task = build_tasks(SMALL)[0]
        bogus = ScenarioTask(
            **{
                **{f: getattr(task, f) for f in task.__dataclass_fields__},
                "name": "no_such_scenario",
            }
        )
        with pytest.raises(FaultError):
            run_scenario(bogus)


class TestCampaignReport:
    def test_invariants_hold(self, small_report):
        assert small_report["schema"] == SCHEMA
        assert small_report["ok"] is True
        assert small_report["violations"] == 0
        names = [s["name"] for s in small_report["scenarios"]]
        assert names == list(SCENARIO_NAMES)
        for scenario in small_report["scenarios"]:
            assert scenario["ok"] is True
            assert scenario["violations"] == []

    def test_tamper_scenarios_flag_the_tampered_device(self, small_report):
        by_name = {s["name"]: s for s in small_report["scenarios"]}
        for name in ("prom_code_flip", "ram_table_flip"):
            rounds = by_name[name]["detail"]["rounds"]
            assert rounds[0]["0"]["status"] != "healthy"
            assert rounds[0]["1"]["status"] == "healthy"

    def test_json_serializable(self, small_report):
        json.dumps(small_report)

    def test_format_mentions_every_scenario(self, small_report):
        text = format_campaign(small_report)
        for name in SCENARIO_NAMES:
            assert name in text
        assert "invariants: OK" in text


class TestOtaScenarios:
    """No-silent-acceptance: the OTA scenarios' core assertions."""

    def test_chunk_corruption_detected_and_recovered(self, small_report):
        by_name = {s["name"]: s for s in small_report["scenarios"]}
        scenario = by_name["ota_chunk_corrupt"]
        assert scenario["ok"] is True
        result = scenario["detail"]["result"]
        assert result["transfer"]["corrupt_detected"] >= 1
        assert result["transfer"]["chunk_retries"] >= 1
        assert result["verdict"] == "updated"
        assert result["fw_version"] == 2

    def test_rollback_replay_refused_with_typed_errors(
        self, small_report
    ):
        by_name = {s["name"]: s for s in small_report["scenarios"]}
        scenario = by_name["ota_rollback_replay"]
        assert scenario["ok"] is True
        detail = scenario["detail"]
        assert detail["replay"] == "rejected"
        assert detail["corrupt"] == "rejected"
        # The refused boots left the device on the committed version.
        assert detail["fw_version"] == 2
        assert detail["fw_floor"] == 2


class TestDeterminism:
    def test_rerun_is_byte_identical(self, small_report):
        again = run_campaign(SMALL)
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(small_report, sort_keys=True)

    def test_worker_count_does_not_leak_into_report(self, small_report):
        parallel = run_campaign(SMALL, workers=2)
        assert json.dumps(parallel, sort_keys=True) == \
            json.dumps(small_report, sort_keys=True)

    def test_seed_changes_the_faults(self, small_report):
        other = run_campaign(
            CampaignConfig(seed=2, rounds=1, step_cycles=500,
                           codec_trials=3)
        )
        assert other["ok"] is True  # invariants hold for any seed
        assert json.dumps(other, sort_keys=True) != \
            json.dumps(small_report, sort_keys=True)


def _campaign_on(engine, seed):
    """The default campaign at ``seed`` with every clone on ``engine``."""

    def hydrate(task, *device_ids):
        return hydrate_devices(
            task.snapshot_blob,
            {i: device_key(task.config.seed, i) for i in device_ids},
            engine=engine,
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign_module, "_hydrate", hydrate)
        return run_campaign(CampaignConfig(seed=seed))


class TestEngineAgreement:
    """A campaign's findings do not depend on the engine it clones on."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_reference_and_trace_agree(self, seed):
        reference = _campaign_on("reference", seed)
        trace = _campaign_on("trace", seed)
        assert [s["name"] for s in trace["scenarios"]] == \
            list(SCENARIO_NAMES)
        assert json.dumps(trace, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)
        # The storm scenario is in the report, and its storm raged.
        storm = {s["name"]: s for s in trace["scenarios"]}["irq_storm"]
        assert storm["detail"]["raised"] > 0
