"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "5528" in out and "Sancus" in out

    def test_figure7(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "sancus_modules: 9" in out

    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "interruptible trusted modules" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "TL-A data" in out
        assert "rw" in out

    def test_demo(self, capsys):
        assert main(["demo", "--cycles", "50000"]) == 0
        out = capsys.readouterr().out
        assert "trustlet preemptions" in out
        assert "MPU faults           : 0" in out

    def test_disasm_known_module(self, capsys):
        assert main(["disasm", "TL-A"]) == 0
        out = capsys.readouterr().out
        assert "jmp" in out and "movi" in out

    def test_disasm_unknown_module(self, capsys):
        assert main(["disasm", "GHOST"]) == EXIT_USAGE
        assert "unknown module" in capsys.readouterr().err

    def test_fleet_text_report(self, capsys):
        assert main([
            "fleet", "--devices", "3", "--seed", "7",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 devices" in out
        assert "verdict: OK" in out

    def test_fleet_json_report(self, capsys):
        assert main([
            "fleet", "--devices", "3", "--compromise", "0", "--json",
        ]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.fleet/3"
        assert report["ok"] is True
        assert report["lint"]["ok"] is True
        assert report["lint"]["schema"] == "repro.lint/2"
        assert report["lint"]["fingerprints"]["image"]
        assert report["rounds"][0]["healthy"] == 3
        assert report["execution"]["workers"] == 1
        assert report["execution"]["engine"] == "trace"

    def test_fleet_bad_compromise_is_usage_error(self, capsys):
        assert main([
            "fleet", "--devices", "2", "--compromise", "5",
        ]) == EXIT_USAGE

    def test_fleet_bad_workers_is_usage_error(self, capsys):
        assert main([
            "fleet", "--devices", "2", "--workers", "0",
        ]) == EXIT_USAGE

    def test_fleet_unknown_engine_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--devices", "2", "--engine", "fast"])
        assert exc.value.code == EXIT_USAGE

    def test_fleet_engine_and_workers_flags(self, capsys):
        assert main([
            "fleet", "--devices", "4", "--compromise", "0",
            "--workers", "2", "--shard-size", "2",
            "--engine", "reference", "--json",
        ]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        execution = report["execution"]
        assert execution["workers"] == 2
        assert execution["shard_size"] == 2
        assert execution["shards"] == 2
        assert execution["engine"] == "reference"
        assert execution["recovery"]["recoveries"] == 0

    def test_fleet_report_independent_of_workers(self, capsys):
        args = ["fleet", "--devices", "4", "--seed", "9", "--json"]
        assert main(args + ["--workers", "1"]) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert main(args + ["--workers", "2", "--shard-size", "2"]) \
            == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        first.pop("execution")
        second.pop("execution")
        assert first == second

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestLint:
    def test_clean_image_exits_zero(self, capsys):
        assert main(["lint"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_broken_image_exits_one(self, capsys):
        assert main(["lint", "--image", "broken"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        # The headline rule families must all appear: the PR-1
        # syntactic ones and the v2 dataflow ones.
        assert "TL-ENTRY-001" in out
        assert "TL-WX-001" in out
        assert "TL-PRIV-001" in out
        assert "TL-TAINT-001" in out
        assert "TL-IJMP-001" in out
        assert "TL-STACK-001" in out

    def test_json_report(self, capsys):
        assert main(["lint", "--image", "broken", "--json"]) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.lint/2"
        assert report["ok"] is False
        rules = {f["rule"] for f in report["findings"]}
        assert {"TL-ENTRY-001", "TL-WX-001", "TL-PRIV-001",
                "TL-TAINT-001", "TL-TAINT-002", "TL-TAINT-003",
                "TL-IJMP-001", "TL-IJMP-002",
                "TL-STACK-001", "TL-STACK-002"} <= rules
        assert report["counts"]["errors"] == len(
            [f for f in report["findings"] if f["severity"] == "error"]
        )

    def test_json_clean_report(self, capsys):
        assert main(["lint", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.lint/2"
        assert report["ok"] is True
        assert report["findings"] == []
        assert report["fingerprints"]["image"]
        assert set(report["fingerprints"]["modules"]) == set(
            report["modules"]
        )
        assert report["stack_bounds"]

    @pytest.mark.parametrize("image", ["epay", "handshake"])
    def test_new_cli_images_lint(self, image, capsys):
        # Both exit 0/1 by findings; neither has error findings.
        code = main(["lint", "--image", image, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["errors"] == 0
        assert code == (EXIT_OK if report["ok"] else EXIT_FINDINGS)

    def test_unknown_image_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--image", "ghost"])
        assert exc.value.code == EXIT_USAGE


class TestFleetResilienceFlags:
    def test_backoff_flag_plumbed_into_config(self, capsys):
        assert main([
            "fleet", "--devices", "2", "--compromise", "0",
            "--backoff", "1.5", "--json",
        ]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["backoff"] == 1.5

    def test_retry_and_timeout_flags_plumbed(self, capsys):
        assert main([
            "fleet", "--devices", "2", "--compromise", "0",
            "--retries", "3", "--timeout-cycles", "4096", "--json",
        ]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["max_retries"] == 3
        assert report["config"]["timeout_cycles"] == 4096

    @pytest.mark.parametrize(
        "extra",
        [
            ["--backoff", "0"],
            ["--backoff", "-1"],
            ["--timeout-cycles", "0"],
            ["--retries", "-1"],
            ["--drop-rate", "1.5"],
            ["--delay-min", "10", "--delay-max", "5"],
        ],
    )
    def test_bad_resilience_values_are_usage_errors(self, extra, capsys):
        assert main(
            ["fleet", "--devices", "2"] + extra
        ) == EXIT_USAGE


class TestServe:
    SMALL = [
        "serve", "--devices", "3", "--seed", "3",
        "--duration", "8000", "--rate", "3.0",
        "--timeout-cycles", "4096",
    ]

    def test_text_report(self, capsys):
        assert main(self.SMALL) == EXIT_OK
        out = capsys.readouterr().out
        assert "serve: 3 devices" in out
        assert "admission:" in out
        assert "verdict: OK" in out

    def test_json_report(self, capsys):
        assert main(self.SMALL + ["--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.serve/1"
        assert report["ok"] is True
        assert report["lint"]["ok"] is True
        assert report["latency"]["count"] > 0
        assert report["execution"]["workers"] == 1

    def test_worker_count_never_changes_the_report(self, capsys):
        assert main(self.SMALL + ["--json"]) == EXIT_OK
        one = json.loads(capsys.readouterr().out)
        assert main(self.SMALL + ["--workers", "2", "--json"]) == EXIT_OK
        two = json.loads(capsys.readouterr().out)
        assert two["execution"]["workers"] == 2
        one.pop("execution")
        two.pop("execution")
        assert one == two

    def test_burst_multiplier_alone_derives_windows(self, capsys):
        assert main(self.SMALL + ["--burst", "4", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["load"]["burst_windows"] == [
            [2000, 3000], [4000, 5000], [6000, 7000],
        ]
        assert report["config"]["burst_multiplier"] == 4.0

    @pytest.mark.parametrize(
        "extra",
        [
            ["--workers", "0"],
            ["--queue", "0"],
            ["--rate", "0"],
            ["--burst", "0.5", "--burst-every", "1000",
             "--burst-length", "500"],
            ["--storm-up", "1000"],  # missing --storm-down
            ["--compromise", "9"],
            ["--drop-rate", "1.5"],
            ["--delay-min", "10", "--delay-max", "5"],
        ],
    )
    def test_bad_serve_values_are_usage_errors(self, extra, capsys):
        assert main(self.SMALL + extra) == EXIT_USAGE
        assert "serve:" in capsys.readouterr().err


class TestFaults:
    def test_campaign_passes_and_emits_json(self, capsys):
        assert main([
            "faults", "--seed", "3", "--rounds", "1",
            "--step-cycles", "500", "--json",
        ]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.faults/1"
        assert report["ok"] is True
        assert report["violations"] == 0
        from repro.faults import SCENARIO_NAMES

        assert len(report["scenarios"]) == len(SCENARIO_NAMES)

    def test_text_report(self, capsys):
        assert main([
            "faults", "--rounds", "1", "--step-cycles", "500",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fault campaign" in out
        assert "invariants: OK" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--retries", "0"],
            ["--backoff", "0"],
            ["--workers", "0"],
            ["--rounds", "0"],
            ["--timeout-cycles", "0"],
        ],
    )
    def test_bad_values_are_usage_errors(self, extra, capsys):
        assert main(["faults"] + extra) == EXIT_USAGE


class TestOta:
    SMALL = ["ota", "--devices", "3", "--seed", "7", "--delay-max", "32"]

    def test_campaign_updates_and_emits_json(self, capsys):
        assert main(self.SMALL + ["--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.ota/1"
        assert report["ok"] is True
        assert report["devices_on_target"] == [0, 1, 2]

    def test_text_report(self, capsys):
        assert main(self.SMALL) == EXIT_OK
        out = capsys.readouterr().out
        assert "gate PASS" in out
        assert "verdict: OK" in out

    def test_forced_canary_failure_exits_one(self, capsys):
        assert main(
            self.SMALL + ["--fail", "canary", "--json"]
        ) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["rollback"]["triggered"] is True
        assert report["devices_on_target"] == []

    @pytest.mark.parametrize(
        "extra",
        [
            ["--devices", "0"],
            ["--canary", "0"],
            ["--chunk-size", "0"],
            ["--attempts", "0"],
            ["--workers", "0"],
            ["--cohort", "99"],
            ["--drop-rate", "1.5"],
            ["--delay-min", "10", "--delay-max", "5"],
        ],
    )
    def test_bad_values_are_usage_errors(self, extra, capsys):
        assert main(self.SMALL + extra) == EXIT_USAGE
        assert "ota:" in capsys.readouterr().err


class TestLintContainer:
    def test_signed_demo_container_is_clean(self, capsys):
        assert main(["lint", "--container", "signed"]) == EXIT_OK
        assert "no findings" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("kind", "rule"),
        [
            ("unsigned", "TL-OTA-002"),
            ("wrong-key", "TL-OTA-001"),
            ("rollback", "TL-OTA-003"),
            ("tampered", "TL-OTA-004"),
            ("truncated", "TL-OTA-005"),
        ],
    )
    def test_each_defect_hits_its_rule(self, kind, rule, capsys):
        assert main(
            ["lint", "--container", kind, "--json"]
        ) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {rule}
