"""Each fleet front-end's flags land in its run config by name.

A report's ``config`` section is ``asdict`` of the frozen config the
command ran, so comparing it with a config built from only the given
fields proves two things at once: every flag left out has the same
default on the command line as on the config, and every given flag
(including those whose name differs from the field, such as
``--retries`` for ``max_retries``) reaches its field.
"""

import json
from dataclasses import asdict

import pytest

from repro.cli import EXIT_FINDINGS, EXIT_OK, main
from repro.faults import CampaignConfig
from repro.fleet import FleetConfig, ServiceConfig
from repro.ota import OtaConfig

CASES = {
    "fleet": (
        ["fleet", "--devices", "2", "--compromise", "0",
         "--retries", "3"],
        FleetConfig,
        {"devices": 2, "compromise": 0, "max_retries": 3},
    ),
    "serve": (
        ["serve", "--devices", "3", "--seed", "3", "--duration", "8000",
         "--rate", "3.0", "--burst", "4", "--storm-up", "3000",
         "--storm-down", "400", "--queue", "32", "--pipeline", "3",
         "--timeout-cycles", "4096"],
        ServiceConfig,
        # --burst alone derives the windows from the duration.
        {"devices": 3, "seed": 3, "duration_cycles": 8000,
         "rate_per_kcycle": 3.0, "burst_multiplier": 4.0,
         "burst_every": 2000, "burst_length": 1000,
         "storm_up_mean": 3000, "storm_down_mean": 400,
         "queue_capacity": 32, "pipeline_depth": 3,
         "timeout_cycles": 4096},
    ),
    "faults": (
        ["faults", "--rounds", "1", "--step-cycles", "500",
         "--retries", "3"],
        CampaignConfig,
        {"rounds": 1, "step_cycles": 500, "max_retries": 3},
    ),
    "ota": (
        ["ota", "--devices", "3", "--seed", "7", "--delay-max", "32",
         "--attempts", "4"],
        OtaConfig,
        {"devices": 3, "seed": 7, "delay_max": 32, "max_attempts": 4},
    ),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_report_config_is_the_config_of_the_given_fields(command, capsys):
    argv, config_type, given = CASES[command]
    assert main(argv + ["--json"]) in (EXIT_OK, EXIT_FINDINGS)
    report = json.loads(capsys.readouterr().out)
    expected = json.loads(json.dumps(asdict(config_type(**given))))
    assert report["config"] == expected
