"""Quick-scale checks of the fleet-stack benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Every workload runs at ``--quick`` scale in fresh processes, exactly as
the full benchmark does, so these tests cover the driver, the child
process, the span wrappers and the correctness gate end to end.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.suite.driver import END_TO_END
from benchmarks.suite.hostspeed import Sampler
from benchmarks.suite.spans import ENTRY_POINTS
from benchmarks.suite.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(argv: list[str], cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


def _suite(*args: str):
    return _run(["-m", "benchmarks.suite", "--seed", "1", "--quick", *args])


@pytest.fixture(scope="module")
def suite():
    proc = _suite("--repeats", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


def test_every_metric_is_printed_with_its_unit(suite):
    lines, _summary = suite
    rows = [line.split() for line in lines]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        printed = [row for row in rows if row[:1] == [metric["name"]]]
        assert len(printed) == len(WORKLOADS), metric["name"]
        for row in printed:
            float(row[1])
            assert row[2] == metric["unit"], (metric["name"], row)


def test_traced_and_untraced_payloads_match(suite):
    _lines, summary = suite
    assert summary["ok"], summary["problems"]
    for name, workload in summary["workloads"].items():
        assert workload["payload"] == workload["traced_payload"], name


def test_every_wrapper_fired(suite):
    _lines, summary = suite
    fired = set()
    for name, workload in summary["workloads"].items():
        assert workload["coverage"] == [], (name, workload["coverage"])
        fired |= set(workload["spans"])
    assert {entry[0] for entry in ENTRY_POINTS} <= fired


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_injected_violation_fails_the_run(workload):
    proc = _suite("--repeats", "1", "--workloads", workload,
                  "--inject-violation")
    assert proc.returncode != 0
    assert "FAIL" in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_command_prints_one_result_line(trace):
    proc = _run(["benchmarks/suite/run.py", "--workload", "serve-steady",
                 "--seed", "3", "--seconds", "1", "--trace", trace,
                 "--quick"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_host_factor_turns_host_times_into_reference_seconds():
    began = time.monotonic()
    sampler = Sampler()
    try:
        while len(sampler.samples) < 3 and time.monotonic() < began + 5:
            time.sleep(0.01)
    finally:
        sampler.stop()
    ended = time.monotonic()
    factor = sampler.factor(began, ended)
    assert len(sampler.samples) >= 3 and factor > 0
    assert 0 < sampler.cpu_s(began, ended) < ended - began
    record = {"ops": 10, "wall_s": 2.0, "cpu_s": 4.0, "setup_s": 0.5,
              "host_call": factor, "host_setup": 2 * factor}
    assert END_TO_END["ops_per_s"](record) == pytest.approx(5.0 * factor)
    assert END_TO_END["cpu_ms_per_op"](record) == pytest.approx(400 / factor)
    assert END_TO_END["setup_s"](record) == pytest.approx(0.25 / factor)


def test_contract_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "suite", tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = _run(["benchmarks/suite/run.py", "--workload", "fleet-attest",
                 "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
