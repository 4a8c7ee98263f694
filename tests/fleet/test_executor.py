"""Tests for the self-healing task executor and shard recovery."""

import json
import os

import pytest

from repro.errors import FleetError, ShardExecutionError
from repro.fleet import ExecutionPlan, FleetConfig, execute_run, prepare_run
from repro.fleet.executor import (
    DEGRADED,
    POOL_REBUILD,
    TASK_RETRY,
    TASK_TIMEOUT,
    WORKER_CRASH,
    RecoveryLog,
    RetryPolicy,
    run_resilient,
)
from repro.fleet.parallel import _CRASH_ENV


def _collect(fn, tasks, workers, **kwargs) -> list:
    """``run_resilient`` results in task order; each index arrives once."""
    results = {}

    def consume(index, result):
        assert index not in results, f"index {index} delivered twice"
        results[index] = result

    run_resilient(fn, tasks, workers, consume=consume, **kwargs)
    assert sorted(results) == list(range(len(tasks)))
    return [results[index] for index in range(len(tasks))]


# Worker-side helpers must be importable module-level functions.

def _double(value):
    return 2 * value


def _always_fail(value):
    raise ValueError(f"bad value {value}")


def _flaky(arg):
    """Fail while the countdown file holds a positive number."""
    path, value = arg
    remaining = int(open(path).read())
    if remaining > 0:
        with open(path, "w") as handle:
            handle.write(str(remaining - 1))
        raise ValueError(f"flaky failure #{remaining}")
    return value


def _crash_once(arg):
    """Kill the worker process hard the first time the flag exists."""
    path, value = arg
    if path and os.path.exists(path):
        os.remove(path)
        os._exit(5)
    return value


def _hang_once(arg):
    """Sleep far past the policy timeout the first time the flag exists."""
    import time

    path, value = arg
    if path:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        else:
            time.sleep(120)
    return value


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_pool_rebuilds": -1},
            {"timeout_s": 0},
            {"timeout_s": -1.5},
            {"backoff_cycles": -1},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(FleetError):
            RetryPolicy(**kwargs)

    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_s is None


class TestRecoveryLog:
    def test_counts_and_dict_shape(self):
        log = RecoveryLog()
        log.record(WORKER_CRASH)
        log.record(POOL_REBUILD, backoff_cycles=4096)
        log.record(TASK_RETRY)
        counters = log.to_dict()
        assert counters["worker_crash"] == 1
        assert counters["pool_rebuild"] == 1
        assert counters["task_retry"] == 1
        assert counters["task_timeout"] == 0
        assert counters["degraded"] == 0
        assert counters["recoveries"] == 3
        assert counters["backoff_cycles"] == 4096
        assert log.recoveries == 3
        assert list(counters) == [
            WORKER_CRASH, TASK_TIMEOUT, TASK_RETRY, POOL_REBUILD, DEGRADED,
            "recoveries", "backoff_cycles",
        ]

    def test_pool_broke_rebuilds_then_degrades(self):
        log = RecoveryLog()
        policy = RetryPolicy(max_pool_rebuilds=2, backoff_cycles=100)
        assert [log.pool_broke(policy, k) for k in (1, 2, 3)] == [
            False, False, True,
        ]
        counters = log.to_dict()
        assert counters["pool_rebuild"] == 2
        assert counters["degraded"] == 1
        assert counters["backoff_cycles"] == 100 + 200
        assert counters["recoveries"] == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(FleetError):
            RecoveryLog().record("meteor_strike")


class TestRunResilient:
    def test_inline_map_preserves_order(self):
        assert _collect(_double, [3, 1, 2], 1) == [6, 2, 4]

    def test_pool_map_preserves_order(self):
        assert _collect(_double, [5, 4, 3, 2], 2) == [10, 8, 6, 4]

    def test_workers_validated(self):
        with pytest.raises(FleetError):
            _collect(_double, [1], 0)

    def test_task_id_mismatch_rejected(self):
        with pytest.raises(FleetError):
            _collect(_double, [1, 2], 1, task_ids=["only-one"])

    def test_inline_retry_then_success(self, tmp_path):
        countdown = tmp_path / "failures"
        countdown.write_text("2")
        log = RecoveryLog()
        results = _collect(
            _flaky, [(str(countdown), 42)], 1,
            policy=RetryPolicy(max_attempts=3), log=log,
        )
        assert results == [42]
        assert log.to_dict()["task_retry"] == 2

    def test_inline_exhaustion_is_typed(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            _collect(
                _always_fail, [7], 1,
                task_ids=["shard-7"],
                policy=RetryPolicy(max_attempts=2),
            )
        error = excinfo.value
        assert error.shard_id == "shard-7"
        assert error.attempts == 2
        assert isinstance(error.cause, ValueError)

    def test_pool_exhaustion_is_typed_not_broken_pool(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            _collect(
                _always_fail, [1, 2], 2,
                policy=RetryPolicy(max_attempts=2),
            )
        assert isinstance(excinfo.value.cause, ValueError)

    def test_worker_crash_recovers(self, tmp_path):
        flag = tmp_path / "crash"
        flag.write_text("")
        tasks = [(str(flag), 0), ("", 1), ("", 2), ("", 3)]
        log = RecoveryLog()
        results = _collect(_crash_once, tasks, 2, log=log)
        assert results == [0, 1, 2, 3]
        counters = log.to_dict()
        assert counters["worker_crash"] >= 1
        assert counters["pool_rebuild"] >= 1
        assert counters["recoveries"] >= 2
        assert counters["backoff_cycles"] >= 1

    def test_hung_worker_times_out_and_recovers(self, tmp_path):
        flag = tmp_path / "hang"
        flag.write_text("")
        tasks = [(str(flag), 0), ("", 1)]
        log = RecoveryLog()
        results = _collect(
            _hang_once, tasks, 2,
            policy=RetryPolicy(timeout_s=1.0), log=log,
        )
        assert results == [0, 1]
        assert log.to_dict()["task_timeout"] >= 1

    def test_unrecoverable_pool_degrades_inline(self, tmp_path):
        flag = tmp_path / "crash"
        flag.write_text("")
        tasks = [(str(flag), 0), ("", 1)]
        log = RecoveryLog()
        results = _collect(
            _crash_once, tasks, 2,
            policy=RetryPolicy(max_pool_rebuilds=0), log=log,
        )
        assert results == [0, 1]
        counters = log.to_dict()
        assert counters[DEGRADED] == 1
        assert counters["pool_rebuild"] == 0


class TestFleetRecovery:
    """A killed pool worker must not change what the report says."""

    CONFIG = FleetConfig(devices=4, seed=3, compromise=1)
    PLAN = ExecutionPlan(workers=2, shard_size=2)

    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_run(self.CONFIG)

    def test_crash_mid_run_yields_identical_report(
        self, prepared, tmp_path, monkeypatch
    ):
        baseline = execute_run(prepared, self.PLAN)
        assert baseline["execution"]["recovery"]["recoveries"] == 0

        flag = tmp_path / "kill-shard-1"
        flag.write_text("")
        monkeypatch.setenv(_CRASH_ENV, f"{flag}:1")
        disturbed = execute_run(prepared, self.PLAN)
        assert not flag.exists()  # the worker consumed the flag and died

        recovery = disturbed["execution"].pop("recovery")
        assert recovery["worker_crash"] >= 1
        assert recovery["recoveries"] >= 1
        baseline.pop("execution")
        disturbed.pop("execution")
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            disturbed, sort_keys=True
        )

    def test_crash_env_ignored_for_other_shards(
        self, prepared, tmp_path, monkeypatch
    ):
        flag = tmp_path / "kill-shard-9"
        flag.write_text("")
        monkeypatch.setenv(_CRASH_ENV, f"{flag}:9")
        report = execute_run(prepared, self.PLAN)
        assert flag.exists()  # no shard 9, nobody died
        assert report["execution"]["recovery"]["recoveries"] == 0
