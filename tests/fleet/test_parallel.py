"""Tests for the sharded multiprocess fleet executor."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import (
    ExecutionPlan,
    FleetConfig,
    execute_run,
    prepare_run,
    run_fleet,
    shard_ids,
)
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.parallel import ShardMerger


def merge(results, *, rounds):
    """Fold every shard result into one ``ShardMerger``."""
    merger = ShardMerger(rounds=rounds)
    for result in results:
        merger.add(result)
    return merger.finish()


class TestExecutionPlan:
    def test_defaults(self):
        plan = ExecutionPlan()
        assert plan.workers == 1
        assert plan.shard_size == 16
        assert plan.engine == "trace"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"shard_size": 0},
            {"engine": "warp"},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FleetError):
            ExecutionPlan(**kwargs)


class TestShardPartition:
    def test_even_split(self):
        assert shard_ids(6, 2) == ((0, 1), (2, 3), (4, 5))

    def test_ragged_tail(self):
        assert shard_ids(5, 2) == ((0, 1), (2, 3), (4,))

    def test_single_shard(self):
        assert shard_ids(3, 16) == ((0, 1, 2),)

    def test_partition_covers_every_device_once(self):
        shards = shard_ids(23, 4)
        flat = [i for shard in shards for i in shard]
        assert flat == list(range(23))

    def test_empty_fleet_rejected(self):
        with pytest.raises(FleetError):
            shard_ids(0, 4)


class TestMerge:
    def test_counters_add_and_rounds_normalize(self):
        def shard(index, count):
            metrics = MetricsRegistry()
            metrics.counter("fleet_challenges_sent").inc(count)
            metrics.counter("fleet_rounds").inc(3)
            metrics.histogram("fleet_round_latency_cycles").observe(
                100 * (index + 1)
            )
            return {
                "shard": index,
                "device_ids": [index],
                "rounds": [
                    {index: {"status": "healthy"}} for _ in range(3)
                ],
                "metrics": metrics.raw_dict(),
                "transport": {
                    "sent": count, "delivered": count,
                    "dropped": 0, "in_flight": 0,
                },
            }

        rounds, metrics, transport = merge(
            [shard(0, 5), shard(1, 7)], rounds=3
        )
        assert metrics.counter("fleet_challenges_sent").value == 12
        assert metrics.counter("fleet_rounds").value == 3
        assert metrics.histogram("fleet_round_latency_cycles").count == 2
        assert transport["sent"] == 12
        assert rounds[0] == {
            0: {"status": "healthy"}, 1: {"status": "healthy"},
        }

    def test_merge_is_order_independent(self):
        def shard(index):
            metrics = MetricsRegistry()
            for value in (10 * index + 1, 10 * index + 2):
                metrics.histogram("h").observe(value)
            return {
                "shard": index,
                "device_ids": [index],
                "rounds": [{index: {"status": "healthy"}}],
                "metrics": metrics.raw_dict(),
                "transport": {
                    "sent": 1, "delivered": 1,
                    "dropped": 0, "in_flight": 0,
                },
            }

        forward = merge([shard(0), shard(1)], rounds=1)
        backward = merge([shard(1), shard(0)], rounds=1)
        assert forward[1].to_dict() == backward[1].to_dict()
        assert forward[0] == backward[0]
        assert forward[2] == backward[2]


class TestShardedRuns:
    CONFIG = dict(
        devices=6, rounds=2, seed=5, compromise=2,
        drop_rate=0.1, delay_max=256,
    )

    def _report(self, plan):
        report = run_fleet(FleetConfig(**self.CONFIG), plan)
        execution = report.pop("execution")
        return report, execution

    def test_worker_count_does_not_change_the_report(self):
        base, exec1 = self._report(ExecutionPlan(workers=1, shard_size=2))
        two, exec2 = self._report(ExecutionPlan(workers=2, shard_size=2))
        assert exec1["shards"] == exec2["shards"] == 3
        assert json.dumps(base, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )

    def test_shard_size_does_not_change_the_report(self):
        base, _ = self._report(ExecutionPlan(workers=1, shard_size=2))
        whole, execution = self._report(
            ExecutionPlan(workers=1, shard_size=16)
        )
        assert execution["shards"] == 1
        assert json.dumps(base, sort_keys=True) == json.dumps(
            whole, sort_keys=True
        )

    def test_reference_engine_same_verdicts(self):
        cached, _ = self._report(ExecutionPlan())
        reference, execution = self._report(
            ExecutionPlan(engine="reference")
        )
        assert execution["engine"] == "reference"
        assert cached["rounds"] == reference["rounds"]
        assert cached["flagged"] == reference["flagged"]
        assert cached["ok"] == reference["ok"]

    def test_prepared_run_is_reusable(self):
        prepared = prepare_run(FleetConfig(**self.CONFIG))
        first = execute_run(prepared, ExecutionPlan(shard_size=3))
        second = execute_run(prepared, ExecutionPlan(shard_size=3))
        assert first == second

    def test_golden_image_linted_once_per_measurement(self):
        from repro.analysis import lint_cache_stats, reset_lint_cache

        reset_lint_cache()
        prepare_run(FleetConfig(devices=2, seed=1))
        first = lint_cache_stats()
        assert first.misses == 1
        prepare_run(FleetConfig(devices=4, seed=2))
        again = lint_cache_stats()
        # Same golden bytes: second preparation hits the verdict cache.
        assert again.misses == 1
        assert again.hits >= 1

    def test_lint_section_identical_across_preparations(self):
        one = prepare_run(FleetConfig(devices=2, seed=1))
        two = prepare_run(FleetConfig(devices=3, seed=9))
        assert one.lint == two.lint

    def test_report_shape(self):
        config = FleetConfig(devices=4, seed=1)
        report = run_fleet(config, ExecutionPlan(workers=1))
        assert report["schema"] == "repro.fleet/3"
        lint = report["lint"]
        assert lint["schema"] == "repro.lint/2"
        assert lint["ok"] is True and lint["errors"] == 0
        assert lint["fingerprints"]["image"]
        assert "ATTEST" in lint["fingerprints"]["modules"]
        execution = report["execution"]
        assert execution["workers"] == 1
        assert execution["shard_size"] == 16
        assert execution["shards"] == 1
        assert execution["engine"] == "trace"
        # An undisturbed run performs no recovery at all.
        assert execution["recovery"]["recoveries"] == 0
        assert execution["recovery"]["degraded"] == 0
        # Quotes re-measure the code the golden boot measured.
        assert execution["sponge_memo"]["hits"] > 0
        assert execution["sponge_memo"]["final_hits"] > 0
        assert execution["sponge_memo"]["prefix_hits"] > 0
        assert report["fleet"]["snapshot_blob_bytes"] > 0
        assert report["ok"] is True
        json.dumps(report)  # must serialize cleanly


class TestPerfCounters:
    def test_engine_counters_surface_with_guest_stepping(self):
        config = FleetConfig(
            devices=2, seed=2, compromise=0, step_cycles=2000,
        )
        report = run_fleet(config)
        counters = report["metrics"]["counters"]
        assert counters["fleet_decode_cache_hits"] > 0
        assert counters["fleet_lookaside_hits"] > 0
        assert counters["fleet_bus_memo_hits"] > 0
        assert counters["fleet_trace_dropped"] == 0

    def test_default_engine_traces_the_idle_spin(self):
        """Between rounds the kernel mostly idles in a ``jmp .`` spin;
        the default engine runs it as a trace."""
        config = FleetConfig(
            devices=2, seed=2, compromise=0, step_cycles=20_000,
        )
        report = run_fleet(config)
        counters = report["metrics"]["counters"]
        assert report["execution"]["engine"] == "trace"
        assert counters["fleet_trace_instructions"] > 0
        reference = run_fleet(config, ExecutionPlan(engine="reference"))
        for section in ("execution", "metrics"):
            report.pop(section)
            reference.pop(section)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_guest_instructions_match_on_every_engine_and_plan(self):
        """``fleet_guest_instructions`` counts architectural work, so
        every engine tier and worker count reports the same number,
        and the traced share of it is a plain ratio."""
        config = FleetConfig(
            devices=4, seed=2, compromise=0, step_cycles=20_000,
        )
        plans = (
            ExecutionPlan(),
            ExecutionPlan(engine="reference"),
            ExecutionPlan(workers=2, shard_size=2),
        )
        counters = [
            run_fleet(config, plan)["metrics"]["counters"] for plan in plans
        ]
        guest = {c["fleet_guest_instructions"] for c in counters}
        assert len(guest) == 1
        total = guest.pop()
        assert total > 0
        traced = counters[0]["fleet_trace_instructions"]
        assert 0 < traced <= total

    def test_private_memory_counts_only_what_clones_copied(self):
        """Attest-only clones copy nothing but a tampered PROM; stepped
        clones copy what the guest writes, the same on every engine
        and worker count."""
        attest = FleetConfig(devices=6, seed=2, compromise=2)
        for plan in (ExecutionPlan(), ExecutionPlan(workers=2, shard_size=3)):
            counters = run_fleet(attest, plan)["metrics"]["counters"]
            assert counters["fleet_private_memory_bytes"] == 2 * 128 * 1024
        stepped = FleetConfig(
            devices=2, seed=2, compromise=0, step_cycles=20_000,
        )
        copied = {
            run_fleet(stepped, plan)["metrics"]["counters"][
                "fleet_private_memory_bytes"
            ]
            for plan in (
                ExecutionPlan(),
                ExecutionPlan(engine="reference"),
                ExecutionPlan(workers=2, shard_size=1),
            )
        }
        assert len(copied) == 1
        assert copied.pop() > 0

    def test_unstepped_clones_build_no_trace_engine(self):
        """Attest-only clones never take a budgeted step, so the trace
        tier costs them nothing: no engine, hence no trace counters."""
        report = run_fleet(FleetConfig(devices=2, seed=2, step_cycles=0))
        assert report["execution"]["engine"] == "trace"
        counters = report["metrics"]["counters"]
        assert "fleet_trace_runs" not in counters
        assert counters["fleet_guest_instructions"] == 0

    def test_reference_engine_reports_zero_decode_hits(self):
        config = FleetConfig(
            devices=2, seed=2, compromise=0, step_cycles=2000,
        )
        report = run_fleet(config, ExecutionPlan(engine="reference"))
        counters = report["metrics"]["counters"]
        # Decode cache and MPU lookaside are fast-path machinery; the
        # bus routing memo exists on both engines.
        assert counters["fleet_decode_cache_hits"] == 0
        assert counters["fleet_lookaside_hits"] == 0
        assert counters["fleet_bus_memo_hits"] > 0

    def test_tracer_drops_surface(self):
        config = FleetConfig(
            devices=1, seed=2, compromise=0,
            step_cycles=4000, trace_capacity=16,
        )
        report = run_fleet(config)
        assert report["metrics"]["counters"]["fleet_trace_dropped"] > 0

    def test_bad_step_cycles_rejected(self):
        with pytest.raises(FleetError):
            FleetConfig(step_cycles=-1)
        with pytest.raises(FleetError):
            FleetConfig(trace_capacity=-1)
