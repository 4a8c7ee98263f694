"""Streaming merge: O(1) coordinator state, order-independence, and
payload identity across worker-count / shard-sizing execution paths."""

import json
import time

import pytest

from repro.fleet.executor import run_resilient
from repro.fleet.parallel import ExecutionPlan, ShardMerger
from repro.fleet.service import FleetConfig, execute_run, prepare_run

# Parent-side live-instance accounting for _make_tracked results: the
# worker's return value is reconstructed in the coordinator by pickle
# (__reduce__ -> Tracked() -> __init__), and CPython refcounting calls
# __del__ the moment the coordinator drops it.
_ALIVE = 0
_PEAK = 0


class Tracked:
    def __init__(self):
        global _ALIVE, _PEAK
        _ALIVE += 1
        _PEAK = max(_PEAK, _ALIVE)

    def __del__(self):
        global _ALIVE
        _ALIVE -= 1

    def __reduce__(self):
        return (Tracked, ())


def _make_tracked(index: int):
    # Stagger completions so results arrive one by one.
    time.sleep(0.05 * (index % 4))
    return Tracked()


def _fake_result(shard: int, device_id: int, *, latency: int) -> dict:
    return {
        "shard": shard,
        "device_ids": [device_id],
        "rounds": [
            {device_id: {"status": "healthy", "attempts": 1}}
        ],
        "metrics": {
            "counters": {"fleet_rounds": 1, "fleet_checked": 1},
            "histograms": {
                "fleet_round_latency_cycles": [latency],
            },
        },
        "transport": {"sent": 2, "delivered": 1, "dropped": 1},
        "timings": {"hydrate_s": 0.25, "execute_s": 1.5},
    }


class TestShardMerger:
    RESULTS = [
        _fake_result(0, 0, latency=700),
        _fake_result(1, 1, latency=100),
        _fake_result(2, 2, latency=400),
    ]

    def test_matches_batch_merge_in_any_order(self):
        batch = ShardMerger(rounds=1)
        for result in self.RESULTS:
            batch.add(result)
        batch_rounds, batch_metrics, batch_transport = batch.finish()
        merger = ShardMerger(rounds=1)
        for result in reversed(self.RESULTS):
            merger.add(result)
        rounds, metrics, transport = merger.finish()
        assert rounds == batch_rounds
        assert transport == batch_transport
        assert metrics.to_dict() == batch_metrics.to_dict()

    def test_collects_worker_timings(self):
        merger = ShardMerger(rounds=1)
        for result in self.RESULTS:
            merger.add(result)
        assert merger.shards == 3
        assert merger.timings["hydrate_s"] == pytest.approx(0.75)
        assert merger.timings["execute_s"] == pytest.approx(4.5)

    def test_folds_worker_sponge_memo_counts(self):
        merger = ShardMerger(rounds=1)
        for index, result in enumerate(self.RESULTS):
            merger.add({**result, "sponge_memo": {
                "hits": 10 * index, "misses": 1,
                "retained_bytes": 1000 - index,
                "final_hits": 5 * index, "final_misses": 2,
                "prefix_hits": 3 * index, "prefix_misses": 4,
            }})
        assert merger.sponge_memo == {
            "hits": 30, "misses": 3, "retained_bytes": 1000,
            "final_hits": 15, "final_misses": 6,
            "prefix_hits": 9, "prefix_misses": 12,
        }
        rounds, metrics, _transport = merger.finish()
        assert "sponge_memo" not in json.dumps(
            [rounds, metrics.to_dict()]
        )

    def test_tolerates_missing_timings(self):
        result = _fake_result(0, 0, latency=1)
        del result["timings"]
        merger = ShardMerger(rounds=1)
        merger.add(result)
        rounds, _metrics, _transport = merger.finish()
        assert rounds[0][0]["status"] == "healthy"

    def test_add_after_finish_rejected(self):
        from repro.errors import FleetError

        merger = ShardMerger(rounds=1)
        merger.finish()
        with pytest.raises(FleetError, match="finished"):
            merger.add(self.RESULTS[0])


class TestStreamingDelivery:
    def test_consume_returns_none_and_sees_everything(self):
        seen = {}
        returned = run_resilient(
            _make_tracked,
            list(range(4)),
            1,
            consume=lambda index, result: seen.setdefault(index, result),
        )
        assert returned is None
        assert sorted(seen) == [0, 1, 2, 3]

    def test_pool_path_holds_o1_results(self):
        """The coordinator must not pin every shard result until the
        end: completed results are folded and freed as they arrive."""
        global _ALIVE, _PEAK
        _ALIVE = _PEAK = 0
        alive_at_consume = []

        def consume(index, result):
            alive_at_consume.append(_ALIVE)

        run_resilient(_make_tracked, list(range(8)), 2, consume=consume)
        assert len(alive_at_consume) == 8
        # Holding all results would read 8 at the tail; streaming stays
        # bounded by what is genuinely in flight.
        assert max(alive_at_consume) <= 4
        assert _ALIVE == 0


class TestExecutionPathIdentity:
    """Worker count (and with it blob shipping) and shard sizing are
    invisible in the report payload."""

    CONFIG = FleetConfig(devices=4, seed=5, compromise=1)

    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_run(self.CONFIG)

    def _canonical(self, report: dict) -> str:
        report = dict(report)
        report.pop("execution")
        return json.dumps(report, sort_keys=True)

    def test_execute_run_streams_not_batch_merges(self, prepared,
                                                  monkeypatch):
        import repro.fleet.service as service

        real_run_shards = service.run_shards

        def streaming_only(*args, consume=None, **kwargs):
            assert consume is not None, "execute_run batch-merged"
            return real_run_shards(*args, consume=consume, **kwargs)

        monkeypatch.setattr(service, "run_shards", streaming_only)
        report = execute_run(prepared, ExecutionPlan(workers=1))
        assert report["ok"] is True

    def test_shm_and_inline_blobs_agree(self, prepared):
        shm = execute_run(
            prepared, ExecutionPlan(workers=2, shard_size=2)
        )
        inline = execute_run(
            prepared, ExecutionPlan(workers=1, shard_size=2)
        )
        assert shm["execution"]["shared_blob"] is True
        assert inline["execution"]["shared_blob"] is False
        assert self._canonical(shm) == self._canonical(inline)

    def test_adaptive_shards_agree_with_pinned(self, prepared):
        pinned = execute_run(
            prepared, ExecutionPlan(workers=1, shard_size=2)
        )
        stages: dict = {}
        adaptive = execute_run(
            prepared,
            ExecutionPlan(workers=1, shard_size=None),
            stage_timings=stages,
        )
        execution = adaptive["execution"]
        assert isinstance(execution["shard_size"], int)
        assert execution["shard_size"] >= 1
        assert self._canonical(adaptive) == self._canonical(pinned)
        # The stage sink is populated and stays out of the report.
        for key in ("ship_s", "hydrate_s", "shard_execute_s",
                    "merge_s", "execute_wall_s", "pool_spinup_s"):
            assert key in stages
        assert "stage_timings" not in adaptive
