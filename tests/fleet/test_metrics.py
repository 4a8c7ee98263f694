"""Tests for the fleet metrics registry."""

from repro.fleet.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(95) == 95
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100

    def test_nearest_rank_rounds_up(self):
        histogram = Histogram("h")
        for value in range(1000, 0, -1):
            histogram.observe(value)
        assert histogram.percentile(99) == 990
        assert histogram.percentile(99.9) == 999
        assert histogram.percentile(0) == 1

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.percentile(50) == 0
        assert histogram.percentile(99) == 0
        assert histogram.summary() == {"count": 0}

    def test_summary_shape(self):
        histogram = Histogram("h")
        for value in (10, 20, 30, 40):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 10
        assert summary["max"] == 40
        assert summary["mean"] == 25.0
        assert summary["p50"] == 20

    def test_summary_matches_percentile(self):
        histogram = Histogram("h")
        for value in (3, 1, 4, 1, 5, 9, 2, 6):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["min"] == 1
        assert summary["max"] == 9
        for pct in (50, 95, 99):
            assert summary[f"p{pct}"] == histogram.percentile(pct)

    def test_single_observation(self):
        histogram = Histogram("h")
        histogram.observe(7)
        summary = histogram.summary()
        assert summary["p50"] == summary["p95"] == summary["p99"] == 7


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_to_dict_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.histogram("lat").observe(5)
        exported = registry.to_dict()
        assert list(exported["counters"]) == ["a", "b"]
        assert exported["counters"]["a"] == 2
        assert exported["histograms"]["lat"]["count"] == 1
        json.dumps(exported)  # must serialize cleanly


class TestShardMerging:
    def _shard_registry(self, base):
        registry = MetricsRegistry()
        registry.counter("sent").inc(base)
        for value in (base, base * 2):
            registry.histogram("lat").observe(value)
        return registry

    def test_raw_dict_carries_every_observation(self):
        registry = self._shard_registry(5)
        raw = registry.raw_dict()
        assert raw["counters"] == {"sent": 5}
        assert raw["histograms"] == {"lat": [5, 10]}

    def test_merge_raw_reconstructs_the_union(self):
        merged = MetricsRegistry()
        merged.merge_raw(self._shard_registry(5).raw_dict())
        merged.merge_raw(self._shard_registry(7).raw_dict())
        assert merged.counter("sent").value == 12
        summary = merged.histogram("lat").summary()
        assert summary["count"] == 4
        assert summary["min"] == 5
        assert summary["max"] == 14

    def test_merge_raw_skip_counters(self):
        merged = MetricsRegistry()
        raw = self._shard_registry(5).raw_dict()
        merged.merge_raw(raw, skip_counters=("sent",))
        assert merged.counter("sent").value == 0
        assert merged.histogram("lat").count == 2

    def test_merge_order_does_not_change_summaries(self):
        one = MetricsRegistry()
        one.merge_raw(self._shard_registry(5).raw_dict())
        one.merge_raw(self._shard_registry(7).raw_dict())
        other = MetricsRegistry()
        other.merge_raw(self._shard_registry(7).raw_dict())
        other.merge_raw(self._shard_registry(5).raw_dict())
        assert one.to_dict() == other.to_dict()

    def test_raw_round_trip_is_stable(self):
        registry = self._shard_registry(3)
        clone = MetricsRegistry()
        clone.merge_raw(registry.raw_dict())
        assert clone.raw_dict() == registry.raw_dict()
        assert clone.to_dict() == registry.to_dict()
