"""Fleet metrics: counters and latency histograms.

A tiny Prometheus-shaped registry for the fleet verifier.  Everything
is measured in *simulated cycles* (never wall clock), so two runs with
the same seed export byte-identical JSON.  A registry lives in one
thread: the verifier steps its devices in a plain loop, and shard
workers are processes that export their registries as plain data.
"""

from __future__ import annotations


class Counter:
    """Monotonic named counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Value distribution with nearest-rank percentiles."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[int] = []

    def observe(self, value: int) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[int]:
        """A copy of every observation (raw export for shard merging)."""
        return list(self._values)

    def percentile(self, pct: float) -> int:
        """Nearest-rank percentile; 0 on an empty histogram."""
        if not self._values:
            return 0
        ordered = sorted(self._values)
        rank = max(1, -(-len(ordered) * pct // 100))  # ceil
        return ordered[int(rank) - 1]

    def summary(self) -> dict:
        values = self._values
        if not values:
            return {"count": 0}
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": round(sum(values) / len(values), 2),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create registry exporting one JSON-ready dict."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def to_dict(self) -> dict:
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # Shard merging.  A worker process exports its registry as plain
    # data (``raw_dict``: counter values and *every* histogram
    # observation, not summaries); the parent folds shard exports into
    # one fleet-level registry with ``merge_raw``.  Summaries sort
    # their observations, so the merged percentiles are independent of
    # merge order — a requirement for worker-count determinism.

    def raw_dict(self) -> dict:
        """Everything needed to reconstruct this registry elsewhere."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.values
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge_raw(self, raw: dict, *, skip_counters: tuple = ()) -> None:
        """Fold a :meth:`raw_dict` export into this registry."""
        for name, value in raw["counters"].items():
            if name not in skip_counters:
                self.counter(name).inc(value)
        for name, values in raw["histograms"].items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)
