"""Streaming metrics: registry semantics, and the contract that
StreamingFleetStats reproduces FleetMetrics' summary within the sketch's
documented error bound — via both direct folding and sharded merging."""

import numpy as np
import pytest

from repro.fleet import (
    FleetEngine,
    PoolSpec,
    ShardedFleet,
    poisson_arrivals,
    static_allocator,
)
from repro.obs import Counter, Gauge, MetricsRegistry, StreamingFleetStats


@pytest.fixture(scope="module")
def fleet_metrics(workload_small):
    arrivals = poisson_arrivals(
        workload_small.query_ids[:8], n_queries=40, rate_qps=0.8, seed=2
    )
    return FleetEngine(
        workload_small, capacity=24, allocator=static_allocator(5)
    ).serve(arrivals)


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.counter("served").inc(4)
        registry.gauge("queue").set(7.0)
        registry.gauge("queue").set(3.0)
        assert registry.counter("served").value == 5
        assert registry.gauge("queue").value == 3.0
        assert registry.gauge("queue").peak == 7.0
        with pytest.raises(ValueError):
            registry.counter("served").inc(-1)

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("served").inc(2)
        b.counter("served").inc(3)
        b.counter("failed").inc()
        a.gauge("queue").set(5.0)
        b.gauge("queue").set(9.0)
        a.sketch("latency").extend([1.0, 2.0])
        b.sketch("latency").extend([3.0])
        merged = a.merge(b)
        assert merged.counter("served").value == 5
        assert merged.counter("failed").value == 1
        assert merged.gauge("queue").value == 9.0
        assert merged.sketch("latency").count == 3
        assert "latency" in merged.as_dict()["sketches"]

    def test_standalone_primitives_documented_semantics(self):
        counter = Counter("served")
        counter.inc(10)
        gauge = Gauge("depth")
        gauge.set(1.5)
        assert counter.value == 10 and gauge.value == 1.5


class TestStreamingFleetStats:
    def test_summary_within_sketch_bound(self, fleet_metrics):
        """p50/p95/p99 agree with the exact sorted-record percentiles
        within the documented relative-accuracy bound (plus the gap
        between neighbouring order statistics, which np.percentile's
        interpolation can span)."""
        streaming = StreamingFleetStats.from_records(
            fleet_metrics.records, relative_accuracy=0.01
        )
        summary = streaming.summary()
        exact = fleet_metrics.summary()
        assert summary["n_queries"] == exact["n_queries"]
        assert summary["makespan_s"] == exact["makespan_s"]
        assert np.isclose(
            summary["total_executor_seconds"], exact["total_executor_seconds"]
        )
        latencies = np.sort([r.latency for r in fleet_metrics.records])
        for q, key in ((50, "p50_latency_s"), (95, "p95_latency_s"), (99, "p99_latency_s")):
            rank = max(1, int(np.ceil(q / 100 * len(latencies))))
            lo = latencies[max(0, rank - 2)]
            hi = latencies[min(len(latencies) - 1, rank)]
            assert lo * 0.98 <= summary[key] <= hi * 1.02, (q, summary[key])
        assert np.isclose(
            summary["mean_queue_delay_s"], exact["mean_queue_delay_s"], rtol=0.02
        )
        assert np.isclose(
            summary["max_queue_delay_s"], exact["max_queue_delay_s"], rtol=0.02
        )

    def test_observe_stream_equals_from_records(self, fleet_metrics):
        folded = StreamingFleetStats()
        for record in fleet_metrics.records:
            folded.observe(record)
        assert folded.summary() == StreamingFleetStats.from_records(
            fleet_metrics.records
        ).summary()

    def test_sharded_merge_equals_single_stream(self, fleet_metrics):
        """Splitting records across shards and merging reproduces the
        single-stream fold exactly — the associativity the obs layer
        promises distributed collectors."""
        records = fleet_metrics.records
        shards = [
            StreamingFleetStats.from_records(records[i::3]) for i in range(3)
        ]
        merged = shards[0].merge(shards[1]).merge(shards[2])
        single = StreamingFleetStats.from_records(records)
        merged_summary, single_summary = merged.summary(), single.summary()
        assert set(merged_summary) == set(single_summary)
        for key, value in single_summary.items():
            if key == "total_executor_seconds":
                # Summation order differs across merge trees; counts and
                # sketch buckets are exact, float sums are near-exact.
                assert np.isclose(merged_summary[key], value, rtol=1e-12)
            else:
                assert merged_summary[key] == value, key

    def test_cluster_streaming(self, workload_small):
        arrivals = poisson_arrivals(
            workload_small.query_ids[:6], n_queries=20, rate_qps=0.7, seed=4
        )
        cluster = ShardedFleet(
            workload_small, [PoolSpec(12), PoolSpec(12)], static_allocator(4)
        ).serve(arrivals)
        streaming = StreamingFleetStats.from_records(cluster.records)
        assert streaming.n_queries == cluster.n_queries
        assert np.isclose(streaming.makespan, cluster.makespan)
