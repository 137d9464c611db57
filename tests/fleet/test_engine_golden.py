"""Golden pin: contended ``FleetEngine`` serves against recorded values.

``FleetEngine`` is a one-pool ``ShardedFleet``, so the sharded-of-one
parity suite can no longer tell the two apart.  This file is the
independent oracle: each scenario's exact ``summary()`` dict and a
SHA-256 over its ``(query_id, arrival, admit, finish, executors_granted,
auc)`` record tuples were captured from the standalone single-pool event
loop that ``FleetEngine.serve`` used to run, and must not move.

The scenarios cover record mode with the tick chain (idle release plus
dynamic scaling under fair-share admission), streaming mode (records
recovered from the JSONL spool), and a fault-plan serve with crashes,
stragglers and spot reclamation.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine.allocation import DynamicAllocation
from repro.engine.faults import FaultPlan, SpotMarket
from repro.fleet import (
    FairShareAdmission,
    FleetConfig,
    FleetEngine,
    QueryRecord,
    StreamingConfig,
    poisson_arrivals,
    static_allocator,
)
from repro.workloads.generator import Workload

QIDS = ("q1", "q2", "q3", "q5", "q94")


@pytest.fixture(scope="module")
def workload():
    return Workload(scale_factor=50, query_ids=QIDS)


@pytest.fixture(scope="module")
def stream():
    return poisson_arrivals(QIDS, n_queries=30, rate_qps=1.5, seed=7)


def record_digest(records) -> str:
    rows = [
        (
            r.query_id,
            float(r.arrival_time),
            float(r.admit_time),
            float(r.finish_time),
            int(r.executors_granted),
            float(r.auc),
        )
        for r in records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def serve_record_ticks(workload, stream, tmp_path):
    config = FleetConfig(
        idle_release_timeout=5.0,
        scaling=lambda budget: DynamicAllocation(1, 2 * budget, idle_timeout=10.0),
    )
    metrics = FleetEngine(
        workload,
        capacity=16,
        allocator=static_allocator(8),
        admission=FairShareAdmission(),
        config=config,
    ).serve(stream)
    return metrics, metrics.records


def serve_streaming(workload, stream, tmp_path):
    config = FleetConfig(streaming=StreamingConfig(spool_dir=tmp_path))
    metrics = FleetEngine(
        workload, capacity=16, allocator=static_allocator(6), config=config
    ).serve(iter(stream))
    lines = (tmp_path / "pool_000.jsonl").read_text(encoding="utf-8").splitlines()
    return metrics, [QueryRecord.from_json(line) for line in lines]


def serve_faults(workload, stream, tmp_path):
    plan = FaultPlan(
        seed=5,
        crash_rate=1.0 / 200.0,
        straggler_rate=0.1,
        spot=SpotMarket(fraction=0.5, discount=0.35, reclaim_rate=1.0 / 300.0),
    )
    metrics = FleetEngine(
        workload,
        capacity=16,
        allocator=static_allocator(8),
        config=FleetConfig(faults=plan),
    ).serve(stream)
    return metrics, metrics.records


SCENARIOS = {
    "record_ticks": serve_record_ticks,
    "streaming": serve_streaming,
    "faults": serve_faults,
}

PINNED: dict[str, tuple[dict[str, float], str]] = {
    "faults": (
        {
            "n_queries": 30.0,
            "makespan_s": 724.4398254456314,
            "p50_latency_s": 336.4309631918626,
            "p95_latency_s": 610.6269592465463,
            "p99_latency_s": 682.8080986338286,
            "mean_queue_delay_s": 303.4567846623901,
            "max_queue_delay_s": 593.0516597433985,
            "peak_pool_usage": 16.0,
            "utilization": 0.8712639848823579,
            "total_executor_seconds": 9020.853266003847,
            "idle_capacity_seconds": 0.0,
            "provisioned_executor_seconds": 11591.037207130103,
            "total_dollar_cost": 1.0789643590408853,
            "provisioned_dollar_cost": 1.9318395345216837,
            "prediction_cache_hit_rate": 0.0,
            "executor_failures": 59.0,
            "task_retries": 73.0,
            "wasted_work_seconds": 313.74363806925345,
            "spot_executor_seconds": 3918.564787320825,
            "spot_dollar_cost": 0.2285829459270481,
        },
        "ad469828eb462856e38673c7abe48dbe2af0ad3a9a5791ea6ea0da7c1c45415c",
    ),
    "record_ticks": (
        {
            "n_queries": 30.0,
            "makespan_s": 421.7170755547315,
            "p50_latency_s": 213.21544878967592,
            "p95_latency_s": 351.22765240543623,
            "p99_latency_s": 390.89364971987527,
            "mean_queue_delay_s": 180.7224046886134,
            "max_queue_delay_s": 340.2638312709688,
            "peak_pool_usage": 16.0,
            "utilization": 0.9868221941711088,
            "total_executor_seconds": 5440.839241538765,
            "idle_capacity_seconds": 0.0,
            "provisioned_executor_seconds": 6747.473208875704,
            "total_dollar_cost": 0.9068065402564608,
            "provisioned_dollar_cost": 1.1245788681459505,
            "prediction_cache_hit_rate": 0.0,
            "executor_failures": 0.0,
            "task_retries": 0.0,
            "wasted_work_seconds": 0.0,
            "spot_executor_seconds": 0.0,
            "spot_dollar_cost": 0.0,
        },
        "6edef4f2c8b4ea3b7dc71a414388926397967b9e781fae0a8e6ee69d9c3e40d9",
    ),
    "streaming": (
        {
            "n_queries": 30.0,
            "makespan_s": 437.64077478852363,
            "p50_latency_s": 198.3684859812456,
            "p95_latency_s": 368.76036263516966,
            "p99_latency_s": 415.7778110661339,
            "mean_queue_delay_s": 185.93979333169167,
            "max_queue_delay_s": 352.9223094291768,
            "peak_pool_usage": 12.0,
            "utilization": 0.7083781250184029,
            "total_executor_seconds": 4360.242423620728,
            "idle_capacity_seconds": 0.0,
            "provisioned_executor_seconds": 7002.252396616378,
            "total_dollar_cost": 0.7267070706034546,
            "provisioned_dollar_cost": 1.1670420661027296,
            "prediction_cache_hit_rate": 0.0,
            "executor_failures": 0.0,
            "task_retries": 0.0,
            "wasted_work_seconds": 0.0,
            "spot_executor_seconds": 0.0,
            "spot_dollar_cost": 0.0,
        },
        "b8992d38962e39696fe50f43ef33eb5834d82925c21fbd3e200efd56529da431",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serve_matches_pinned_values(workload, stream, tmp_path, name):
    metrics, records = SCENARIOS[name](workload, stream, tmp_path)
    summary, digest = PINNED[name]
    assert metrics.max_queue_delay > 0.0  # the pool really is contended
    assert len(records) == len(stream)
    assert metrics.summary() == summary
    assert record_digest(records) == digest
