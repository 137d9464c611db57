"""Workloads ``fleet-tpcds`` and ``fleet-micro-stream``: serve a query stream.

Both serve a fixed, seeded Poisson stream, in which every query recurs
equally often, through a ``ShardedFleet`` of four pools, serve after
serve, each on a fresh fleet, until the run's seconds are spent.
``throughput_per_s`` is simulated queries per host second of one serve
plus its ``summary()``; the latency samples are the host time between
consecutive allocator calls, i.e. the host cost of each arrival.  Both
are CPU time, scaled to the reference host speed.  The simulated
results (``sim_*``) must repeat exactly from serve to serve, and
between the untraced and the traced serve.

- ``fleet-tpcds``: TPC-DS SF=100, four autoscaled pools (8 to 48
  executors) behind the cost-aware router, record mode with idle-release
  ticks, a fresh ``PredictionService`` over the trained AutoExecutor
  allocating each serve; arrivals at 0.15 qps, below capacity.
- ``fleet-micro-stream``: the scale bench's single-stage micro-workload
  on four static 48-executor pools, streaming mode, a static allocator
  of 2 executors, no ticks; arrivals at 20 qps, well below capacity.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.stages import Stage, StageGraph
from repro.fleet import (
    AutoscalerConfig,
    CostAwareRouter,
    FleetConfig,
    PoolSpec,
    PredictionService,
    QueryArrival,
    ShardedFleet,
    static_allocator,
)
from repro.workloads.generator import Workload

from lifecycle import train_system

from probe import (
    CountingTracer,
    HostSpeed,
    cpu_now,
    Spans,
    WorkloadView,
    layer_metrics,
    median,
    peak_rss_mb,
    start_program,
    tail_percentile,
    trace_program,
)

PROGRAM = ("repro.fleet",)
SETUP_REPEATS = {"fleet-tpcds": 3, "fleet-micro-stream": 5}
STREAMS = {
    # (arrivals per serve, rate in queries per simulated second, allocator
    # calls between host speed probes: about every 0.3 s of host time)
    "fleet-tpcds": (1200, 0.15, 100),
    "fleet-micro-stream": (20000, 20.0, 2000),
}
# Every simulated figure must repeat exactly, so no measured wall-clock
# prediction overhead may reach the simulated clock.
TPCDS_CONFIG = FleetConfig(charge_prediction_overhead=False)
MICRO_CONFIG = FleetConfig(
    idle_release_timeout=None, streaming=True, charge_prediction_overhead=False
)
AUTOSCALER = AutoscalerConfig(
    min_capacity=8,
    max_capacity=48,
    scale_up_step=8,
    scale_down_step=8,
    scale_up_lag_s=15.0,
    scale_down_cooldown_s=30.0,
    queue_delay_threshold_s=3.0,
    low_utilization=0.5,
)


class MicroWorkload:
    """Single-stage queries of two or three tasks (the scale bench's).

    The graphs are tiny so the serve measures the serving machinery —
    dispatch, metric folds, per-query state — not plan execution.  The
    seed moves each query's task time by at most 2.5 %, so the simulated
    figures differ from seed to seed while staying comparable.
    """

    SHAPES = {"m1": (2, 1.0), "m2": (3, 0.8), "m3": (2, 1.6)}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        jitter = np.log(1.025)
        self._graphs = {}
        for query_id, (tasks, seconds) in self.SHAPES.items():
            seconds *= float(np.exp(rng.uniform(-jitter, jitter)))
            stage = Stage(stage_id=0, num_tasks=tasks, task_seconds=seconds)
            self._graphs[query_id] = StageGraph(stages=[stage], query_id=query_id)

    @property
    def query_ids(self):
        return tuple(self._graphs)

    def optimized_plan(self, query_id):
        return None  # the static allocator never reads the plan

    def stage_graph(self, query_id):
        return self._graphs[query_id]


def setup(workload: str, seed: int, spans: Spans | None = None):
    """Everything a serve needs before its first arrival.

    fleet-tpcds: every plan and graph, and the AutoExecutor trained on
    all 103 queries.  fleet-micro-stream: the micro-workload's graphs.
    """
    if workload == "fleet-micro-stream":
        return MicroWorkload(seed), None
    view = WorkloadView(Workload(scale_factor=100), spans=spans)
    for query_id in view:
        view.stage_graph(query_id)
    return view.workload, train_system(view, spans)


def arrival_stream(query_ids, n: int, rate_qps: float, seed: int):
    """A seeded Poisson stream in which every query recurs equally often.

    Each block of ``len(query_ids)`` arrivals is a seeded permutation of
    the ids, so seeds change the order and the timing but not the mix
    of work; gaps are exponential at ``rate_qps``, apps uniform over 16.
    Yields arrivals one at a time, as the streaming mode expects.
    """
    rng = np.random.default_rng(seed)
    now = 0.0
    for index in range(n):
        if index % len(query_ids) == 0:
            order = rng.permutation(len(query_ids))
        now += rng.exponential(1.0 / rate_qps)
        yield QueryArrival(
            index=index,
            query_id=query_ids[order[index % len(query_ids)]],
            app_id=int(rng.integers(16)),
            arrival_time=now,
        )


class TimedAllocator:
    """The allocator wrapper: stamps each call's start and end.

    Keeps the wrapped allocator's ``policy_name`` so the fleet's record
    annotations are unchanged.  Every ``probe_every`` calls it times a
    host speed probe first; the scaled clock leaves the probe out of
    every measured interval.
    """

    def __init__(self, allocate, speed: HostSpeed, probe_every: int, spans, span):
        self.allocate = allocate if spans is None else spans.wrap(span, allocate)
        self.policy_name = getattr(allocate, "policy_name", "custom")
        self.speed = speed
        self.probe_every = probe_every
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __call__(self, query_id, plan):
        if len(self.starts) % self.probe_every == 0:
            self.speed.probe()
        self.starts.append(self.speed.now())
        decision = self.allocate(query_id, plan)
        self.ends.append(self.speed.now())
        return decision

    def arrival_costs(self) -> np.ndarray:
        """Scaled host seconds from one allocator call to the next."""
        return np.diff(self.speed.clock(self.starts))

    def cost_growth(self) -> float:
        """Host cost per query, last quarter of the stream over the first.

        The cost of an arrival is the time from its allocator call to the
        next one, minus the time spent inside the allocator itself, so
        the ratio follows the fleet's own per-query cost as the stream
        (and everything the fleet keeps about it) grows.  About 1 means
        constant cost per query; above 1, cost grows with stream length.
        """
        starts = self.speed.clock(self.starts)
        inside = self.speed.clock(self.ends) - starts
        fleet_cost = np.diff(starts) - inside[:-1]
        quarter = len(fleet_cost) // 4
        return float(fleet_cost[-quarter:].sum() / fleet_cost[:quarter].sum())


def serve_once(workload, system, name, seed, speed, spans=None, tracer=None):
    """One serve of the seeded stream on a fresh fleet.

    Returns ``(metrics, summary, serve seconds, allocator, service)``;
    the seconds, on the scaled clock of ``speed``, cover the serve and
    its ``summary()``.
    """
    n, rate, probe_every = STREAMS[name]
    service = None
    if name == "fleet-tpcds":
        arrivals = list(arrival_stream(workload.query_ids, n, rate, seed))
        service = PredictionService.from_autoexecutor(system, tracer=tracer)
        allocator = TimedAllocator(
            service.allocate, speed, probe_every, spans, "fleet.prediction"
        )
        fleet = ShardedFleet(
            workload if spans is None else WorkloadView(workload, spans=spans),
            [PoolSpec(capacity=8, autoscaler=AUTOSCALER) for _ in range(4)],
            allocator,
            router=CostAwareRouter(),
            config=TPCDS_CONFIG,
            tracer=tracer,
        )
    else:
        arrivals = arrival_stream(workload.query_ids, n, rate, seed)
        allocator = TimedAllocator(
            static_allocator(2), speed, probe_every, spans, "fleet.allocator"
        )
        fleet = ShardedFleet(
            workload if spans is None else WorkloadView(workload, spans=spans),
            [48] * 4,
            allocator,
            config=MICRO_CONFIG,
            tracer=tracer,
        )
    speed.probe()
    start = speed.now()
    if spans is None:
        metrics = fleet.serve(arrivals)
        summary = metrics.summary()
    else:
        with spans.span("fleet.serve"):
            metrics = fleet.serve(arrivals)
        with spans.span("fleet.summary"):
            summary = metrics.summary()
    end = speed.now()
    speed.probe()
    return metrics, summary, speed.seconds(start, end), allocator, service


def serve_checks(metrics, n_arrivals, reference) -> int:
    """Failures of one serve: lost arrivals, capacity, changed results."""
    failures = n_arrivals - metrics.n_queries
    if not metrics.capacity_respected:
        failures += 1
    if reference is not None and metrics.summary() != reference:
        failures += 1
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir):
    """One run; returns the result dict ``run.py`` reports."""
    n_arrivals = STREAMS[workload][0]
    cpu = HostSpeed(cpu_now)
    setup_spans = []
    for _ in range(1 if trace else SETUP_REPEATS[workload]):
        cpu.probe()
        start = cpu.now()
        start_program(PROGRAM)
        program, system = setup(workload, seed)
        setup_spans.append((start, cpu.now()))
    cpu.probe()

    budget = seconds / 2 if trace else seconds
    serve_seconds, costs, growths = [], [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    while not serve_seconds or time.perf_counter() - start < budget:
        metrics, summary, serve_s, allocator, _ = serve_once(
            program, system, workload, seed, cpu
        )
        serve_seconds.append(serve_s)
        costs.extend(allocator.arrival_costs())
        growths.append(allocator.cost_growth())
        attempted += n_arrivals + 2
        failed += serve_checks(metrics, n_arrivals, reference)
        reference = reference or summary
    notes = [
        f"{workload}: {len(serve_seconds)} serves of {n_arrivals} arrivals, "
        f"cost growth {median(growths):.4f}, latency samples {len(costs)}"
    ]

    spans = None
    if not trace:
        result = {
            "setup_s": median(cpu.seconds(a, b) for a, b in setup_spans),
            "throughput_per_s": n_arrivals / median(serve_seconds),
            "latency_p50_ms": median(costs) * 1e3,
            "latency_p99_ms": tail_percentile(costs, 99) * 1e3,
            "sim_p95_latency_s": metrics.p95_latency,
            "sim_executor_s": metrics.total_executor_seconds,
        }
    else:
        spans = Spans()
        tracer = CountingTracer()
        with trace_program(spans):
            t_program, t_system = setup(workload, seed, spans)
            t_metrics, _, t_serve_s, t_allocator, service = serve_once(
                t_program, t_system, workload, seed, cpu, spans, tracer
            )
        attempted += n_arrivals + 2
        failed += serve_checks(t_metrics, n_arrivals, reference)
        result = layer_metrics(spans)
        result["fleet.serve.self_s"] = spans.self_time("fleet.serve")
        result["fleet.cost_growth"] = t_allocator.cost_growth()
        result["obs.trace.events"] = float(tracer.total)
        result["obs.trace.overhead_ratio"] = t_serve_s / median(serve_seconds)
        for kind, count in tracer.counts.items():
            result[f"fleet.events_per_query.{kind}"] = count / n_arrivals
        if service is not None:
            decisions = service.hits + service.misses
            result["fleet.prediction.hits"] = float(service.hits)
            result["fleet.prediction.misses"] = float(service.misses)
            result["fleet.prediction.hit_ratio"] = service.hits / decisions
            result["fleet.prediction.cache_size"] = float(service.cache_size)
        notes.append(
            f"{workload}: traced events by kind {dict(sorted(tracer.counts.items()))}"
        )
    result["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": result,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "spans": spans,
    }
