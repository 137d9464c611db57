"""The sharded fleet: N executor pools behind a router, on one clock.

One pool cannot serve planet-scale traffic: admission becomes a single
convoy, capacity is one blast radius, and provisioning is all-or-nothing.
The sharded fleet is the horizontal axis — several
:class:`~repro.fleet.engine.PoolRuntime` pools multiplexed on one
discrete-event heap, with two new control loops in front of and above
them:

- a **router** (:mod:`repro.fleet.routing`) places each query on a pool
  at submit time, from round-robin through cost-aware
  (prediction-estimate-weighted) placement;
- per-pool **autoscalers** (:mod:`repro.fleet.autoscaler`) move each
  pool's capacity between a floor and a ceiling from queue-delay and
  utilization signals, with provisioning lag on the way up and a
  cooldown on the way down — and every provisioned executor-second,
  idle or not, lands on the bill.

This module holds the fleet's one serve loop.
:class:`~repro.fleet.engine.FleetEngine` is a sharded fleet of **one
statically provisioned pool** behind the default round-robin router, so
single-pool and N-pool serves run the same code; the multiprocess
driver (:mod:`repro.fleet.parallel`) shares the event dispatch
(:meth:`PoolRuntime.dispatch
<repro.fleet.engine.PoolRuntime.dispatch>`), the allocator step
(:func:`~repro.fleet.engine.allocator_decision`), the router views and
the metric roll-up defined here.  With the sharded-of-one parity now
holding by construction, two oracles check the loop against independent
references: a fleet of one query on an uncontended pool reproduces
``simulate_query`` bit-for-bit (``tests/engine/test_execution_parity.py``),
and contended single-pool serves are pinned to recorded summaries and
record digests (``tests/fleet/test_engine_golden.py``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.cluster import Cluster
from repro.engine.execution import CompiledPlan
from repro.fleet.admission import AdmissionPolicy
from repro.fleet.arrivals import QueryArrival
from repro.fleet.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.fleet.engine import (
    Allocator,
    FleetConfig,
    PoolRuntime,
    allocator_decision,
)
from repro.fleet.metrics import ClusterMetrics, FleetMetrics
from repro.obs.trace import TraceEvent, Tracer
from repro.fleet.routing import (
    DEFAULT_RUNTIME_ESTIMATE_S,
    PoolView,
    Router,
    RoundRobinRouter,
    RoutingRequest,
)
from repro.workloads.generator import Workload

__all__ = ["PoolSpec", "ShardedFleet"]


@dataclass(frozen=True)
class PoolSpec:
    """One pool's shape inside a sharded fleet.

    Attributes:
        capacity: initial provisioned size (executors).
        admission: queueing policy for this pool (default FIFO).
        autoscaler: elastic-capacity config; ``None`` keeps the pool
            statically provisioned (and its metrics free of idle
            charges — the parity-preserving default).
    """

    capacity: int
    admission: AdmissionPolicy | None = None
    autoscaler: AutoscalerConfig | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("pool capacity must be at least 1 executor")
        if self.autoscaler is not None:
            if not (
                self.autoscaler.min_capacity
                <= self.capacity
                <= self.autoscaler.max_capacity
            ):
                raise ValueError(
                    "initial capacity must sit inside the autoscaler's "
                    "[min_capacity, max_capacity] range"
                )

    @property
    def max_capacity(self) -> int:
        return (
            self.capacity if self.autoscaler is None else self.autoscaler.max_capacity
        )


def pool_specs(pools: Sequence[PoolSpec | int]) -> list[PoolSpec]:
    """Normalize a driver's ``pools`` argument (plain ints are
    statically provisioned pools of that capacity)."""
    specs = [
        spec if isinstance(spec, PoolSpec) else PoolSpec(capacity=int(spec))
        for spec in pools
    ]
    if not specs:
        raise ValueError("a sharded fleet needs at least one pool")
    return specs


def static_views(specs: Sequence[PoolSpec]) -> list[PoolView]:
    """Idle-valued pool snapshots for a state-blind router.

    A ``uses_pool_state = False`` router may read only the static shape
    fields (``index``, ``capacity``, ``max_capacity``) and the pool
    count, so one frozen list serves every routing call; building live
    snapshots per submit measured at >60 % of a round-robin serve.
    """
    return [
        PoolView(
            index=i,
            capacity=spec.capacity,
            max_capacity=spec.max_capacity,
            free=spec.capacity,
            in_use=0,
            queue_length=0,
            queued_executors=0,
            queued_work_seconds=0.0,
            active_queries=0,
        )
        for i, spec in enumerate(specs)
    ]


def route(router: Router, request: RoutingRequest, views: list[PoolView]) -> int:
    """Ask ``router`` for a pool and reject an out-of-range pick."""
    chosen = router.pick(request, views)
    if not 0 <= chosen < len(views):
        raise ValueError(
            f"router {router.name!r} picked pool {chosen} out of {len(views)}"
        )
    return chosen


def cluster_metrics(pools: list[FleetMetrics], placed: Sequence[int]) -> ClusterMetrics:
    """Roll finalized pools up into the cluster's metrics.

    ``placed[q]`` is the pool that served stream position ``q`` (empty
    for a streaming serve).  Each pool lists its records in stream
    order, so drawing from the placed pool in turn rebuilds the
    cluster's stream order.  Every pool then bills the cluster-wide
    serving window, read from the cluster's fold — a pool the router
    never picked still pays for its provisioned floor.
    """
    drawn = [iter(pool.records) for pool in pools]
    metrics = ClusterMetrics(
        pools=pools, records=[next(drawn[i]) for i in placed], pool_of=list(placed)
    )
    for pool in pools:
        pool.serving_window = metrics.fold.window
    return metrics


class ShardedFleet:
    """Serve an arrival stream across several pools behind a router.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        pools: per-pool shapes — :class:`PoolSpec` instances, or plain
            ints as shorthand for statically provisioned pools.
        allocator: per-query executor-budget decision, shared by all
            pools (same contract as :class:`~repro.fleet.engine.FleetEngine`).
        router: placement policy (default round-robin).
        cluster: node/executor shapes and provisioning lag (shared).
        config: fleet knobs (shared by every pool).
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving the
            cluster's full event stream — arrival/prediction/routing
            events from this driver, lifecycle events from every pool
            runtime and autoscaler, execution events from every query's
            core, all stamped with their pool index.  ``None`` (the
            default) serves bit-identically to an untraced fleet.
    """

    def __init__(
        self,
        workload: Workload,
        pools: Sequence[PoolSpec | int],
        allocator: Allocator,
        router: Router | None = None,
        cluster: Cluster = Cluster(),
        config: FleetConfig = FleetConfig(),
        tracer: Tracer | None = None,
    ) -> None:
        self.workload = workload
        self.pools = pool_specs(pools)
        self.allocator = allocator
        self.router: Router = router if router is not None else RoundRobinRouter()
        self.cluster = cluster
        self.config = config
        self.tracer = tracer
        # One compile-once memo for the whole cluster: every pool serves
        # the same workload, so a plan compiles once, not once per pool.
        self._compiled: dict[str, CompiledPlan] = {}

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    @property
    def max_budget(self) -> int:
        """Largest admission budget any pool could ever grant."""
        return max(spec.max_capacity for spec in self.pools)

    def serve(self, arrivals: Iterable[QueryArrival]) -> ClusterMetrics:
        """Play out the whole stream; returns the cluster's metrics.

        Queries are keyed by *stream position*, never by the
        user-supplied ``QueryArrival.index`` field.  Record mode takes
        the arrivals in any order (and rejects duplicate indices).  In
        streaming mode (:attr:`FleetConfig.streaming`) ``arrivals`` may
        be any time-ordered iterable — consumed lazily, one arrival
        ahead of the clock — and the returned :class:`ClusterMetrics`
        carries per-pool sketches instead of records.
        """
        config = self.config
        record_mode = config.streaming is None
        tracer = self.tracer
        ticking = False

        counter = itertools.count()
        # (time, class, seq, kind, pool, q, payload).  Class 0 is an
        # arrival keyed by its stream position, class 1 everything else
        # keyed by the push counter: same-instant ties break
        # arrivals-first in stream order, then in push order.  Arrivals
        # enter the heap one at a time, in time order, the next when the
        # previous fires — the same total order as pushing them all up
        # front, with O(1) arrivals in flight.
        events: list[tuple[float, int, int, str, int, int, object]] = []

        def push(
            pool: int, time: float, kind: str, q: int = -1, payload: object = None
        ) -> None:
            heapq.heappush(events, (time, 1, next(counter), kind, pool, q, payload))

        # Any autoscaled pool needs the tick chain even when the fleet
        # config itself asks for no idle release or scaling.
        wants_ticks = config.wants_ticks or any(
            spec.autoscaler is not None for spec in self.pools
        )

        def start_ticks(now: float) -> None:
            # One tick chain for the whole cluster, anchored at the first
            # admission anywhere — matching the single-query scheduler's
            # ticks at k·tick_interval from query submission.
            nonlocal ticking
            if wants_ticks and not ticking:
                ticking = True
                push(-1, now + config.tick_interval, "tick")

        runtimes: list[PoolRuntime] = []
        scalers: dict[int, PoolAutoscaler] = {}
        for i, spec in enumerate(self.pools):
            runtime = PoolRuntime(
                workload=self.workload,
                capacity=spec.capacity,
                cluster=self.cluster,
                admission=spec.admission,
                config=config,
                # A partial, not a lambda: no extra Python frame per push.
                push=functools.partial(push, i),
                start_ticks=start_ticks,
                compiled=self._compiled,
                max_capacity=spec.max_capacity,
                tracer=tracer,
                pool_index=i,
            )
            if spec.autoscaler is not None:
                runtime.track_capacity()
                scalers[i] = PoolAutoscaler(spec.autoscaler, tracer=tracer, pool=i)
            runtimes.append(runtime)

        if record_mode:
            # Replay the stream time-sorted (stable: ties keep stream
            # order) under its stream positions.
            feed = iter(
                sorted(
                    enumerate(validate_stream(arrivals)),
                    key=lambda entry: entry[1].arrival_time,
                )
            )
        else:
            feed = enumerate(arrivals)
        total = 0
        finished = 0
        exhausted = False
        last_arrival_t = 0.0

        def pull_arrival() -> None:
            # Keep exactly one unprocessed arrival in the heap; the next
            # is pulled when this one's arrive event fires.
            nonlocal total, exhausted, last_arrival_t
            for pos, arrival in feed:
                t = arrival.arrival_time
                if t < last_arrival_t:
                    raise ValueError("streaming arrival streams must be time-ordered")
                last_arrival_t = t
                heapq.heappush(events, (t, 0, pos, "arrive", -1, pos, arrival))
                total += 1
                return
            exhausted = True

        pull_arrival()
        if total == 0:
            raise ValueError("cannot serve an empty arrival stream")
        if tracer is not None:
            tracer.emit(
                TraceEvent(
                    0.0,
                    "serve_begin",
                    -1,
                    -1,
                    None,
                    {"pools": [spec.capacity for spec in self.pools]},
                )
            )

        decisions: dict[int, tuple[int, bool | None, float, float | None, dict]] = {}
        pool_of: dict[int, int] = {}

        def view(i: int) -> PoolView:
            runtime = runtimes[i]
            queued_work = 0.0
            for request in runtime.arbiter.queued_requests:
                estimate = decisions[request.query_index][3]
                if estimate is None:
                    estimate = DEFAULT_RUNTIME_ESTIMATE_S
                queued_work += request.executors * estimate
            return PoolView(
                index=i,
                capacity=runtime.capacity,
                max_capacity=runtime.max_capacity,
                free=runtime.free,
                in_use=runtime.in_use,
                queue_length=runtime.queue_length,
                queued_executors=runtime.arbiter.queued_executors,
                queued_work_seconds=queued_work,
                active_queries=runtime.active_queries,
                oldest_submit_time=runtime.arbiter.oldest_submit_time,
            )

        # Routers that omit ``uses_pool_state`` are assumed stateful.
        live_views = getattr(self.router, "uses_pool_state", True)
        frozen_views = static_views(self.pools)

        def scalers_can_act() -> bool:
            """Whether any autoscaler can still unblock queued work —
            distinguishes "waiting for a queue-delay-triggered scale-up"
            from a genuine stall."""
            for i, scaler in scalers.items():
                runtime = runtimes[i]
                provisioned = runtime.capacity + scaler.pending
                demand = runtime.in_use + runtime.arbiter.queued_executors
                if demand > provisioned and provisioned < scaler.config.max_capacity:
                    return True
            return False

        # --- main loop ---------------------------------------------------
        while events:
            now, _, _, kind, pool, q, payload = heapq.heappop(events)
            if kind == "arrive":
                decision = allocator_decision(
                    self.allocator, self.workload, payload.query_id, self.max_budget
                )
                decisions[q] = decision
                _, cached, seconds, estimate, notes = decision
                if tracer is not None:
                    tracer.emit(
                        TraceEvent(now, "query_arrive", -1, q, payload.query_id)
                    )
                    tracer.emit(
                        TraceEvent(
                            now,
                            "query_predict",
                            -1,
                            q,
                            payload.query_id,
                            {
                                "executors": notes["predicted_executors"],
                                "cached": cached,
                                "seconds": seconds,
                                "estimated_runtime_s": estimate,
                                "policy": notes["policy"],
                            },
                        )
                    )
                delay = seconds if config.charge_prediction_overhead else 0.0
                push(-1, now + delay, "submit", q, payload)
                if not exhausted:
                    pull_arrival()
            elif kind == "submit":
                arrival = payload
                budget, cached, seconds, estimate, notes = decisions[q]
                chosen = route(
                    self.router,
                    RoutingRequest(
                        query_id=arrival.query_id,
                        app_id=arrival.app_id,
                        budget=budget,
                        estimated_runtime_seconds=estimate,
                        submit_time=now,
                    ),
                    (
                        [view(i) for i in range(self.n_pools)]
                        if live_views
                        else frozen_views
                    ),
                )
                if record_mode:
                    pool_of[q] = chosen
                if tracer is not None:
                    tracer.emit(
                        TraceEvent(
                            now,
                            "query_route",
                            chosen,
                            q,
                            arrival.query_id,
                            {"router": self.router.name},
                        )
                    )
                runtimes[chosen].submit(
                    now, q, arrival, budget, cached, seconds, notes, estimate
                )
            elif kind == "tick":
                for runtime in runtimes:
                    runtime.on_tick(now)
                for i, scaler in scalers.items():
                    delta = scaler.evaluate(now, view(i))
                    if delta > 0:
                        lag = scaler.config.scale_up_lag_s
                        push(i, now + lag, "scale_online", -1, delta)
                    elif delta < 0:
                        runtimes[i].resize(now, runtimes[i].capacity + delta)
                if finished < total or not exhausted:
                    if not events and not scalers_can_act():
                        # Stall guard: the tick chain is the only thing
                        # left, so no run will ever release or acquire
                        # capacity again — without this the ticks would
                        # spin forever.  (Unreachable while the arrival
                        # stream is live: its next arrive event is in the
                        # heap.)
                        _raise_stalled(runtimes, total - finished)
                    push(-1, now + config.tick_interval, "tick")
            elif kind == "scale_online":
                scalers[pool].capacity_online(now, payload)
                runtimes[pool].resize(now, runtimes[pool].capacity + payload)
            elif runtimes[pool].dispatch(now, kind, q, payload):
                finished += 1
                # The routing view only inspects still-queued requests,
                # so a finished query's decision can go: the memo stays
                # O(in-flight) instead of O(stream).
                del decisions[q]

        if finished < total:
            _raise_stalled(runtimes, total - finished)

        metrics = cluster_metrics(
            [runtime.finalize() for runtime in runtimes],
            [pool_of[q] for q in range(total)] if record_mode else [],
        )
        if tracer is not None:
            end = metrics.pools[0].serving_window[1]
            tracer.emit(TraceEvent(end, "serve_end", -1, -1, None, {"queries": total}))
        feedback = config.feedback
        if feedback is not None:
            # One cluster-wide sink, so its ledger attaches once at the
            # cluster level (never per pool — the roll-up would double
            # count the retraining bill).
            snapshot = getattr(feedback, "stats_snapshot", None)
            if callable(snapshot):
                metrics.adaptive = snapshot()
        return metrics


def validate_stream(arrivals: Iterable[QueryArrival]) -> list[QueryArrival]:
    """The record-mode arrival-stream checks."""
    stream = list(arrivals)
    if not stream:
        raise ValueError("cannot serve an empty arrival stream")
    if len({a.index for a in stream}) != len(stream):
        raise ValueError("arrival stream has duplicate indices")
    return stream


def _raise_stalled(runtimes: Sequence[PoolRuntime], unfinished: int) -> None:
    """Report a stall: a queue nothing will admit (named for the worst
    pool), or admitted queries that hold and will acquire no executors."""
    worst = max(runtimes, key=lambda runtime: runtime.queue_length)
    if worst.queue_length > 0:
        raise RuntimeError(
            f"admission stalled: {worst.queue_length} queued requests, "
            "an idle pool, and a policy that admits none of them"
        )
    running = {
        i: runtime.unfinished_queries()
        for i, runtime in enumerate(runtimes)
        if runtime.unfinished_queries()
    }
    raise RuntimeError(
        f"fleet stalled: {unfinished} admitted queries hold no executors, "
        "have no grants in flight, and their scaling policies acquire none "
        f"(running per pool: {running})"
    )
