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

This module holds the fleet's one serve loop, :class:`_ServeLoop`: the
event heap, the tick chain, pool-event dispatch
(:meth:`PoolRuntime.dispatch <repro.fleet.engine.PoolRuntime.dispatch>`),
autoscaler steps, the stall guard and finalization.  Two drivers feed
it.  :meth:`ShardedFleet.serve` feeds it arrivals, then decides
(:func:`~repro.fleet.engine.allocator_decision`) and routes each query
on the loop's own heap; :class:`~repro.fleet.engine.FleetEngine` is a
sharded fleet of **one statically provisioned pool** behind the default
round-robin router.  Each worker of the multiprocess driver
(:mod:`repro.fleet.parallel`) feeds it one pool's routed submits, its
tick chain anchored at the cluster's first admission.  With the
sharded-of-one parity holding by construction, two oracles check the
loop against independent references: a fleet of one query on an
uncontended pool reproduces ``simulate_query`` bit-for-bit
(``tests/engine/test_execution_parity.py``), and contended single-pool
serves are pinned to recorded summaries and record digests
(``tests/fleet/test_engine_golden.py``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

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
        self.pools = [
            spec if isinstance(spec, PoolSpec) else PoolSpec(capacity=int(spec))
            for spec in pools
        ]
        if not self.pools:
            raise ValueError("a sharded fleet needs at least one pool")
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
        tracer = self.tracer
        router = self.router
        loop = _ServeLoop(
            self.workload,
            list(enumerate(self.pools)),
            self.cluster,
            config,
            self._compiled,
            tracer,
        )
        runtimes = loop.runtimes
        push = loop.push
        record_mode = config.streaming is None
        placed: list[int] = []
        if record_mode:
            # Replay the stream time-sorted (ties keep stream order)
            # under its stream positions.
            stream = list(arrivals)
            if len({a.index for a in stream}) != len(stream):
                raise ValueError("arrival stream has duplicate indices")
            inputs = iter(sorted((a.arrival_time, q, a) for q, a in enumerate(stream)))
            placed = [-1] * len(stream)
        else:
            inputs = ((a.arrival_time, q, a) for q, a in enumerate(arrivals))
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

        allocator = self.allocator
        workload = self.workload
        max_budget = self.max_budget

        def arrive(now: float, q: int, arrival: QueryArrival) -> None:
            decision = allocator_decision(
                allocator, workload, arrival.query_id, max_budget
            )
            _, cached, seconds, estimate, notes = decision
            if tracer is not None:
                tracer.emit(TraceEvent(now, "query_arrive", -1, q, arrival.query_id))
                tracer.emit(
                    TraceEvent(
                        now,
                        "query_predict",
                        -1,
                        q,
                        arrival.query_id,
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
            push(-1, now + delay, "submit", q, (arrival, decision))

        # Routers that omit ``uses_pool_state`` are assumed stateful.
        live_views = getattr(router, "uses_pool_state", True)
        frozen_views = static_views(self.pools)

        def submit(now: float, q: int, payload: tuple) -> None:
            arrival, (budget, cached, seconds, estimate, notes) = payload
            chosen = route(
                router,
                RoutingRequest(
                    query_id=arrival.query_id,
                    app_id=arrival.app_id,
                    budget=budget,
                    estimated_runtime_seconds=estimate,
                    submit_time=now,
                ),
                [pool.view() for pool in runtimes] if live_views else frozen_views,
            )
            if record_mode:
                placed[q] = chosen
            if tracer is not None:
                tracer.emit(
                    TraceEvent(
                        now,
                        "query_route",
                        chosen,
                        q,
                        arrival.query_id,
                        {"router": router.name},
                    )
                )
            runtimes[chosen].submit(
                now, q, arrival, budget, cached, seconds, notes, estimate
            )

        pools, total = loop.run(inputs, "arrive", {"arrive": arrive, "submit": submit})
        if total == 0:
            raise ValueError("cannot serve an empty arrival stream")
        metrics = cluster_metrics(pools, placed)
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


class _ServeLoop:
    """The fleet's one serve loop: pool runtimes on one event heap.

    Heap entries are ``(time, class, seq, kind, pool, q, payload)``.
    Class 0 is an *input* (an arrival, or a routed submit in a shard
    worker) keyed by its stream position, class 1 everything else keyed
    by the push counter: same-instant ties break inputs-first in stream
    order, then in push order.  Inputs enter the heap one at a time, in
    time order, the next when the previous fires — the same total order
    as pushing them all up front, with O(1) inputs in flight.  An event
    with ``pool >= 0`` is that pool's (:meth:`PoolRuntime.dispatch`);
    the loop itself handles ``tick`` and ``scale_online``, and hands
    every other kind to the caller's handler for it.

    :meth:`ShardedFleet.serve` feeds it arrivals;
    :mod:`repro.fleet.parallel` shard workers feed it their pool's
    routed submits.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        pools: ``(pool index, spec)`` for each pool this loop serves,
            in heap order (the index is what the runtime stamps on its
            events and spool file).
        cluster: node/executor shapes and provisioning lag (shared).
        config: fleet knobs (shared by every pool).
        compiled: compile-once plan memo, shared by every pool.
        tracer: optional tracer for the runtimes and autoscalers.
    """

    def __init__(
        self,
        workload: Workload,
        pools: Sequence[tuple[int, PoolSpec]],
        cluster: Cluster,
        config: FleetConfig,
        compiled: dict[str, CompiledPlan],
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        counter = itertools.count()
        events: list[tuple[float, int, int, str, int, int, object]] = []
        self.events = events

        def push(
            pool: int, time: float, kind: str, q: int = -1, payload: object = None
        ) -> None:
            heapq.heappush(events, (time, 1, next(counter), kind, pool, q, payload))

        self.push = push
        # Any autoscaled pool needs the tick chain even when the fleet
        # config itself asks for no idle release or scaling.
        wants_ticks = config.wants_ticks or any(
            spec.autoscaler is not None for _, spec in pools
        )
        ticking = False

        def start_ticks(now: float) -> None:
            # The one tick chain, started at now + tick_interval.  A
            # cluster anchors it at the first admission anywhere —
            # matching the single-query scheduler's ticks at
            # k·tick_interval from query submission — and advances it by
            # repeated float addition.  A closure, not a method: every
            # runtime holds it, and a bound method would make loop and
            # runtimes a reference cycle that keeps a finished serve's
            # records alive until a full garbage collection.
            nonlocal ticking
            if wants_ticks and not ticking:
                ticking = True
                push(-1, now + config.tick_interval, "tick")

        self.start_ticks = start_ticks
        self.runtimes: list[PoolRuntime] = []
        self.scalers: dict[int, PoolAutoscaler] = {}
        for local, (index, spec) in enumerate(pools):
            runtime = PoolRuntime(
                workload=workload,
                capacity=spec.capacity,
                cluster=cluster,
                admission=spec.admission,
                config=config,
                # A partial, not a lambda: no extra Python frame per push.
                push=functools.partial(push, local),
                start_ticks=start_ticks,
                compiled=compiled,
                max_capacity=spec.max_capacity,
                tracer=tracer,
                pool_index=index,
            )
            if spec.autoscaler is not None:
                runtime.track_capacity()
                self.scalers[local] = PoolAutoscaler(
                    spec.autoscaler, tracer=tracer, pool=index
                )
            self.runtimes.append(runtime)

    def scalers_can_act(self) -> bool:
        """Whether any autoscaler can still unblock queued work —
        distinguishes "waiting for a queue-delay-triggered scale-up"
        from a genuine stall."""
        for i, scaler in self.scalers.items():
            arbiter = self.runtimes[i].arbiter
            provisioned = arbiter.capacity + scaler.pending
            demand = arbiter.in_use + arbiter.queued_executors
            if demand > provisioned and provisioned < scaler.config.max_capacity:
                return True
        return False

    def run(
        self,
        inputs: Iterator[tuple[float, int, object]],
        kind: str,
        handlers: dict[str, Callable[[float, int, Any], None]],
        anchor: float | None = None,
    ) -> tuple[list[FleetMetrics], int]:
        """Serve ``inputs`` to the end; returns each pool's finalized
        metrics and the number of inputs served.

        ``inputs`` yields time-ordered ``(time, stream position,
        payload)`` triples, each pushed as a ``kind`` event; ``handlers``
        maps every non-pool event kind the inputs produce to its
        ``handler(now, q, payload)``.  ``anchor`` starts the tick chain
        there (the cluster's first admission) unless this loop's own
        first input admits at that instant and starts it itself.
        """
        events = self.events
        runtimes = self.runtimes
        scalers = self.scalers
        push = self.push
        interval = self.config.tick_interval
        total = 0
        finished = 0
        exhausted = False
        last_t = 0.0

        def pull() -> None:
            # Keep exactly one unprocessed input in the heap; the next
            # is pulled when this one fires.
            nonlocal total, exhausted, last_t
            for t, q, payload in inputs:
                if t < last_t:
                    raise ValueError("streaming arrival streams must be time-ordered")
                last_t = t
                heapq.heappush(events, (t, 0, q, kind, -1, q, payload))
                total += 1
                return
            exhausted = True

        pull()
        if anchor is not None and not exhausted and events[0][0] > anchor:
            self.start_ticks(anchor)
        while events:
            now, cls, _, event, pool, q, payload = heapq.heappop(events)
            if pool >= 0:
                if runtimes[pool].dispatch(now, event, q, payload):
                    finished += 1
            elif event == "tick":
                for runtime in runtimes:
                    runtime.on_tick(now)
                for i, scaler in scalers.items():
                    delta = scaler.evaluate(now, runtimes[i].view())
                    if delta > 0:
                        lag = scaler.config.scale_up_lag_s
                        push(-1, now + lag, "scale_online", i, delta)
                    elif delta < 0:
                        runtimes[i].resize(now, delta)
                if finished < total or not exhausted:
                    if not events and not self.scalers_can_act():
                        # Stall guard: the tick chain is the only thing
                        # left, so no run will ever release or acquire
                        # capacity again — without this the ticks would
                        # spin forever.  (Unreachable while inputs are
                        # live: the next one is in the heap.)
                        _raise_stalled(runtimes, total - finished)
                    push(-1, now + interval, "tick")
            elif event == "scale_online":
                scalers[q].capacity_online(now, payload)
                runtimes[q].resize(now, payload)
            else:
                handlers[event](now, q, payload)
                if cls == 0 and not exhausted:
                    pull()

        if finished < total:
            _raise_stalled(runtimes, total - finished)
        return [runtime.finalize() for runtime in runtimes], total


def _raise_stalled(runtimes: Sequence[PoolRuntime], unfinished: int) -> None:
    """Report a stall: a queue nothing will admit (the longest named),
    or admitted queries that hold and will acquire no executors."""
    worst = max(runtime.arbiter.queue_length for runtime in runtimes)
    if worst > 0:
        raise RuntimeError(
            f"admission stalled: {worst} queued requests, "
            "an idle pool, and a policy that admits none of them"
        )
    running = {
        runtime.pool_index: [q for q, run in runtime.runs.items() if not run.finished]
        for runtime in runtimes
    }
    raise RuntimeError(
        f"fleet stalled: {unfinished} admitted queries hold no executors, "
        "have no grants in flight, and their scaling policies acquire none "
        f"(running per pool: {running})"
    )
