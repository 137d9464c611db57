"""Multiprocess sharded serving: one OS process per pool.

:class:`~repro.fleet.cluster.ShardedFleet` multiplexes every pool on one
discrete-event heap in one process — correct, but serial.  Routing is
the only cross-pool coupling, and for routers that ignore live pool
state (``uses_pool_state = False``, e.g. round-robin) the placement of
every query is a pure function of the arrival stream.  That makes the
pools *independent simulations*: :class:`ProcessShardExecutor` keeps
the allocator and router in the parent, streams each pool its routed
submits over a queue, and lets ``multiprocessing`` workers drive the
pool runtimes in parallel on real cores.

**Determinism contract** (asserted in ``tests/fleet/test_parallel.py``):
on the same arrival stream, seed, and configuration, a multiprocess
serve produces a :class:`~repro.fleet.metrics.ClusterMetrics` equal to
the single-process :meth:`ShardedFleet.serve
<repro.fleet.cluster.ShardedFleet.serve>` — records bit-for-bit in
record mode, per-pool streaming accumulators bit-for-bit in streaming
mode.  The argument: every worker runs the cluster's own serve loop
(:class:`~repro.fleet.cluster._ServeLoop`) over one pool, fed that
pool's submits, so it replays exactly the event subsequence the pool
saw in the shared heap.  The parent decides and routes every query (the
same :func:`~repro.fleet.engine.allocator_decision` and router views
the single-process driver uses) and streams each pool its submits in
global submit order, ``(t_submit, stream position)``.  Per pool feed,
the protocol is:

1. the **anchor**: the cluster-wide first submit time, sent to every
   worker before any batch.  The worker's tick chain starts there and
   advances by the same repeated float addition as the cluster's
   (ticks while a static pool is empty are no-ops there too);
2. **submit batches**: lists of ``(t_submit, q, (arrival, decision))``,
   sent every :data:`BATCH_SIZE` arrivals (empty batches are skipped);
3. **end**: ``None``.

No watermark is needed: the loop holds one input ahead of the clock, so
once a worker holds its pool's next submit it may advance to exactly
that instant, and it blocks on the feed only when it needs the next one.
Per-pool metric folds run in the pool's own finish order, which is what
the single-process driver uses too, and the roll-up is the same
:func:`~repro.fleet.cluster.cluster_metrics`.

**Restrictions** (checked at construction / serve time):

- the router must declare ``uses_pool_state = False`` — the parent has
  no live pool state to offer;
- pools must be statically provisioned (no autoscalers — an
  autoscaler's signals are cross-pool via the shared tick);
- no tracer (a cluster-ordered trace would serialize the workers);
- arrivals must be time-ordered (the parent streams them; it cannot
  sort what it has not seen).

One documented measure-zero caveat remains: a worker's submit enters
its heap ahead of every other event at the same instant, while the
shared heap orders a submit among same-instant events (ticks, pool
events, other submits) by push order, so a collision on *exactly* the
float instant of a submit may order differently.  With continuous
arrival gaps such collisions have probability zero; integer-timed
synthetic streams should use the single-process driver when
byte-identity matters.  Ticks and pool events tie as in the shared
heap: the worker's chain is pushed at the same instants as the
cluster's.

The allocator staying in the parent is the same separation the HTTP
serving layer exploits: :mod:`repro.serve` runs a
:class:`~repro.fleet.prediction.PredictionService` with no fleet behind
it at all, because the executor-count decision is a pure function of
the plan features — independent of which pool (or process) eventually
runs the query.
"""

from __future__ import annotations

import heapq
import multiprocessing
import traceback
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.engine.cluster import Cluster
from repro.fleet.arrivals import QueryArrival
from repro.fleet.cluster import (
    PoolSpec,
    ShardedFleet,
    _ServeLoop,
    cluster_metrics,
    route,
    static_views,
)
from repro.fleet.engine import Allocator, FleetConfig, allocator_decision
from repro.fleet.metrics import ClusterMetrics, FleetMetrics
from repro.fleet.routing import Router, RoutingRequest
from repro.workloads.generator import Workload

if TYPE_CHECKING:  # multiprocessing.Queue is a factory method, not a type
    from multiprocessing.queues import Queue as MpQueue

__all__ = ["ProcessShardExecutor"]

_INF = float("inf")

#: Arrivals the parent decides between two rounds of feed messages.  It
#: trades pickling overhead against how far workers lag the parent, and
#: has no effect on results.
BATCH_SIZE = 512


def _serve_shard(
    feed: MpQueue[object],
    pool_index: int,
    workload: Workload,
    spec: PoolSpec,
    cluster: Cluster,
    config: FleetConfig,
) -> FleetMetrics:
    """Serve one pool on the cluster's serve loop, fed from the parent.

    The feed carries the tick anchor, then lists of this pool's submits
    in global submit order, then ``None``.
    """
    anchor = feed.get()
    loop = _ServeLoop(workload, [(pool_index, spec)], cluster, config, {})
    runtime = loop.runtimes[0]

    def submit(now: float, q: int, payload: tuple) -> None:
        arrival, (budget, cached, seconds, estimate, notes) = payload
        runtime.submit(now, q, arrival, budget, cached, seconds, notes, estimate)

    [metrics], _ = loop.run(_submits(feed), "submit", {"submit": submit}, anchor)
    return metrics


def _submits(feed: MpQueue[object]) -> Iterator[tuple[float, int, object]]:
    while (batch := feed.get()) is not None:
        yield from batch


def _shard_worker(
    feed: MpQueue[object],
    results: MpQueue[tuple[int, FleetMetrics | None, str | None]],
    pool_index: int,
    workload: Workload,
    spec: PoolSpec,
    cluster: Cluster,
    config: FleetConfig,
) -> None:
    try:
        metrics = _serve_shard(feed, pool_index, workload, spec, cluster, config)
    except BaseException:
        results.put((pool_index, None, traceback.format_exc()))
    else:
        results.put((pool_index, metrics, None))


class ProcessShardExecutor(ShardedFleet):
    """Serve an arrival stream with one worker process per pool.

    Same construction surface as :class:`~repro.fleet.cluster
    .ShardedFleet` minus the tracer, plus the restrictions in the
    module docstring.  ``serve`` supports both record mode and
    streaming mode (via :attr:`FleetConfig.streaming`), with per-query
    spool files written by the worker that owns each pool.

    Args:
        workload: supplies plans and compiled stage graphs per query id.
        pools: per-pool shapes (``PoolSpec`` or plain int capacities);
            every pool must be statically provisioned.
        allocator: per-query executor-budget decision — runs in the
            *parent*, so it need not be picklable.
        router: placement policy; must declare ``uses_pool_state =
            False`` (default round-robin qualifies).
        cluster: node/executor shapes and provisioning lag (shared).
        config: fleet knobs (shared by every pool).
    """

    def __init__(
        self,
        workload: Workload,
        pools: Sequence[PoolSpec | int],
        allocator: Allocator,
        router: Router | None = None,
        cluster: Cluster = Cluster(),
        config: FleetConfig = FleetConfig(),
    ) -> None:
        super().__init__(workload, pools, allocator, router, cluster, config)
        for i, spec in enumerate(self.pools):
            if spec.autoscaler is not None:
                raise ValueError(
                    f"pool {i} is autoscaled: ProcessShardExecutor requires "
                    "statically provisioned pools (autoscaler signals are "
                    "cross-pool; use ShardedFleet)"
                )
        if getattr(self.router, "uses_pool_state", True):
            raise ValueError(
                f"router {self.router.name!r} uses live pool state, which a "
                "multiprocess parent does not hold; use a router with "
                "uses_pool_state = False (e.g. RoundRobinRouter) or the "
                "single-process ShardedFleet"
            )
        if config.feedback is not None:
            raise ValueError(
                "ProcessShardExecutor cannot run a feedback sink: the "
                "outcome loop mutates one shared model, and per-worker "
                "copies would silently diverge; use the single-process "
                "ShardedFleet for continual learning"
            )

    def serve(self, arrivals: Iterable[QueryArrival]) -> ClusterMetrics:
        """Play out the whole stream; returns the cluster's metrics."""
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            ctx = multiprocessing.get_context()
        n = self.n_pools
        config = self.config
        # Bounded feeds give backpressure: a slow worker stalls the
        # parent instead of buffering the whole stream in its queue.
        feeds = [ctx.Queue(maxsize=64) for _ in range(n)]
        results = ctx.Queue()
        workers = [
            ctx.Process(
                target=_shard_worker,
                args=(
                    feeds[i],
                    results,
                    i,
                    self.workload,
                    self.pools[i],
                    self.cluster,
                    config,
                ),
                daemon=True,
            )
            for i in range(n)
        ]
        for w in workers:
            w.start()
        try:
            placed = self._dispatch(arrivals, feeds)
            metrics_by_pool: list[FleetMetrics | None] = [None] * n
            for _ in range(n):
                i, metrics, error = results.get()
                if error is not None:
                    raise RuntimeError(f"shard worker {i} failed:\n{error}")
                metrics_by_pool[i] = metrics
            for w in workers:
                w.join()
        finally:
            for w in workers:
                if w.is_alive():  # a parent-side error: don't leak workers
                    w.terminate()
        return cluster_metrics(metrics_by_pool, placed)

    # -- parent side ---------------------------------------------------

    def _dispatch(
        self,
        arrivals: Iterable[QueryArrival],
        feeds: Sequence[MpQueue[object]],
    ) -> list[int]:
        """Decide, route, and stream every submit to its pool's feed.

        Returns the pool each stream position was placed on (record
        mode; empty when streaming)."""
        config = self.config
        record_mode = config.streaming is None
        views = static_views(self.pools)
        # Submits replayed in global submit order: keyed by
        # (t_submit, stream position), exactly the shared heap's order
        # for submit events.
        reorder: list[tuple] = []
        batches: list[list[tuple]] = [[] for _ in feeds]
        pool_of: dict[int, int] = {}
        anchored = False

        def flush(limit: float) -> None:
            nonlocal anchored
            while reorder and reorder[0][0] < limit:
                t, q, arrival, decision = heapq.heappop(reorder)
                if not anchored:
                    # The first submit is the cluster-wide first
                    # admission: the tick-chain anchor of every worker.
                    for feed in feeds:
                        feed.put(t)
                    anchored = True
                chosen = route(
                    self.router,
                    RoutingRequest(
                        query_id=arrival.query_id,
                        app_id=arrival.app_id,
                        budget=decision[0],
                        estimated_runtime_seconds=decision[3],
                        submit_time=t,
                    ),
                    views,
                )
                if record_mode:
                    pool_of[q] = chosen
                batches[chosen].append((t, q, (arrival, decision)))

        def send() -> None:
            for i, feed in enumerate(feeds):
                if batches[i]:
                    feed.put(batches[i])
                    batches[i] = []

        max_budget = self.max_budget
        pos = 0
        last_t = 0.0
        for arrival in arrivals:
            t_arrive = arrival.arrival_time
            if t_arrive < last_t:
                raise ValueError(
                    "ProcessShardExecutor requires time-ordered arrivals"
                )
            last_t = t_arrive
            flush(t_arrive)
            if pos and pos % BATCH_SIZE == 0:
                send()
            decision = allocator_decision(
                self.allocator, self.workload, arrival.query_id, max_budget
            )
            delay = decision[2] if config.charge_prediction_overhead else 0.0
            heapq.heappush(reorder, (t_arrive + delay, pos, arrival, decision))
            pos += 1
        if pos == 0:
            raise ValueError("cannot serve an empty arrival stream")
        flush(_INF)
        send()
        for feed in feeds:
            feed.put(None)
        return [pool_of[q] for q in range(pos)] if record_mode else []
