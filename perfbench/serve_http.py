"""Workload ``serve-http``: recommendations over loopback HTTP.

Set-up trains the 100-tree power-law model on the 103 TPC-DS queries at
SF=100, exports it, loads it into a ``RecommendationServer`` and starts
the server.  The client side runs in the same process and event loop,
over at most two keep-alive connections.  The request mix is:

- recurring feature vectors of the 103 SF=100 plans, which hit the
  server's decision cache after their first request;
- fresh vectors of the same queries at other, seeded scale factors
  (the paper's input-size change), each sent once: cache misses that
  force batch inference.  One request in twenty is fresh.

Two phases:

1. open loop: a fixed number of requests on a seeded Poisson schedule at
   a rate below saturation; each request is timed from the moment it was
   due, so waiting for a free connection counts.  Gives the latencies.
2. closed loop: two clients, each sending its next request when the
   previous answer arrives, for the rest of the run.  Gives
   ``throughput_per_s``.

Before both, each recurring vector is sent once to fill the cache.
Every answer must equal a direct ``predict_ppm_batch`` + elbow pass over
the exported model, computed before any request is sent.  Every vector
of the mix is then simulated at its served executor count for the
``sim_*`` guards.
"""

from __future__ import annotations

import asyncio
import shutil
import time

import numpy as np

from repro.core.features import QueryFeatures
from repro.core.selection import elbow_point
from repro.core.training import DEFAULT_N_GRID
from repro.engine.cluster import Cluster
from repro.engine.sweep import simulate_query_sweep
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.fleet.prediction import PredictionService
from repro.serve import RecommendApp, RecommendationServer, ServeClient, ServerConfig
from repro.serve.protocol import ProtocolError
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

PROGRAM = ("repro.serve", "repro.core.training")
MODEL = "ae_pl"
BASE_SCALE_FACTOR = 100
FRESH_SCALE_FACTORS = 12  # seeded, spread over [10, 1000]
BLOCK = 20  # requests per block; one of them carries a never-seen vector
OPEN_REQUESTS = 1100  # p99 with 11 samples beyond it
OPEN_RATE = 100.0  # requests per second, about a fifth of the closed-loop rate
CONNECTIONS = 2
SETUP_REPEATS = 3
CLIENT_TIMEOUT_S = 5.0
PROBE_INTERVAL_S = 0.25
PATH = "/v1/recommend"


class RequestMix:
    """The seeded request stream: recurring and fresh feature vectors.

    Request ids are ``<query>@<scale factor>``, so every answer can be
    matched to its reference and its query re-simulated.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        base = Workload(scale_factor=BASE_SCALE_FACTOR)
        self.query_ids = base.query_ids
        self.vectors: dict[str, list[float]] = {}
        self.workloads = [base]
        self.recurring = [self._add(base, q) for q in self.query_ids]
        # A seeded jitter of at most 2.5 % around a fixed log-spaced grid:
        # every seed sends never-seen vectors over the same range of
        # input sizes, so the figures compare across seeds.
        grid = np.linspace(np.log(10), np.log(1000), FRESH_SCALE_FACTORS)
        jitter = np.log(1.025)
        factors = np.exp(grid + self.rng.uniform(-jitter, jitter, len(grid)))
        self.fresh: list[str] = []
        for sf in factors:
            workload = Workload(scale_factor=round(float(sf), 3))
            self.workloads.append(workload)
            self.fresh.extend(self._add(workload, q) for q in self.query_ids)
        self.rng.shuffle(self.fresh)
        self._next_fresh = 0
        self._block: list[str] = []

    def _add(self, workload, query_id: str) -> str:
        key = f"{query_id}@{workload.scale_factor}"
        plan = workload.optimized_plan(query_id)
        self.vectors[key] = [float(v) for v in QueryFeatures.from_plan(plan).values]
        return key

    def next(self) -> str:
        """The next request's id.

        Requests come in blocks of ``BLOCK``: one fresh vector at a
        seeded position away from the block's edges, so misses never come
        back to back, and recurring vectors drawn uniformly around it.
        Fresh vectors wrap around if used up.
        """
        if not self._block:
            fresh_at = int(self.rng.integers(BLOCK // 4, BLOCK - BLOCK // 4))
            for i in range(BLOCK):
                if i == fresh_at:
                    key = self.fresh[self._next_fresh % len(self.fresh)]
                    self._next_fresh += 1
                else:
                    key = self.recurring[int(self.rng.integers(len(self.recurring)))]
                self._block.append(key)
            self._block.reverse()
        return self._block.pop()

    def payload(self, key: str) -> dict:
        return {"features": self.vectors[key], "query_id": key}


def build_server(registry, spans: Spans | None):
    """Train, export, load and wrap the model; returns the server.

    The scorer and the service are built here, not through
    ``RecommendApp.from_registry``, so a traced run can time their
    calls; the objects and their settings are the same.
    """
    view = WorkloadView(Workload(scale_factor=BASE_SCALE_FACTOR), spans=spans)
    model = train_system(view, spans).model
    save = save_parameter_model
    if spans is not None:
        save = spans.wrap("export.save", save)
    save(model, registry / f"{MODEL}.json")
    runtime = PortableModelRuntime(registry)
    load = runtime.load if spans is None else spans.wrap("export.load", runtime.load)
    load(MODEL)
    scorer = PortablePPMScorer(runtime, MODEL)
    service = PredictionService(scorer)
    app = RecommendApp(service, model_name=MODEL)
    return RecommendationServer(app, ServerConfig(port=0))


def reference_answers(registry, mix: RequestMix) -> dict[str, tuple[int, float]]:
    """Direct batch scoring + elbow over every vector, from the file."""
    scorer = PortablePPMScorer(PortableModelRuntime(registry), MODEL)
    keys = sorted(mix.vectors)
    ppms = scorer.predict_ppm_batch(np.array([mix.vectors[k] for k in keys]))
    answers = {}
    for key, ppm in zip(keys, ppms):
        curve = ppm.predict_curve(DEFAULT_N_GRID)
        chosen = int(np.clip(elbow_point(DEFAULT_N_GRID, curve), 1, 48))
        runtime = float(curve[np.nonzero(DEFAULT_N_GRID == chosen)[0][0]])
        answers[key] = (chosen, runtime)
    return answers


async def post(client: ServeClient, payload: dict):
    """One request; ``(status, body)``, status ``None`` when it failed."""
    try:
        reply = await asyncio.wait_for(
            client.post_json(PATH, payload), CLIENT_TIMEOUT_S
        )
        return reply.status, reply.json()
    except (asyncio.TimeoutError, OSError, ProtocolError):
        await client.close()  # the next request reconnects
        return None, None


async def open_loop(address, mix: RequestMix, keys, due):
    """Send ``keys[i]`` at ``due[i]`` seconds over two connections.

    Returns per request ``(key, status, body, due_at, sent, done)``, the
    last three as ``perf_counter`` stamps.
    """
    queue: asyncio.Queue = asyncio.Queue()
    results: list = [None] * len(keys)
    origin = time.perf_counter()

    async def generate():
        for i, offset in enumerate(due):
            delay = origin + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(i)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection():
        async with ServeClient(*address) as client:
            while (i := await queue.get()) is not None:
                sent = time.perf_counter()
                status, body = await post(client, mix.payload(keys[i]))
                done = time.perf_counter()
                results[i] = (keys[i], status, body, origin + due[i], sent, done)

    await asyncio.gather(generate(), *(connection() for _ in range(CONNECTIONS)))
    return results


async def closed_loop(address, mix: RequestMix, seconds: float, keys=()):
    """Two clients back to back: ``keys`` first, then the mix for ``seconds``.

    Returns ``(results, start, end)``: per request ``(key, status,
    body)``, and the phase's ``perf_counter`` stamps.
    """
    results: list = []
    todo = iter(keys)
    start = time.perf_counter()
    deadline = start + seconds

    async def client_loop():
        async with ServeClient(*address) as client:
            while True:
                key = next(todo, None)
                if key is None:
                    if time.perf_counter() >= deadline:
                        return
                    key = mix.next()
                status, body = await post(client, mix.payload(key))
                results.append((key, status, body))

    await asyncio.gather(*(client_loop() for _ in range(CONNECTIONS)))
    return results, start, time.perf_counter()


async def probe_until(speed: HostSpeed, stop: asyncio.Event) -> None:
    """Probe host speed every ``PROBE_INTERVAL_S`` until ``stop`` is set.

    A probe holds the event loop for a few milliseconds; the scaled
    clock leaves that time out of every request it delays.
    """
    while not stop.is_set():
        speed.probe()
        try:
            await asyncio.wait_for(stop.wait(), PROBE_INTERVAL_S)
        except asyncio.TimeoutError:
            pass
    speed.probe()


class Tally:
    """Answer checks: status classes and equality with the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.sent = self.ok = self.shed = self.timeouts = self.failed = 0

    def add(self, results) -> None:
        for key, status, body, *_ in results:
            self.sent += 1
            if status == 200 and (
                body["query_id"] == key
                and (body["executors"], body["estimated_runtime_s"])
                == self.reference[key]
            ):
                self.ok += 1
                continue
            self.failed += 1
            if status == 429:
                self.shed += 1
            elif status == 504 or status is None:
                self.timeouts += 1


def simulated_outcomes(mix: RequestMix, reference):
    """Every vector's query run at its served count, by simulation.

    Returns the p95 simulated run time and the summed executor-seconds
    over all vectors of the mix (each once, whether or not the run got
    to send it, so the figures do not depend on host speed).
    """
    cluster = Cluster()
    runtimes, executor_s = [], 0.0
    for workload in mix.workloads:
        for query_id in workload.query_ids:
            n = reference[f"{query_id}@{workload.scale_factor}"][0]
            graph = workload.stage_graph(query_id)
            runtime = simulate_query_sweep(graph, [n], cluster)[0].runtime
            runtimes.append(runtime)
            executor_s += n * runtime
    return float(np.percentile(runtimes, 95)), executor_s


def wrap_layers(server: RecommendationServer, spans: Spans, tracer) -> None:
    """Traced serving: the scorer proxy, the service and the tracer.

    The scorer keeps ``predict_ppm_batch`` (wrapped, still callable), so
    the service's batched path is unchanged.
    """
    app = server.app
    service = app.service
    scorer = service.scorer
    scorer.predict_ppm_batch = spans.wrap(
        "export.predict_batch",
        scorer.predict_ppm_batch,
        lambda a, k, r: {"export.predict_batch.rows": len(r)},
    )
    service.predict_batch = spans.wrap("fleet.prediction", service.predict_batch)
    app.tracer = service.tracer = tracer


async def drive(mix: RequestMix, seed: int, seconds: float, trace: bool, out_dir):
    rng = np.random.default_rng(seed + 1)
    open_keys = [mix.next() for _ in range(OPEN_REQUESTS)]
    due = np.cumsum(rng.exponential(1.0 / OPEN_RATE, OPEN_REQUESTS))

    spans = Spans() if trace else None
    cpu = HostSpeed(cpu_now)
    setup_spans = []
    for rep in range(1 if trace else SETUP_REPEATS):
        registry = out_dir / f"serve-registry-{rep}"
        cpu.probe()
        start = cpu.now()
        start_program(PROGRAM)
        if trace:
            with trace_program(spans):
                server = build_server(registry, spans)
        else:
            server = build_server(registry, None)
        await server.start()
        setup_spans.append((start, cpu.now()))
        cpu.probe()
        if rep + 1 < (1 if trace else SETUP_REPEATS):
            await server.shutdown()
            shutil.rmtree(registry)
    # Requests are timed in wall time: their latency includes waiting.
    speed = HostSpeed()
    reference = reference_answers(registry, mix)
    address = server.address
    tally = Tally(reference)
    stop = asyncio.Event()
    prober = asyncio.create_task(probe_until(speed, stop))
    try:
        # Fill the decision cache with the recurring vectors first, so
        # the timed phases see the steady mix of hits and misses, not a
        # cold start that every request pays once per server.
        warm, _, _ = await closed_loop(address, mix, 0.0, mix.recurring)
        tally.add(warm)
        opened = await open_loop(address, mix, open_keys, due)
        closed_budget = max(seconds - due[-1], seconds / 4)
        if trace:
            # Untraced then traced closed loops, both on a warm cache:
            # their seconds per request give the tracing overhead.
            closed_budget /= 2
            untraced, u_start, u_end = await closed_loop(address, mix, closed_budget)
            tracer = CountingTracer()
            wrap_layers(server, spans, tracer)
        closed, c_start, c_end = await closed_loop(address, mix, closed_budget)
        async with ServeClient(*address) as client:
            server_metrics = (await client.get("/metrics")).json()
    finally:
        stop.set()
        await prober
        await server.shutdown()
        shutil.rmtree(registry)

    tally.add(opened)
    tally.add(closed)
    due_at, sent, done = (np.array([r[i] for r in opened]) for i in (3, 4, 5))
    ms = (speed.clock(done) - speed.clock(due_at)) * 1e3
    # A failed request counts as missing any latency limit.
    ms[[r[1] != 200 for r in opened]] = CLIENT_TIMEOUT_S * 1e3
    answered = sum(1 for r in closed if r[1] == 200)
    out = {
        "setup_s": median(cpu.seconds(a, b) for a, b in setup_spans),
        "throughput_per_s": answered / speed.seconds(c_start, c_end),
        "latency_p50_ms": median(ms),
        "latency_p99_ms": tail_percentile(ms, 99),
    }
    out["sim_p95_latency_s"], out["sim_executor_s"] = simulated_outcomes(
        mix, reference
    )
    prediction = server_metrics["prediction"]
    batch = server_metrics["batch"]
    notes = [
        f"serve-http: open loop {len(opened)} requests at {OPEN_RATE:g}/s "
        f"(latency samples {len(ms)}), closed loop {len(closed)} requests "
        f"in {c_end - c_start:.2f} s, cache hits {prediction['hits']} misses "
        f"{prediction['misses']}, mean batch {batch['mean_size']:.3f}"
    ]
    if trace:
        tally.add(untraced)
        out.update(layer_metrics(spans))
        out.update(
            {
                "fleet.prediction.hits": prediction["hits"],
                "fleet.prediction.misses": prediction["misses"],
                "fleet.prediction.hit_ratio": prediction["hit_rate"],
                "fleet.prediction.cache_size": prediction["cache_size"],
                "serve.requests.sent": tally.sent,
                "serve.requests.ok": tally.ok,
                "serve.requests.shed_429": tally.shed,
                "serve.requests.timeout_504": tally.timeouts,
                "serve.requests.failed": tally.failed,
                "serve.batch.count": batch["batches"],
                "serve.batch.mean_size": batch["mean_size"],
                "serve.server_p99_ms": server_metrics["latency_ms"][PATH]["p99_ms"],
                "serve.gen_late_p99_ms": tail_percentile(sent - due_at, 99) * 1e3,
                "obs.trace.events": tracer.total,
                "obs.trace.overhead_ratio": ((c_end - c_start) / len(closed))
                / ((u_end - u_start) / len(untraced)),
            }
        )
    return out, tally, notes, spans


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir):
    """One run; returns the result dict ``run.py`` reports."""
    mix = RequestMix(seed)
    metrics, tally, notes, spans = asyncio.run(
        drive(mix, seed, seconds, trace, out_dir)
    )
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "attempted": tally.sent,
        "failed": tally.failed,
        "notes": notes,
        "spans": spans,
    }
