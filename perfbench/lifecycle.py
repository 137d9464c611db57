"""Workload ``lifecycle``: train the model, then score queries one at a time.

TPC-DS at SF=100, all 103 queries, split by the seed into a training
set and a held-out set.  The seed also moves the scale factor by at
most 2.5 %, so every seed simulates slightly different plans and the
simulated figures differ from seed to seed while staying comparable.
Set-up builds every plan and stage graph and trains the power-law
AutoExecutor on the training set (executed training runs, Sparklens
curves, PPM fits, forest fit).  The timed phase then:

1. scores every query, one at a time, through the single-query path
   (``AutoExecutor.select_executors``: featurize, one forest score, PPM
   curve, elbow), in passes, until p99 has at least 10 samples beyond
   it — a closed loop with one caller;
2. sweeps the true ``t(n)`` curve, n = 1..48, of every query by
   simulation, in passes, for the rest of the run.

The true curves give the simulated latency and occupancy of every query
at its selected count, and the model's run-time error on the held-out
queries.
"""

from __future__ import annotations

import contextlib
import shutil
import time

import numpy as np

from repro.core.autoexecutor import AutoExecutor
from repro.core.features import QueryFeatures
from repro.core.selection import elbow_point, true_runtime_curve
from repro.core.training import DEFAULT_N_GRID, build_training_dataset
from repro.export.format import save_parameter_model
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.ml.forest import RandomForestRegressor
from repro.workloads.generator import Workload
from repro.workloads.tpcds import QUERY_IDS

from probe import (
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

PROGRAM = ("repro.core.autoexecutor", "repro.export.runtime")
SCALE_FACTOR = 100
SCALE_JITTER = 1.025  # the seeded scale factor stays within 2.5 % of it
HELD_OUT_SHARE = 0.2
SETUP_REPEATS = 3
MIN_SCORES = 1000  # p99 with at least 10 samples beyond it
SCORE_SHARE = 0.6  # of --seconds; the sweep passes take the rest
PROBE_EVERY = 10  # scored queries between host speed probes


def draw_inputs(query_ids, seed: int):
    """The seeded scale factor and train / held-out split of the ids."""
    rng = np.random.default_rng(seed)
    jitter = np.log(SCALE_JITTER)
    scale_factor = SCALE_FACTOR * float(np.exp(rng.uniform(-jitter, jitter)))
    scale_factor = round(scale_factor, 3)
    order = rng.permutation(len(query_ids))
    n_held = int(round(HELD_OUT_SHARE * len(query_ids)))
    held = sorted(query_ids[i] for i in order[:n_held])
    train = sorted(query_ids[i] for i in order[n_held:])
    return scale_factor, train, held


def build_forest(spans: Spans | None) -> RandomForestRegressor:
    """The parameter model's default estimator, timed when traced."""
    forest = RandomForestRegressor(n_estimators=100, random_state=0)
    if spans is not None:
        forest.fit = spans.wrap(
            "ml.forest.fit",
            forest.fit,
            lambda a, k, r: {"ml.forest.fit.trees": len(r.estimators_)},
        )
        forest.predict = spans.wrap(
            "ml.forest.predict",
            forest.predict,
            lambda a, k, r: {"ml.forest.predict.rows": len(a[0])},
        )
    return forest


def train_system(view: WorkloadView, spans: Spans | None = None) -> AutoExecutor:
    """``build_training_dataset`` + ``fit_parameter_model`` on ``view``.

    The same as ``AutoExecutor().train``, with the estimator — the
    parameter model's default, 100 trees, seed 0 — passed in explicitly
    so a traced run can time its fit and predict.
    """
    with spans.span("core.train") if spans else contextlib.nullcontext():
        dataset = build_training_dataset(view)
        system = AutoExecutor()
        system.dataset = dataset
        system.model = dataset.fit_parameter_model(
            "power_law", estimator=build_forest(spans)
        )
    if spans is not None:
        system.objective = spans.wrap("core.select", elbow_point)
    return system


def setup(scale_factor, train_ids, spans: Spans | None = None):
    """Plans and graphs for every query, then the trained system."""
    view = WorkloadView(Workload(scale_factor=scale_factor), spans=spans)
    for query_id in view:
        view.stage_graph(query_id)
    start = time.perf_counter()
    system = train_system(view.subset(train_ids), spans)
    return view, system, time.perf_counter() - start


def score_pass(view, system, now, probe=None):
    """Every query once through the single-query path, timed one by one.

    Returns the ``now()`` stamps before and after each call, and the
    chosen count per query.  ``probe`` runs before every
    ``PROBE_EVERY``-th call, outside the timed calls.
    """
    begins: list[float] = []
    ends: list[float] = []
    chosen: dict[str, int] = {}
    for i, query_id in enumerate(view):
        if probe is not None and i % PROBE_EVERY == 0:
            probe()
        begins.append(now())
        chosen[query_id] = system.select_executors(view.optimized_plan(query_id))
        ends.append(now())
    return begins, ends, chosen


def sweep_passes(view, budget_s: float):
    """True curves of every query, whole passes, for ``budget_s``."""
    curves: dict[str, np.ndarray] = {}
    sims = 0
    changed = 0
    start = time.perf_counter()
    while not curves or time.perf_counter() - start < budget_s:
        for query_id in view:
            curve = true_runtime_curve(view.stage_graph(query_id), DEFAULT_N_GRID)
            sims += len(curve)
            if not np.array_equal(curves.setdefault(query_id, curve), curve):
                changed += 1
    return curves, sims, time.perf_counter() - start, changed


def outcomes(view, system, held_ids, chosen, curves):
    """Simulated t(n*) at each selected count n*, and held-out error.

    Run times and executor-seconds cover every query; the run-time
    error, |predicted t(n*) - simulated t(n*)| / simulated t(n*), only
    the held-out ones.
    """
    runtimes, executor_s, errors = [], 0.0, []
    for query_id in view:
        n = chosen[query_id]
        at = int(np.nonzero(DEFAULT_N_GRID == n)[0][0])
        true_t = float(curves[query_id][at])
        runtimes.append(true_t)
        executor_s += n * true_t
        if query_id in held_ids:
            plan = view.optimized_plan(query_id)
            predicted_t = float(system.predict_curve(plan)[at])
            errors.append(abs(predicted_t - true_t) / true_t)
    return runtimes, executor_s, errors


def export_checks(view, system, out_dir, spans: Spans | None) -> tuple[int, int]:
    """Exported model == in-memory forest; batch == per-row parameters.

    Returns ``(checks, failures)``.
    """
    features = np.stack(
        [QueryFeatures.from_plan(view.optimized_plan(q)).values for q in view]
    )
    registry = out_dir / "lifecycle-registry"
    save = save_parameter_model
    if spans is not None:
        save = spans.wrap("export.save", save_parameter_model)
    save(system.model, registry / "ae_pl.json")
    scorer = PortablePPMScorer(PortableModelRuntime(registry), "ae_pl")
    load = scorer.runtime.load
    if spans is not None:
        load = spans.wrap("export.load", load)
    load("ae_pl")
    exported = np.stack([p.parameters() for p in scorer.predict_ppm_batch(features)])
    shutil.rmtree(registry)

    batch = system.model.predict_params(features)
    in_memory = np.stack(
        [system.model.predict_ppm(row).parameters() for row in features]
    )
    failures = 0
    for i, row in enumerate(features):
        if not np.array_equal(system.model.predict_params(row), batch[i]):
            failures += 1
        if not np.allclose(exported[i], in_memory[i], rtol=1e-9, atol=1e-12):
            failures += 1
    return 2 * len(features), failures


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir):
    """One run; returns the result dict ``run.py`` reports."""
    scale_factor, train_ids, held_ids = draw_inputs(QUERY_IDS, seed)

    cpu = HostSpeed(cpu_now)
    setup_spans = []
    for _ in range(1 if trace else SETUP_REPEATS):
        cpu.probe()
        start = cpu.now()
        start_program(PROGRAM)
        view, system, train_s = setup(scale_factor, train_ids)
        setup_spans.append((start, cpu.now()))
    cpu.probe()

    begins: list[float] = []
    ends: list[float] = []
    traced_s = untraced_s = 0.0
    chosen: dict[str, int] | None = None
    failed = 0
    spans = None
    if trace:
        spans = Spans()
        with trace_program(spans):
            t_view, t_system, _ = setup(scale_factor, train_ids, spans)
    start = time.perf_counter()
    while (
        len(begins) < (1 if trace else MIN_SCORES)
        or time.perf_counter() - start < SCORE_SHARE * seconds
    ):
        pass_begins, pass_ends, decided = score_pass(
            view, system, cpu.now, cpu.probe
        )
        begins += pass_begins
        ends += pass_ends
        chosen = chosen or decided
        failed += decided != chosen
        if trace:
            # Traced passes alternate with untraced ones, so the overhead
            # ratio compares passes made under the same conditions.
            untraced_s += sum(np.subtract(pass_ends, pass_begins))
            with trace_program(spans):
                pass_begins, pass_ends, decided = score_pass(
                    t_view, t_system, cpu.now
                )
            traced_s += sum(np.subtract(pass_ends, pass_begins))
            failed += decided != chosen
    cpu.probe()
    latencies = cpu.clock(ends) - cpu.clock(begins)

    sweep_budget = (1 - SCORE_SHARE) * seconds / (2 if trace else 1)
    curves, sims, sweep_s, changed = sweep_passes(view, sweep_budget)
    failed += changed
    runtimes, executor_s, errors = outcomes(view, system, held_ids, chosen, curves)
    checks, failures = export_checks(view, system, out_dir, None)
    attempted = len(latencies) * (2 if trace else 1) + len(curves) + checks
    failed += failures
    notes = [
        f"lifecycle: {len(train_ids)} training / {len(held_ids)} held-out "
        f"queries, {len(latencies)} scored untraced, {sims} simulations",
        f"lifecycle: train_s {train_s:.4f} s, sweep {sims / sweep_s:.1f} "
        f"sims/s, runtime_error_median {median(errors):.6f}",
    ]

    if trace:
        with trace_program(spans):
            t_curves, _, _, _ = sweep_passes(t_view, 0.0)
            t_checks, t_failures = export_checks(t_view, t_system, out_dir, spans)
        same_curves = all(np.array_equal(t_curves[q], curves[q]) for q in curves)
        attempted += len(t_curves) + t_checks
        failed += t_failures + (not same_curves)
        metrics = layer_metrics(spans)
        metrics["engine.sweep.sims_per_s"] = sims / sweep_s
        metrics["core.runtime_error_median"] = median(errors)
        metrics["obs.trace.overhead_ratio"] = traced_s / untraced_s
    else:
        metrics = {
            "setup_s": median(cpu.seconds(a, b) for a, b in setup_spans),
            "throughput_per_s": len(latencies) / latencies.sum(),
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_p99_ms": tail_percentile(latencies, 99) * 1e3,
            "sim_p95_latency_s": float(np.percentile(runtimes, 95)),
            "sim_executor_s": executor_s,
        }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "spans": spans,
    }
