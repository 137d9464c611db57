"""Measurement helpers shared by every workload of the benchmark.

Everything here lives on the benchmark side of the boundary: the
program under test (``src/repro``) is never edited.  A traced run
records spans by wrapping the objects and functions the benchmark hands
to, or calls inside, each layer:

- :meth:`Spans.wrap` wraps one callable (an instance's bound method, an
  allocator, a selection objective);
- :meth:`Spans.patch` swaps a module or class attribute for a wrapped
  version for the length of a ``with`` block and restores it after, for
  calls the program makes internally to functions it imported by name
  (the training pipeline's sweep, Sparklens and PPM-fit calls);
- :class:`CountingTracer` is the benchmark's own ``repro.obs`` tracer:
  it counts events by kind and keeps nothing else.

Spans stay in memory (name, start, end, parent) and are written once,
at the end of the run, by :meth:`Spans.write`.

The untraced run's timings go through :class:`HostSpeed`, which
rescales them to a reference host speed measured by a probe between
segments of the work.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

__all__ = [
    "LAYER_SPANS",
    "CountingTracer",
    "HostSpeed",
    "cpu_now",
    "Spans",
    "WorkloadView",
    "layer_metrics",
    "median",
    "peak_rss_mb",
    "start_program",
    "tail_percentile",
    "trace_program",
]

#: Span names, one per layer boundary the benchmark times.  Each yields
#: ``<name>.calls`` and ``<name>.busy_s`` in the traced run's metrics.
LAYER_SPANS = (
    "workloads.plans",
    "engine.sweep",
    "sparklens.curve",
    "core.ppm_fit",
    "core.features",
    "core.select",
    "core.train",
    "ml.forest.fit",
    "ml.forest.predict",
    "export.save",
    "export.load",
    "export.predict_batch",
    "fleet.prediction",
    "fleet.serve",
    "fleet.summary",
)


class Spans:
    """In-memory span log for one traced run (single-threaded callers).

    Each record is ``(name, start, end, parent)`` where ``parent`` is
    the index of the enclosing span, or ``-1``.  ``counts`` holds
    per-layer work counters (rows scored, trees fitted, simulations)
    recorded at the same boundaries.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, parent = self.records[index]
            self.records[index] = (name, start, time.perf_counter(), parent)

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around every call.

        ``count(args, kwargs, result)`` may return a dict of counters to
        add after each call (rows in a batch, simulations in a sweep).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name: str, count=None):
        """Wrap ``owner.attr`` in spans inside the ``with`` block.

        ``owner`` is a module (a function it imported by name) or a
        class (a method, kept a classmethod when it is one).
        """
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(owner, attr, replacement)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def _by_name(self, name: str) -> list[int]:
        return [i for i, r in enumerate(self.records) if r[0] == name]

    def calls(self, name: str) -> int:
        return len(self._by_name(name))

    def busy(self, name: str) -> float:
        """Wall seconds inside ``name``, counting nested repeats once."""
        total = 0.0
        for i in self._by_name(name):
            if not self._has_ancestor(i, name):
                _, start, end, _ = self.records[i]
                total += end - start
        return total

    def self_time(self, name: str) -> float:
        """Busy time of ``name`` minus the time its child spans cover."""
        wanted = set(self._by_name(name))
        children = 0.0
        for _, start, end, parent in self.records:
            if parent in wanted:
                children += end - start
        return self.busy(name) - children

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.records[index][3]
        while parent >= 0:
            if self.records[parent][0] == name:
                return True
            parent = self.records[parent][3]
        return False

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (times relative)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.records[0][1] if self.records else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.records):
                out.write(
                    f"{i}\t{name}\t{start - origin:.9f}\t"
                    f"{end - origin:.9f}\t{parent}\n"
                )


def cpu_now() -> float:
    """CPU seconds of this thread plus every finished child process.

    Unlike wall time, it leaves out the stretches in which another
    tenant of a shared host held the CPU.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


class HostSpeed:
    """Host time rescaled to a reference host speed.

    A shared host can run the same code at half speed for seconds at a
    time, which moves every timing of a run together.  A speed probe —
    fixed pure-Python and NumPy work the program never touches — is
    timed between segments of the measured work; each stretch between
    two probes is scaled by ``REFERENCE_PROBE_S`` over the mean of the
    two probe times, and the probes themselves take no time on the
    scaled clock.  A scaled second is what the stretch would have taken
    on a host where the probe takes ``REFERENCE_PROBE_S``.

    ``timer`` is the raw clock: ``time.perf_counter`` (wall time, which
    counts waiting) or :func:`cpu_now`.  Stamp measured intervals with
    :meth:`now`; each must lie between the first and the last probe.
    """

    REFERENCE_PROBE_S = 0.004

    def __init__(self, timer=time.perf_counter) -> None:
        self.now = timer
        self._marks: list[tuple[float, float]] = []

    def probe(self) -> None:
        start = self.now()
        total = 0
        for i in range(40_000):
            total += i * i
        values = np.ones(64)
        for _ in range(200):
            values = values * 1.0001 + 1.0
        self._marks.append((start, self.now()))

    def clock(self, raw) -> np.ndarray:
        """Scaled seconds since the first probe at raw ``now()`` stamps."""
        knots_raw: list[float] = []
        knots_ref: list[float] = []
        ref = 0.0
        previous = None
        for start, end in self._marks:
            if previous is not None:
                prev_start, prev_end = previous
                mean_probe = (prev_end - prev_start + end - start) / 2
                ref += (start - prev_end) * self.REFERENCE_PROBE_S / mean_probe
            knots_raw += [start, end]
            knots_ref += [ref, ref]
            previous = (start, end)
        return np.interp(np.asarray(raw, dtype=float), knots_raw, knots_ref)

    def seconds(self, start: float, end: float) -> float:
        """Scaled length of the raw interval ``[start, end]``."""
        ref_start, ref_end = self.clock([start, end])
        return float(ref_end - ref_start)


class CountingTracer:
    """A ``repro.obs`` tracer that counts events by kind.

    Kind is slot 1 of both the typed ``TraceEvent`` and the raw hot-path
    tuple form, so no event is materialized.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def emit(self, event) -> None:
        self.counts[event[1]] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def start_program(modules) -> None:
    """Start a fresh interpreter that imports ``modules``, and wait.

    The first part of every workload's set-up: what a process pays to
    start the program before it can build anything.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)], env=env, check=True
    )


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, q: float = 99.0) -> float:
    """The ``q``-th percentile, refusing one with under 10 samples beyond.

    Nearest-rank on the sorted samples; the caller reports the sample
    count next to the value.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(
            f"p{q:g} over {n} samples leaves {n - rank} beyond it; need 10"
        )
    return float(ordered[rank - 1])


def sweep_count(args, kwargs, result) -> dict:
    """Counter update for one ``simulate_query_sweep`` call."""
    return {"engine.sweep.sims": len(result)}


@contextlib.contextmanager
def trace_program(spans: Spans):
    """Time the calls the program makes internally to other layers.

    The training pipeline and the true-curve helper call the sweep, the
    Sparklens estimator and the PPM fits through names they imported;
    featurization is a classmethod every caller reaches through the
    class.  Each is swapped for a timed version inside the block.
    """
    import repro.core.selection as selection
    import repro.core.training as training
    from repro.core.features import QueryFeatures
    from repro.sparklens.simulator import SparklensEstimator

    with contextlib.ExitStack() as stack:
        for owner, attr, name, count in (
            (training, "simulate_query_sweep", "engine.sweep", sweep_count),
            (selection, "simulate_query_sweep", "engine.sweep", sweep_count),
            (training, "fit_power_law", "core.ppm_fit", None),
            (training, "fit_amdahl", "core.ppm_fit", None),
            (SparklensEstimator, "estimate_curve", "sparklens.curve", None),
            (QueryFeatures, "from_plan", "core.features", None),
        ):
            stack.enter_context(spans.patch(owner, attr, name, count))
        yield


class WorkloadView:
    """The ``Workload`` wrapper: a query-id subset, timed when traced.

    Duck-types the three things the program reads from a workload —
    iteration over query ids, ``optimized_plan`` and ``stage_graph`` —
    and forwards them to the wrapped workload, so plans stay memoized in
    one place however many views share it.
    """

    def __init__(self, workload, query_ids=None, spans: Spans | None = None):
        self.workload = workload
        self.query_ids = tuple(
            workload.query_ids if query_ids is None else query_ids
        )
        self.spans = spans
        if spans is not None:
            self.optimized_plan = spans.wrap(
                "workloads.plans", workload.optimized_plan
            )
            self.stage_graph = spans.wrap("workloads.plans", workload.stage_graph)

    def optimized_plan(self, query_id):
        return self.workload.optimized_plan(query_id)

    def stage_graph(self, query_id):
        return self.workload.stage_graph(query_id)

    def subset(self, query_ids) -> "WorkloadView":
        return WorkloadView(self.workload, query_ids, self.spans)

    def __iter__(self):
        return iter(self.query_ids)

    def __len__(self) -> int:
        return len(self.query_ids)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Calls, busy seconds and work counters of every timed layer."""
    out: dict[str, float] = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = float(spans.calls(name))
        out[f"{name}.busy_s"] = spans.busy(name)
    out.update({key: float(value) for key, value in spans.counts.items()})
    return out
