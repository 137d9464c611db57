"""The online prediction service in front of the fleet.

In production, executor-count selection sits on every query's critical
path (Section 5.6 measures the overheads).  The fleet therefore serves
predictions through a service that behaves like the deployed one:

- a **plan-signature memo cache**: recurring queries — the common case in
  the paper's telemetry, where most applications resubmit near-identical
  queries (Figure 2b's low plan variability) — hit the cache and skip
  model inference entirely.  The cache is a bounded LRU: its keys are
  client-supplied feature vectors on the HTTP path, so an unbounded one
  would let any client grow the server's memory without limit;
- **measured overhead**: every prediction reports the wall-clock seconds
  it cost, and the fleet engine charges that latency to the query instead
  of assuming selection is free;
- **batched inference** for cache warm-up: scoring many plans through one
  :class:`repro.export.runtime.PortablePPMScorer` call amortizes the
  runtime dispatch the way the paper's ONNX runtime batches do.

Any object with ``predict_ppm(features)`` works as the scorer: a trained
:class:`repro.core.parameter_model.ParameterModel`, an
:class:`repro.core.autoexecutor.AutoExecutor`, or a portable-model scorer
from :mod:`repro.export`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, TypeVar

import numpy as np

from repro.core.features import QueryFeatures
from repro.core.ppm import PricePerfModel
from repro.core.selection import elbow_point
from repro.core.training import DEFAULT_N_GRID
from repro.engine.plan import LogicalPlan
from repro.obs.trace import TraceEvent, Tracer

if TYPE_CHECKING:
    from repro.core.autoexecutor import AutoExecutor

__all__ = ["PPMScorer", "Prediction", "PredictionService"]

#: Selection objective signature (same as AutoExecutor's).
_Objective = Callable[[np.ndarray, np.ndarray], int]

#: Bound on the signature-keyed decision cache.  An evicted signature
#: only costs one more inference on its next request — never a wrong
#: answer.
_DECISION_CACHE_SIZE = 4096

_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class _LRU(OrderedDict[_K, _V]):
    """An ordered dict bounded to ``maxsize`` entries, least recently used out.

    :meth:`lookup` (on a hit) and :meth:`put` make the key the most
    recently used; a :meth:`put` past the bound evicts the least recently
    used key.  Iteration runs from least to most recently used.
    """

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key: _K) -> _V | None:
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key: _K, value: _V) -> None:
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.maxsize:
            self.popitem(last=False)


class PPMScorer(Protocol):
    """Structural type for scorers: features in, fitted PPM out.

    Satisfied by a trained :class:`~repro.core.parameter_model
    .ParameterModel`, an :class:`~repro.core.autoexecutor.AutoExecutor`'s
    model, or a portable-model scorer from :mod:`repro.export`.
    """

    def predict_ppm(self, features: QueryFeatures) -> PricePerfModel: ...


@dataclass(frozen=True)
class Prediction:
    """One served executor-count decision.

    Attributes:
        executors: the selected executor budget.
        cached: whether the plan signature hit the memo cache.
        seconds: wall-clock selection overhead of this call (featurize +
            lookup, plus model inference and selection on a miss).
        estimated_runtime_seconds: the PPM's predicted run time at the
            selected count — the cost signal sharded-fleet routing
            (:class:`repro.fleet.routing.CostAwareRouter`) weighs queued
            work by.  ``None`` when the scorer predicts no curve.
    """

    executors: int
    cached: bool
    seconds: float
    estimated_runtime_seconds: float | None = None


class PredictionService:
    """Cached, measured executor-count selection for the live query path.

    Args:
        scorer: an object with ``predict_ppm(features) -> PricePerfModel``.
        n_grid: candidate executor counts.
        objective: selection strategy over predicted curves (paper
            default: elbow).
        min_executors / max_executors: clamp on the selected count.
        tracer: optional :class:`~repro.obs.trace.Tracer` receiving one
            ``prediction`` event per served decision (count, cache hit,
            measured seconds).  The service has no simulation clock, so
            events are stamped at time ``0.0`` — they account for the
            service, not the fleet timeline (the engines emit the
            on-clock ``query_predict`` events).
        features_memo_size: bound on the per-query featurization memo.
            The memo is an LRU: the streaming-mode O(1)-memory contract
            forbids any per-query state that outlives the bound, and an
            evicted entry only costs a re-featurization on its next
            arrival — never a wrong answer.
    """

    def __init__(
        self,
        scorer: PPMScorer,
        n_grid: np.ndarray = DEFAULT_N_GRID,
        objective: _Objective = elbow_point,
        min_executors: int = 1,
        max_executors: int = 48,
        tracer: Tracer | None = None,
        features_memo_size: int = 4096,
    ) -> None:
        if min_executors < 1 or max_executors < min_executors:
            raise ValueError("invalid executor clamp range")
        if features_memo_size < 1:
            raise ValueError("features_memo_size must be positive")
        self.scorer = scorer
        self.n_grid = np.asarray(n_grid)
        self.objective = objective
        self.min_executors = int(min_executors)
        self.max_executors = int(max_executors)
        self.tracer = tracer
        #: Model generation: bumped by :meth:`invalidate` (and so by
        #: :meth:`swap_scorer`).  Every memo-cache entry is tagged with
        #: the generation that produced it, so a decision can never be
        #: served from a model that is no longer behind the service.
        self.generation = 0
        # signature -> (generation, chosen count, predicted runtime)
        self._cache: _LRU[tuple[float, ...], tuple[int, int, float]] = _LRU(
            _DECISION_CACHE_SIZE
        )
        # Featurization memo for the fleet path, keyed like the engine's
        # compiled-plan memo: one optimized plan per query id, so the id
        # keys its feature vector and recurring arrivals skip the plan
        # walk.  The plan object rides along as an identity guard — if a
        # query id ever maps to a new plan, it is re-featurized.  It
        # survives :meth:`invalidate` because features are
        # model-independent.
        self._features_by_query: _LRU[str, tuple[object, QueryFeatures]] = _LRU(
            int(features_memo_size)
        )
        self.hits = 0
        self.misses = 0
        self.total_seconds = 0.0
        #: Whether the scorer supports single-dispatch batch inference
        #: (``predict_ppm_batch``).  Probed once here instead of silently
        #: per call, so callers (the serving layer's ``/metrics``, the
        #: fleet drivers) can see when batching is actually in effect.
        self.batched = callable(getattr(scorer, "predict_ppm_batch", None))
        self._fallback_traced = False

    @classmethod
    def from_autoexecutor(
        cls, system: AutoExecutor, **kwargs: Any
    ) -> "PredictionService":
        """Wrap a trained :class:`repro.core.autoexecutor.AutoExecutor`."""
        if system.model is None:
            raise RuntimeError("AutoExecutor is not trained yet")
        return cls(scorer=system.model, n_grid=system.n_grid, **kwargs)

    @staticmethod
    def signature(features: QueryFeatures) -> tuple[float, ...]:
        """The memo-cache key: the full compile-time feature vector.

        Two plans with identical Table-2 features get — by construction —
        identical predictions, so they are the same cache entry.
        """
        return tuple(float(v) for v in features.values)

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def features_memo_len(self) -> int:
        """Current size of the bounded per-query featurization memo."""
        return len(self._features_by_query)

    def invalidate(self) -> None:
        """Drop every memoized decision and bump the model generation.

        Call this whenever the scorer's answers may have changed (a
        scorer swap does it for you).  The featurization memo survives:
        features are compile-time properties of the plan, independent of
        the model behind the service.
        """
        self.generation += 1
        self._cache.clear()

    def swap_scorer(self, scorer: PPMScorer) -> int:
        """Hot-swap the model behind the service.

        Atomic from a caller's view: the scorer is replaced, the batch
        capability re-probed, the fallback announcement re-armed for the
        new scorer, and every cached decision invalidated, so the next
        decision — cached or not — comes from the new model.

        Returns:
            The new model generation.
        """
        self.scorer = scorer
        self.batched = callable(getattr(scorer, "predict_ppm_batch", None))
        self._fallback_traced = False
        self.invalidate()
        return self.generation

    def mean_overhead_seconds(self) -> float:
        served = self.hits + self.misses
        return self.total_seconds / served if served else 0.0

    def _note_fallback(self, n_misses: int) -> None:
        """Trace the first per-miss inference loop taken in a batch call.

        One event per service lifetime: the condition is structural (the
        scorer lacks ``predict_ppm_batch``), so repeating it per call
        would only pad the log.
        """
        if self._fallback_traced or self.tracer is None:
            return
        self._fallback_traced = True
        self.tracer.emit(
            TraceEvent(
                0.0,
                "prediction_fallback",
                data={
                    "scorer": type(self.scorer).__name__,
                    "misses": n_misses,
                },
            )
        )

    def _featurize(
        self, plan_or_features: LogicalPlan | QueryFeatures
    ) -> QueryFeatures:
        if isinstance(plan_or_features, QueryFeatures):
            return plan_or_features
        return QueryFeatures.from_plan(plan_or_features)

    def _select(self, ppm: PricePerfModel) -> tuple[int, float]:
        """The chosen count and the predicted run time at that count."""
        curve = ppm.predict_curve(self.n_grid)
        chosen = self.objective(self.n_grid, curve)
        chosen = int(np.clip(chosen, self.min_executors, self.max_executors))
        # The objective picks off the grid we already scored; only a
        # clamp that moved the count off-grid costs a second inference.
        on_grid = np.nonzero(self.n_grid == chosen)[0]
        if on_grid.size:
            runtime = float(curve[on_grid[0]])
        else:
            runtime = float(np.asarray(ppm.predict_curve([chosen]))[0])
        return chosen, runtime

    def predict(self, plan_or_features: LogicalPlan | QueryFeatures) -> Prediction:
        """Serve one decision, measuring its wall-clock overhead."""
        start = time.perf_counter()
        features = self._featurize(plan_or_features)
        return self._serve(features, start)

    def _serve(self, features: QueryFeatures, start: float) -> Prediction:
        """Cache lookup + (on miss) inference, timed from ``start``."""
        key = self.signature(features)
        entry = self._cache.lookup(key)
        cached = entry is not None and entry[0] == self.generation
        if cached and entry is not None:
            self.hits += 1
            _, chosen, runtime = entry
        else:
            self.misses += 1
            chosen, runtime = self._select(self.scorer.predict_ppm(features))
            self._cache.put(key, (self.generation, chosen, runtime))
        elapsed = time.perf_counter() - start
        self.total_seconds += elapsed
        if self.tracer is not None:
            self.tracer.emit(
                TraceEvent(
                    0.0,
                    "prediction",
                    data={
                        "executors": chosen,
                        "cached": cached,
                        "seconds": elapsed,
                        "estimated_runtime_s": runtime,
                    },
                )
            )
        return Prediction(
            executors=chosen,
            cached=cached,
            seconds=elapsed,
            estimated_runtime_seconds=runtime,
        )

    def predict_batch(self, plans: Sequence) -> list[Prediction]:
        """Serve many decisions at once, batching uncached inference.

        When the scorer supports batch scoring (``predict_ppm_batch``,
        provided by the portable-model runtime), all cache misses go
        through a single inference call; the batch's wall-clock cost is
        split evenly across the misses.  Whether that path is live is
        exposed as :attr:`batched`; a scorer without it silently costs a
        per-miss inference loop, so the first time the fallback actually
        runs the service emits one ``prediction_fallback`` trace event
        rather than degrading invisibly.
        """
        start = time.perf_counter()
        featurized = [self._featurize(p) for p in plans]
        keys = [self.signature(f) for f in featurized]

        # The batch's decisions are read back from here, not from the
        # bounded cache, which a batch wider than its bound would evict.
        decisions: dict[tuple[float, ...], tuple[int, float]] = {}
        first_miss: dict[tuple[float, ...], int] = {}
        for i, key in enumerate(keys):
            if key in decisions or key in first_miss:
                continue
            entry = self._cache.lookup(key)
            if entry is not None and entry[0] == self.generation:
                decisions[key] = (entry[1], entry[2])
            else:
                first_miss[key] = i
        miss_order = list(first_miss.values())

        if miss_order:
            batch_scorer = getattr(self.scorer, "predict_ppm_batch", None)
            if self.batched and batch_scorer is not None:
                matrix = np.stack(
                    [featurized[i].values for i in miss_order]
                )
                ppms = batch_scorer(matrix)
            else:
                self._note_fallback(len(miss_order))
                ppms = [
                    self.scorer.predict_ppm(featurized[i])
                    for i in miss_order
                ]
            for i, ppm in zip(miss_order, ppms):
                chosen, runtime = self._select(ppm)
                decisions[keys[i]] = (chosen, runtime)
                self._cache.put(keys[i], (self.generation, chosen, runtime))

        elapsed = time.perf_counter() - start
        per_miss = elapsed / len(miss_order) if miss_order else 0.0
        missed = set(first_miss)
        out: list[Prediction] = []
        for key in keys:
            cached = key not in missed
            if cached:
                self.hits += 1
            else:
                self.misses += 1
                missed.discard(key)  # later repeats in the batch are hits
            chosen, runtime = decisions[key]
            out.append(
                Prediction(
                    executors=chosen,
                    cached=cached,
                    seconds=0.0 if cached else per_miss,
                    estimated_runtime_seconds=runtime,
                )
            )
        self.total_seconds += elapsed
        return out

    def allocate(self, query_id: str, plan: LogicalPlan) -> Prediction:
        """The fleet engine's allocator interface.

        The decision depends only on the optimized plan; the query id
        memoizes featurization so a recurring query pays the plan walk
        once and every later arrival is a pure signature lookup.  The
        memo lookup and any featurization stay inside the measured
        window, so ``Prediction.seconds`` keeps its "featurize + lookup"
        contract.

        The memo is a bounded LRU (``features_memo_size``): a hit
        refreshes the entry's recency, an insert past the bound evicts
        the least-recently-used query id.  Eviction is invisible except
        in cost — the evicted query re-featurizes on its next arrival.
        """
        start = time.perf_counter()
        entry = self._features_by_query.lookup(query_id)
        if entry is None or entry[0] is not plan:
            entry = (plan, self._featurize(plan))
            self._features_by_query.put(query_id, entry)
        return self._serve(entry[1], start)

    # Bound methods proxy attribute reads to the function, so the fleet
    # drivers' ``allocator_decision`` sees this on ``service.allocate``.
    allocate.policy_name = "prediction"
