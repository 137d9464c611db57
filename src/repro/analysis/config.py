"""Configuration: scopes and allowlists from ``[tool.repro-analysis]``.

The defaults below encode the repo's actual contracts, so a bare
``python -m repro.analysis src`` enforces them with no configuration at
all.  ``pyproject.toml`` can extend (never silently replace) the
allowlists — extension keeps the shipped contract the floor, and makes
every local waiver visible as a diff to ``[tool.repro-analysis]``.

Scope patterns are dotted module names with ``fnmatch`` wildcards
(``repro.engine.*`` matches the package root and everything below it;
a pattern without wildcards matches that module exactly).

The section is read with the standard library's :mod:`tomllib`, so the
analyzer stays dependency-free.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, fields
from fnmatch import fnmatchcase

__all__ = ["AnalysisConfig", "load_config", "module_matches"]


def module_matches(module: str, patterns: tuple[str, ...]) -> bool:
    """Whether a dotted module name falls under any scope pattern.

    ``repro.engine.*`` is understood the way an import path reads: it
    covers ``repro.engine`` itself *and* every submodule.
    """
    for pattern in patterns:
        if fnmatchcase(module, pattern):
            return True
        if pattern.endswith(".*") and module == pattern[:-2]:
            return True
    return False


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob the checkers read, with the repo contract as default.

    Attributes:
        select: rule names to run (all registered rules when empty).
        wall_clock_modules: scope of the ``wall-clock`` rule — the
            simulation core, where the only legal clock is the event
            loop's.
        wall_clock_allow_modules: measured-overhead modules where real
            wall-clock reads are the documented exception (prediction
            service timings, export runtime, trainer fit times,
            AutoExecutor stopwatch).
        rng_modules: scope of the ``unseeded-rng`` rule (library code;
            drivers and tests draw their own seeds explicitly anyway).
        heap_key_modules: modules whose ``heapq.heappush`` calls must
            push the two-class ``(time, class-rank, counter, ...)`` key.
        taxonomy_module: repo-relative path of the file declaring
            ``EVENT_KINDS`` / ``RAW_DATA_FIELDS``.
        taxonomy_census_modules: scope whose emit sites make up the
            taxonomy census (library code only — a bench script
            replaying a trace is not an emitter).
        emit_helpers: function names that forward a ``kind`` argument to
            a tracer, mapped implicitly to "kind is the second
            positional argument" (``_trace(now, kind, ...)``).
        set_iteration_modules: scope of the ``set-iteration`` rule —
            the event-handling / float-accumulation core where
            iteration order feeds arithmetic.
        streaming_classes: ``module:ClassName`` scopes holding the
            O(1)-memory streaming accumulators; growth calls inside
            them are findings unless the attribute is allowlisted.
        streaming_bounded_attrs: attribute names inside those classes
            that are provably bounded (sketch buckets, merge scratch).
    """

    select: tuple[str, ...] = ()
    wall_clock_modules: tuple[str, ...] = (
        "repro.engine.*",
        "repro.fleet.*",
        "repro.core.*",
        "repro.export.*",
        "repro.obs.*",
        "repro.sparklens.*",
        "repro.serve.*",
    )
    wall_clock_allow_modules: tuple[str, ...] = (
        "repro.fleet.prediction",
        "repro.export.runtime",
        "repro.core.training",
        "repro.core.autoexecutor",
        # The serving layer's one measured-overhead module: service
        # latency sketches read real elapsed time there.  The rest of
        # repro.serve (protocol framing, batching, the server loop) is
        # clock-free by contract.
        "repro.serve.app",
    )
    rng_modules: tuple[str, ...] = (
        # Library code and the drivers that feed gated numbers: a bench
        # whose inputs come from global RNG state is unreproducible in
        # exactly the way its baselines cannot tolerate.
        "repro.*",
        "benchmarks.*",
        "examples.*",
    )
    heap_key_modules: tuple[str, ...] = (
        "repro.engine.scheduler",
        "repro.fleet.engine",
        "repro.fleet.cluster",
    )
    taxonomy_module: str = "src/repro/obs/trace.py"
    taxonomy_census_modules: tuple[str, ...] = ("repro.*",)
    emit_helpers: tuple[str, ...] = ("_trace",)
    set_iteration_modules: tuple[str, ...] = (
        "repro.engine.*",
        "repro.fleet.*",
    )
    streaming_classes: tuple[str, ...] = (
        "repro.fleet.metrics:PoolStreamStats",
        "repro.fleet.metrics:SkylineTracker",
        "repro.obs.metrics:StreamingFleetStats",
        "repro.obs.sketch:QuantileSketch",
    )
    streaming_bounded_attrs: tuple[str, ...] = (
        # StreamingFleetStats' distributions: in a streaming serve they
        # are sketches, whose .add() is a bounded histogram fold.  A
        # record-mode fold swaps in ExactDistribution lists, O(n) like
        # the records they mirror — record mode keeps those anyway.
        "latency",
        "queue_delay",
        "run_seconds",
        # QuantileSketch's bucket counts: one key per occupied
        # log-bucket, O(log(v_max / v_min) / relative_accuracy).
        "_counts",
        # SkylineTracker's steps since the pool's last finish: trimmed
        # to one entry at every finish, so it holds only the steps of
        # one inter-finish gap, never the stream's.
        "_since_finish",
    )

    #: keys whose pyproject values *extend* the default tuple instead of
    #: replacing it — allowlists only ever widen.
    _EXTEND = frozenset(
        {
            "wall_clock_allow_modules",
            "emit_helpers",
            "streaming_bounded_attrs",
            "streaming_classes",
        }
    )

    @classmethod
    def from_mapping(cls, raw: dict[str, object]) -> "AnalysisConfig":
        """Build a config from a ``[tool.repro-analysis]`` mapping.

        Unknown keys are a hard error: a typoed allowlist key that
        silently does nothing would un-gate CI.
        """
        known = {f.name: f for f in fields(cls) if not f.name.startswith("_")}
        kwargs: dict[str, object] = {}
        for key, value in raw.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ValueError(
                    f"[tool.repro-analysis] unknown key {key!r}; "
                    f"expected one of {sorted(known)}"
                )
            if name == "taxonomy_module":
                if not isinstance(value, str):
                    raise ValueError(f"{key} must be a string")
                kwargs[name] = value
                continue
            if isinstance(value, str):
                value = [value]
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError(f"{key} must be a string or list of strings")
            defaults: tuple[str, ...] = known[name].default  # type: ignore[assignment]
            if name in cls._EXTEND:
                kwargs[name] = defaults + tuple(v for v in value if v not in defaults)
            else:
                kwargs[name] = tuple(value)
        return cls(**kwargs)  # type: ignore[arg-type]


def _read_pyproject(path: str) -> dict[str, object]:
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    tool = data.get("tool", {})
    section = tool.get("repro-analysis", {})
    if not isinstance(section, dict):
        raise ValueError("[tool.repro-analysis] must be a table")
    return section


def load_config(root: str = ".") -> AnalysisConfig:
    """Load the config for a repo root (defaults when no section/file)."""
    import os

    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        return AnalysisConfig()
    return AnalysisConfig.from_mapping(_read_pyproject(path))
