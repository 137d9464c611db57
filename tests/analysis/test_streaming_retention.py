"""Fixture spec for the ``unbounded-growth`` rule.

Inside the streaming accumulator classes, per-query state must fold
into bounded accumulators — any surviving container growth is the
O(1)-memory contract dying one line at a time.
"""

import textwrap
from pathlib import Path

from repro.analysis.checkers import StreamingRetentionChecker
from repro.analysis.config import AnalysisConfig, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]

KNOWN_BAD = textwrap.dedent(
    """
    class PoolStreamStats:
        def observe(self, record):
            self.seen.append(record)               # unbounded list
            self.ids.add(record.query_id)          # unbounded set
            self.history += [record.latency]       # unbounded via +=
            self.by_pool.setdefault(0, []).append(record)  # nested
    """
)

KNOWN_GOOD = textwrap.dedent(
    """
    class PoolStreamStats:
        def observe(self, record):
            # Exact accumulators and sketch folds only.
            self.n_queries += 1
            self.total_seconds += record.run_seconds
            self.latency.add(record.latency)       # bounded sketch fold
            scratch = []
            scratch.append(record.latency)         # local temporary
    """
)


class TestStreamingRetention:
    def test_flags_known_bad(self, check_source):
        findings = check_source(
            StreamingRetentionChecker, KNOWN_BAD, "repro.fleet.metrics"
        )
        assert len(findings) == 4
        assert {f.rule for f in findings} == {"unbounded-growth"}
        assert "O(1)-memory" in findings[0].message

    def test_passes_known_good(self, check_source):
        assert (
            check_source(StreamingRetentionChecker, KNOWN_GOOD, "repro.fleet.metrics")
            == []
        )

    def test_only_declared_classes_are_in_scope(self, check_source):
        # Same growth in a record-mode class is legal: FleetMetrics
        # holding records IS record mode's contract.
        src = KNOWN_BAD.replace("PoolStreamStats", "FleetMetrics")
        assert check_source(StreamingRetentionChecker, src, "repro.fleet.metrics") == []

    def test_module_must_match_too(self, check_source):
        assert (
            check_source(StreamingRetentionChecker, KNOWN_BAD, "repro.engine.metrics")
            == []
        )

    def test_bounded_attr_allowlist_extends(self, check_source):
        config = AnalysisConfig.from_mapping(
            {"streaming-bounded-attrs": ["seen", "ids", "history", "by_pool"]}
        )
        assert (
            check_source(
                StreamingRetentionChecker,
                KNOWN_BAD,
                "repro.fleet.metrics",
                config=config,
            )
            == []
        )


DICT_CACHE = textwrap.dedent(
    """
    class PredictionService:
        def allocate(self, key, decision):
            self._decisions[key] = decision        # plain dict: grows
            self._memo.put(key, decision)          # unbounded put
            self._decisions[key] += 1              # still a store
            del self._decisions[key]               # shrinking is fine
            local = {}
            local[key] = decision                  # local temporary
    """
)


class TestSubscriptStores:
    """Dict caches grow by ``self.x[k] = v`` or ``put``, not by
    ``append`` — the decision cache grew that way before it was an
    LRU."""

    SERVICE = "repro.fleet.prediction:PredictionService"

    def test_plain_dict_cache_is_flagged(self, check_source):
        config = AnalysisConfig.from_mapping({"streaming-classes": [self.SERVICE]})
        findings = check_source(
            StreamingRetentionChecker,
            DICT_CACHE,
            "repro.fleet.prediction",
            config=config,
        )
        assert [f.line for f in findings] == [4, 5, 6]
        assert "self._decisions" in findings[0].message

    def test_lru_backed_service_is_clean(self, check_source):
        config = load_config(str(REPO_ROOT))
        assert self.SERVICE in config.streaming_classes
        source = (REPO_ROOT / "src/repro/fleet/prediction.py").read_text()
        assert (
            check_source(
                StreamingRetentionChecker,
                source,
                "repro.fleet.prediction",
                config=config,
            )
            == []
        )
        # Without the LRU allowlist its put() calls would be findings.
        bare = AnalysisConfig.from_mapping({"streaming-classes": [self.SERVICE]})
        flagged = check_source(
            StreamingRetentionChecker, source, "repro.fleet.prediction", config=bare
        )
        assert {f.message.split()[4] for f in flagged} == {
            "self._cache",
            "self._features_by_query",
        }
