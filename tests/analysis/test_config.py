"""Spec for config loading: defaults, extension semantics, pyproject."""

import pytest

from repro.analysis.config import AnalysisConfig, load_config, module_matches


class TestModuleMatches:
    def test_wildcard_covers_package_and_submodules(self):
        assert module_matches("repro.engine", ("repro.engine.*",))
        assert module_matches("repro.engine.sweep", ("repro.engine.*",))
        assert not module_matches("repro.fleet.engine", ("repro.engine.*",))

    def test_exact_pattern_is_exact(self):
        assert module_matches("repro.fleet.prediction", ("repro.fleet.prediction",))
        assert not module_matches(
            "repro.fleet.prediction_v2", ("repro.fleet.prediction",)
        )


class TestFromMapping:
    def test_unknown_key_is_a_hard_error(self):
        with pytest.raises(ValueError, match="unknown key"):
            AnalysisConfig.from_mapping({"wall-clock-allowlist": ["x"]})

    def test_allowlists_extend_rather_than_replace(self):
        config = AnalysisConfig.from_mapping(
            {"wall-clock-allow-modules": ["repro.custom.timing"]}
        )
        # The shipped exceptions survive...
        assert "repro.fleet.prediction" in config.wall_clock_allow_modules
        # ...and the local waiver is appended.
        assert "repro.custom.timing" in config.wall_clock_allow_modules

    def test_scopes_replace(self):
        config = AnalysisConfig.from_mapping({"heap-key-modules": ["my.loop"]})
        assert config.heap_key_modules == ("my.loop",)

    def test_string_shorthand_for_single_entry(self):
        config = AnalysisConfig.from_mapping({"emit-helpers": "_emit_event"})
        assert "_emit_event" in config.emit_helpers
        assert "_trace" in config.emit_helpers  # default kept

    def test_non_string_values_are_rejected(self):
        with pytest.raises(ValueError, match="list of strings"):
            AnalysisConfig.from_mapping({"rng-modules": [1, 2]})


class TestLoadConfig:
    def test_missing_pyproject_gives_defaults(self, tmp_path):
        assert load_config(str(tmp_path)) == AnalysisConfig()

    def test_repo_pyproject_loads(self):
        # The shipped pyproject's [tool.repro-analysis] section (if any)
        # must always be loadable — CI runs exactly this path.
        config = load_config(".")
        assert isinstance(config, AnalysisConfig)

    def test_section_is_read(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analysis]\nheap-key-modules = ["my.loop"]\n'
        )
        assert load_config(str(tmp_path)).heap_key_modules == ("my.loop",)
