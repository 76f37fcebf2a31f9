"""YAML configuration loading: defaults, overrides, strict key checking."""

import pytest

from corpus_eta.clustering import DEFAULT_K
from corpus_eta.config import ENV_VAR, AppConfig, load_config
from corpus_eta.errors import ConfigError
from corpus_eta.gbrt import GbrtParams
from corpus_eta.harness import DEFAULT_C_GRID
from corpus_eta.predictors import DEFAULT_CASCADE


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestDefaults:
    def test_no_path_no_env_gives_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        config = load_config()
        assert config == AppConfig()
        assert config.k == DEFAULT_K
        assert config.gbrt == GbrtParams()
        assert config.cascade == DEFAULT_CASCADE
        assert config.realisations == 100
        assert config.base_seed == 0
        assert config.c_grid == DEFAULT_C_GRID

    def test_empty_document_gives_defaults(self, tmp_path):
        path = write_config(tmp_path, "")
        assert load_config(path) == AppConfig()

    def test_empty_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert load_config() == AppConfig()


class TestOverrides:
    def test_full_document(self, tmp_path):
        path = write_config(tmp_path, """
k: 4
gbrt:
  num_trees: 50
  max_depth: 3
  learning_rate: 0.25
  min_samples_leaf: 2
cascade:
  bounds: [0.0, 0.1, 1.0]
  systems: [GXP, CXP, CP]
sweep:
  realisations: 7
  base_seed: 99
  c_grid: [0.1, 0.5]
""")
        config = load_config(path)
        assert config.k == 4
        assert config.gbrt == GbrtParams(num_trees=50, max_depth=3,
                                         learning_rate=0.25, min_samples_leaf=2)
        assert config.cascade.thresholds == ((0.0, "GXP"), (0.1, "CXP"), (1.0, "CP"))
        assert config.realisations == 7
        assert config.base_seed == 99
        assert config.c_grid == (0.1, 0.5)

    def test_partial_sections_keep_other_defaults(self, tmp_path):
        path = write_config(tmp_path, "gbrt:\n  num_trees: 10\n")
        config = load_config(path)
        assert config.gbrt.num_trees == 10
        assert config.gbrt.max_depth == GbrtParams().max_depth
        assert config.k == DEFAULT_K

    def test_env_var_points_at_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "k: 3\n")
        monkeypatch.setenv(ENV_VAR, str(path))
        assert load_config().k == 3

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_path = write_config(tmp_path, "k: 3\n")
        monkeypatch.setenv(ENV_VAR, str(env_path))
        other = tmp_path / "other.yaml"
        other.write_text("k: 8\n")
        assert load_config(other).k == 8

    def test_integer_learning_rate_accepted_as_number(self, tmp_path):
        path = write_config(tmp_path, "gbrt:\n  learning_rate: 1\n")
        assert load_config(path).gbrt.learning_rate == 1.0


class TestRejections:
    def test_unknown_top_level_key(self, tmp_path):
        for text, key in (("clusters: 4\n", "clusters"),
                          ("paths:\n  features: feats.csv\n", "paths")):
            path = write_config(tmp_path, text)
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, "gbrt:\n  bogus: 1\n")
        with pytest.raises(ConfigError, match="unknown config key 'gbrt.bogus'"):
            load_config(path)

    def test_bool_is_not_an_integer(self, tmp_path):
        path = write_config(tmp_path, "k: true\n")
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(path)

    def test_string_realisations_rejected(self, tmp_path):
        path = write_config(tmp_path, "sweep:\n  realisations: many\n")
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(path)

    def test_non_numeric_learning_rate_rejected(self, tmp_path):
        path = write_config(tmp_path, "gbrt:\n  learning_rate: fast\n")
        with pytest.raises(ConfigError, match="must be a number"):
            load_config(path)

    def test_section_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "gbrt: 5\n")
        with pytest.raises(ConfigError, match="'gbrt' must be a mapping"):
            load_config(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "- a\n- b\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(path)

    def test_cascade_requires_both_lists(self, tmp_path):
        path = write_config(tmp_path, "cascade:\n  bounds: [0.5, 1.0]\n")
        with pytest.raises(ConfigError, match="must both be lists"):
            load_config(path)

    def test_cascade_length_mismatch(self, tmp_path):
        path = write_config(tmp_path,
                            "cascade:\n  bounds: [0.5, 1.0]\n  systems: [CP]\n")
        with pytest.raises(ConfigError, match="2 entries but"):
            load_config(path)

    def test_cascade_policy_rules_still_apply(self, tmp_path):
        path = write_config(tmp_path,
                            "cascade:\n  bounds: [0.5]\n  systems: [CP]\n")
        with pytest.raises(Exception, match="end at 1.0"):
            load_config(path)

    def test_empty_c_grid_rejected(self, tmp_path):
        path = write_config(tmp_path, "sweep:\n  c_grid: []\n")
        with pytest.raises(ConfigError, match="non-empty list"):
            load_config(path)

    def test_scalar_c_grid_rejected(self, tmp_path):
        path = write_config(tmp_path, "sweep:\n  c_grid: 0.5\n")
        with pytest.raises(ConfigError, match="non-empty list"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "none.yaml")

    def test_invalid_yaml_rejected(self, tmp_path):
        path = write_config(tmp_path, "k: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)
