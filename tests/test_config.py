"""YAML cascade policy loading: defaults, the cascade block, strict key checking."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_eta.cli import main
from corpus_eta.config import load_config
from corpus_eta.corpus import save_features_csv
from corpus_eta.errors import ConfigError
from corpus_eta.predictors import DEFAULT_CASCADE, SYSTEMS, CascadePolicy

from helpers import make_corpus

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


def predict_with_config(tmp_path, config_path):
    """Run `predict --config` on a 2-clip corpus; returns the exit code."""
    features = tmp_path / "features.csv"
    save_features_csv(features, make_corpus(n_clips=2).clips)
    return main(["predict", "--features", str(features), "--encoders", "x264",
                 "--config", str(config_path),
                 "--per-task-out", str(tmp_path / "per_task.csv")])


class TestDefaults:
    def test_no_path_no_env_gives_defaults(self):
        assert load_config() == DEFAULT_CASCADE
        assert load_config(None) == CascadePolicy()

    def test_empty_document_gives_defaults(self, tmp_path):
        path = write_config(tmp_path, "")
        assert load_config(path) == DEFAULT_CASCADE

    def test_empty_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv("CORPUS_ETA_CONFIG", "")
        assert load_config() == DEFAULT_CASCADE


class TestOverrides:
    def test_full_document(self, tmp_path):
        path = write_config(tmp_path, """
cascade:
  bounds: [0.0, 0.1, 1.0]
  systems: [GXP, CXP, CP]
""")
        assert load_config(path).thresholds == ((0.0, "GXP"), (0.1, "CXP"), (1.0, "CP"))

    def test_env_var_is_not_read(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "cascade:\n  bounds: [1.0]\n  systems: [BP]\n")
        monkeypatch.setenv("CORPUS_ETA_CONFIG", str(path))
        assert load_config() == DEFAULT_CASCADE

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORPUS_ETA_CONFIG", str(tmp_path / "missing.yaml"))
        path = write_config(tmp_path, "cascade:\n  bounds: [1.0]\n  systems: [BP]\n")
        assert load_config(path).thresholds == ((1.0, "BP"),)

    def test_integer_bound_accepted_as_number(self, tmp_path):
        path = write_config(tmp_path, "cascade:\n  bounds: [0, 1]\n  systems: [GXP, CP]\n")
        assert load_config(path).thresholds == ((0.0, "GXP"), (1.0, "CP"))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                              allow_nan=False), unique=True, max_size=5),
           st.data())
    def test_valid_policy_round_trips_through_yaml(self, lower_bounds, data):
        bounds = sorted(lower_bounds) + [1.0]
        systems = data.draw(st.lists(st.sampled_from(SYSTEMS), min_size=len(bounds),
                                     max_size=len(bounds)))
        text = yaml.safe_dump({"cascade": {"bounds": bounds, "systems": systems}})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            path.write_text(text)
            loaded = load_config(path)
        assert loaded == CascadePolicy(thresholds=tuple(zip(bounds, systems)))


class TestRejections:
    def test_unknown_top_level_key(self, tmp_path):
        for text, key in (("clusters: 4\n", "clusters"),
                          ("paths:\n  features: feats.csv\n", "paths")):
            path = write_config(tmp_path, text)
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(path)

    @pytest.mark.parametrize("text,key", [
        ("k: 4\n", "k"),
        ("gbrt:\n  num_trees: 50\n", "gbrt"),
        ("sweep:\n  realisations: 7\n", "sweep"),
    ])
    def test_removed_key_exits_1(self, tmp_path, capsys, text, key):
        """k, gbrt and sweep are command-line flags now, not config keys."""
        path = write_config(tmp_path, "cascade:\n  bounds: [1.0]\n  systems: [BP]\n" + text)
        assert predict_with_config(tmp_path, path) == 1
        assert capsys.readouterr().err == f"corpus-eta: error: unknown config key '{key}'\n"
        assert not (tmp_path / "per_task.csv").exists()

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, "cascade:\n  bogus: 1\n")
        with pytest.raises(ConfigError, match="unknown config key 'cascade.bogus'"):
            load_config(path)

    def test_bool_is_not_a_number(self, tmp_path):
        path = write_config(tmp_path,
                            "cascade:\n  bounds: [true, 1.0]\n  systems: [CXP, CP]\n")
        with pytest.raises(ConfigError, match=r"'cascade.bounds\[0\]' must be a number"):
            load_config(path)

    def test_non_numeric_bound_rejected(self, tmp_path):
        path = write_config(tmp_path,
                            "cascade:\n  bounds: [0.1, fast]\n  systems: [CXP, CP]\n")
        with pytest.raises(ConfigError, match=r"'cascade.bounds\[1\]' must be a number"):
            load_config(path)

    def test_section_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "cascade: 5\n")
        with pytest.raises(ConfigError, match="'cascade' must be a mapping"):
            load_config(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "- a\n- b\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(path)

    def test_cascade_requires_both_lists(self, tmp_path):
        path = write_config(tmp_path, "cascade:\n  bounds: [0.5, 1.0]\n")
        with pytest.raises(ConfigError, match="must both be lists"):
            load_config(path)

    def test_scalar_bounds_rejected(self, tmp_path):
        path = write_config(tmp_path, "cascade:\n  bounds: 1.0\n  systems: [CP]\n")
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

    def test_nan_bound_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "cascade:\n  bounds: [0.0, .nan, 1.0]\n"
                                      "  systems: [GXP, CXP, CP]\n")
        assert predict_with_config(tmp_path, path) == 1
        assert "cascade bounds must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "per_task.csv").exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "none.yaml")

    def test_invalid_yaml_rejected(self, tmp_path):
        path = write_config(tmp_path, "k: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)


class TestLazyYamlImport:
    def test_importing_the_cli_does_not_load_yaml(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        probe = "import sys, corpus_eta.cli; print('yaml' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("text,msg", [
        ("k: [unclosed\n", "invalid YAML in"),
        (None, "cannot read config"),
    ])
    def test_bad_config_exits_1_with_the_config_error(self, tmp_path, capsys, text, msg):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=msg) as raised:
            load_config(str(path))
        assert predict_with_config(tmp_path, path) == 1
        assert capsys.readouterr().err == f"corpus-eta: error: {raised.value}\n"
        assert not (tmp_path / "per_task.csv").exists()
