"""Optional YAML configuration shared by the command-line tools.

Only known keys are accepted; a typo fails loudly with the full key path.
When no path is given the CORPUS_ETA_CONFIG environment variable is
consulted, and absent that the built-in defaults apply.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .clustering import DEFAULT_K
from .errors import ConfigError
from .gbrt import GbrtParams
from .harness import DEFAULT_C_GRID
from .predictors import DEFAULT_CASCADE, CascadePolicy

ENV_VAR = "CORPUS_ETA_CONFIG"

_TOP_KEYS = {"k", "gbrt", "cascade", "sweep"}
_GBRT_KEYS = {"num_trees", "max_depth", "learning_rate", "min_samples_leaf"}
_CASCADE_KEYS = {"bounds", "systems"}
_SWEEP_KEYS = {"realisations", "base_seed", "c_grid"}


@dataclass(frozen=True)
class AppConfig:
    k: int = DEFAULT_K
    gbrt: GbrtParams = field(default_factory=GbrtParams)
    cascade: CascadePolicy = DEFAULT_CASCADE
    realisations: int = 100
    base_seed: int = 0
    c_grid: tuple[float, ...] = DEFAULT_C_GRID


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config key {path!r} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: set, prefix: str) -> None:
    for key in mapping:
        name = f"{prefix}{key}"
        if key not in allowed:
            raise ConfigError(f"unknown config key {name!r}")


def _get_int(mapping: dict, key: str, default: int, prefix: str) -> int:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {prefix}{key!r} must be an integer, got {value!r}")
    return value


def _get_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path!r} must be a number, got {value!r}")
    return float(value)


def load_config(path=None) -> AppConfig:
    """Read the YAML file at path (or $CORPUS_ETA_CONFIG), else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return AppConfig()
    import yaml  # here, not at module level: most calls pass no config file

    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path!r}: {exc}") from exc

    doc = _require_mapping(doc, "<top level>")
    _reject_unknown(doc, _TOP_KEYS, "")

    k = _get_int(doc, "k", DEFAULT_K, "")

    gbrt_doc = _require_mapping(doc.get("gbrt"), "gbrt")
    _reject_unknown(gbrt_doc, _GBRT_KEYS, "gbrt.")
    defaults = GbrtParams()
    lr = gbrt_doc.get("learning_rate", defaults.learning_rate)
    gbrt = GbrtParams(
        num_trees=_get_int(gbrt_doc, "num_trees", defaults.num_trees, "gbrt."),
        max_depth=_get_int(gbrt_doc, "max_depth", defaults.max_depth, "gbrt."),
        learning_rate=_get_float(lr, "gbrt.learning_rate"),
        min_samples_leaf=_get_int(gbrt_doc, "min_samples_leaf",
                                  defaults.min_samples_leaf, "gbrt."),
    )

    cascade = DEFAULT_CASCADE
    if "cascade" in doc:
        casc_doc = _require_mapping(doc.get("cascade"), "cascade")
        _reject_unknown(casc_doc, _CASCADE_KEYS, "cascade.")
        bounds = casc_doc.get("bounds")
        systems = casc_doc.get("systems")
        if not isinstance(bounds, list) or not isinstance(systems, list):
            raise ConfigError("config keys 'cascade.bounds' and 'cascade.systems' "
                              "must both be lists")
        if len(bounds) != len(systems):
            raise ConfigError(
                f"cascade.bounds has {len(bounds)} entries but cascade.systems "
                f"has {len(systems)}")
        thresholds = tuple(
            (_get_float(b, f"cascade.bounds[{i}]"), str(s))
            for i, (b, s) in enumerate(zip(bounds, systems)))
        cascade = CascadePolicy(thresholds=thresholds)

    sweep_doc = _require_mapping(doc.get("sweep"), "sweep")
    _reject_unknown(sweep_doc, _SWEEP_KEYS, "sweep.")
    realisations = _get_int(sweep_doc, "realisations", 100, "sweep.")
    base_seed = _get_int(sweep_doc, "base_seed", 0, "sweep.")
    c_grid = DEFAULT_C_GRID
    if "c_grid" in sweep_doc:
        raw = sweep_doc["c_grid"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config key 'sweep.c_grid' must be a non-empty list")
        c_grid = tuple(_get_float(v, f"sweep.c_grid[{i}]") for i, v in enumerate(raw))

    return AppConfig(k=k, gbrt=gbrt, cascade=cascade, realisations=realisations,
                     base_seed=base_seed, c_grid=c_grid)
