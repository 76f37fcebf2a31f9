"""Optional YAML file holding the cascade policy that ``predict`` follows.

The file has one section, ``cascade:``, with two lists of equal length,
``bounds`` and ``systems``. Any other key fails loudly with its full key
path; model and sweep settings are command-line flags.
"""

from __future__ import annotations

from .errors import ConfigError
from .predictors import DEFAULT_CASCADE, CascadePolicy

_TOP_KEYS = {"cascade"}
_CASCADE_KEYS = {"bounds", "systems"}


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


def _get_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path!r} must be a number, got {value!r}")
    return float(value)


def load_config(path=None) -> CascadePolicy:
    """Read the cascade policy from the YAML file at path, else the default."""
    if path is None:
        return DEFAULT_CASCADE
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
    if "cascade" not in doc:
        return DEFAULT_CASCADE

    casc_doc = _require_mapping(doc["cascade"], "cascade")
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
    return CascadePolicy(thresholds=thresholds)
