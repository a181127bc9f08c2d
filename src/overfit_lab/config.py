"""Flat key = value config files and override handling.

The format is deliberately plain: one ``key = value`` per line, ``#`` starts
a comment.  ExperimentConfig is the only schema: its field names are the
keys, and each default's type (int, float, bool, str or tuple of ints) picks
how a value is parsed and serialized, so a new field needs no edit here.
Overrides (from CLI flags) use the same value syntax and win over file values.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .errors import ConfigError, InvariantViolationError
from .experiments import ExperimentConfig

_KINDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}

CONFIG_KEYS = frozenset(_KINDS)


def _parse_value(key: str, raw: str, where: str):
    raw = raw.strip()
    kind = _KINDS[key]
    try:
        if kind is float:
            v = float(raw)
            if math.isnan(v):
                raise ValueError("nan")
            return v
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            parts = [p for p in raw.replace(",", " ").split() if p]
            if not parts:
                raise ValueError("empty list")
            return tuple(int(p) for p in parts)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: malformed value for key '{key}': {raw!r}") from exc


def parse_config(text: str = "", overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated ExperimentConfig from file text plus overrides.

    Errors name the offending key and line.  This layer also enforces the
    over-parameterization requirement eta >= 2.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        values[key] = _parse_value(key, raw, f"line {lineno}")
    for key, raw in (overrides or {}).items():
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"override: unknown key '{key}'")
        values[key] = (_parse_value(key, raw, f"override --{key}")
                       if isinstance(raw, str) else raw)
    try:
        cfg = ExperimentConfig(**values)
    except InvariantViolationError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.eta < 2:
        raise ConfigError(
            f"key 'eta': over-parameterization needs eta >= 2, got {cfg.eta}"
        )
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as parseable text; parse_config round-trips it."""
    lines = []
    for name, kind in _KINDS.items():
        v = getattr(cfg, name)
        if kind is tuple:
            rendered = ",".join(str(x) for x in v)
        elif kind is bool:
            rendered = "true" if v else "false"
        else:  # str(float) is its shortest round-trip form
            rendered = str(v)
        lines.append(f"{name} = {rendered}")
    return "\n".join(lines) + "\n"
