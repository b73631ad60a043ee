"""Training configuration: flat key=value files, CLI overrides,
environment seed override.

The keys are TrainingConfig's fields; `train` is the one subcommand that
reads a config file.  Precedence, lowest to highest: dataclass defaults,
config file, CLI flags, the PATCHLOOM_SEED environment variable.
Unknown keys are errors so typos fail loudly instead of silently running
defaults.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .training import TrainingConfig

SEED_ENV_VAR = "PATCHLOOM_SEED"


class ConfigError(ValueError):
    pass


def _coerce(name: str, raw: str, target_type) -> object:
    try:
        return target_type(raw.strip())
    except ValueError:
        raise ConfigError(
            f"bad value {raw.strip()!r} for key {name!r} "
            f"(expected {target_type.__name__})") from None


_TYPE_NAMES = {"int": int, "float": float}


def _field_types() -> dict[str, type]:
    return {f.name: _TYPE_NAMES[f.type] for f in fields(TrainingConfig)}


def parse_config_text(text: str) -> dict[str, object]:
    types = _field_types()
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, types[key])
    return values


def load_config(path: str | None = None,
                overrides: dict[str, object] | None = None) -> TrainingConfig:
    values: dict[str, object] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        values.update(parse_config_text(text))
    if overrides:
        types = _field_types()
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        values["seed"] = _coerce("seed", env_seed, int)
    try:
        return TrainingConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
