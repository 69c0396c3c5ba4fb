"""Flat key-value run configuration (INI sections, strict keys)."""

from __future__ import annotations

import configparser
from typing import Mapping

from .errors import ConfigError

# Known keys per section, each one read by the command line.  Unknown
# sections or keys are rejected so that a typo cannot silently fall back to a
# default.
SCHEMA: dict[str, set[str]] = {
    "run": {"workers"},
    "learner": {"k", "tie_policy", "fallback"},
    "chunker": {
        "representations",
        "default_type",
        "pass1.IOB1",
        "pass2.IOB1",
        "pass1.IOB2",
        "pass2.IOB2",
        "pass1.IOE1",
        "pass2.IOE1",
        "pass1.IOE2",
        "pass2.IOE2",
        "pass1.O",
        "pass2.O",
        "pass1.C",
        "pass2.C",
        "type_strategy",
    },
    "parser": {"max_levels", "np_levels", "level_template", "k"},
    "eval": {"beta"},
}

Config = dict[str, dict[str, str]]


def load_config(path) -> Config:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = {section: dict(parser[section]) for section in parser.sections()}
    validate_config(cfg)
    return cfg


def validate_config(cfg: Config) -> None:
    problems = []
    for section, values in cfg.items():
        if section not in SCHEMA and not values:
            problems.append(f"unknown section [{section}]")
        known = SCHEMA.get(section, ())
        problems.extend(f"unknown key {section}.{key}" for key in values if key not in known)
    if problems:
        raise ConfigError("invalid configuration: " + ", ".join(problems))


def apply_overrides(cfg: Config, overrides: Mapping[str, str]) -> Config:
    """Overlay "section.key=value" pairs (command-line flags win)."""
    out = {s: dict(v) for s, v in cfg.items()}
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        if not key:
            raise ConfigError(f"override {dotted!r} is not of the form section.key")
        out.setdefault(section, {})[key] = value
    validate_config(out)
    return out


def get(cfg: Config, section: str, key: str, default: str | None = None) -> str | None:
    return cfg.get(section, {}).get(key, default)


def get_int(cfg: Config, section: str, key: str, default: int) -> int:
    raw = get(cfg, section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from None


def get_float(cfg: Config, section: str, key: str, default: float) -> float:
    raw = get(cfg, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from None


def to_enum(enum, raw: str, name: str):
    """``enum(raw)``, or a ConfigError naming the key or flag ``name``."""
    try:
        return enum(raw)
    except ValueError:
        choices = ", ".join(m.value for m in enum)
        raise ConfigError(f"{name} must be one of {choices}, got {raw!r}") from None


def get_bool(cfg: Config, section: str, key: str, default: bool) -> bool:
    raw = get(cfg, section, key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ConfigError(f"{section}.{key} must be a boolean, got {raw!r}")
