"""Dataclass configs for experiment runs, loaded from a single JSON file.

One config file describes one run: the stochastic model (horizon, steps,
backend, scheme, seed), the driver with its certificate, the terminal
payoff, and a list of checks with tolerances and expected outcomes.
Expressions appear verbatim in the file in the grammar of
:mod:`bsdelab.expressions`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .certificates import CertificateError, certificate_from_dict
from .expressions import ExpressionError, ParseError
from .generators import Generator, TerminalCondition

__all__ = [
    "ConfigError", "ModelConfig", "CheckConfig", "RunConfig", "load_config",
    "parse_generator", "parse_terminal", "number", "numbers",
]

BACKENDS = ("tree", "mc-regression")
SCHEMES = ("explicit", "implicit")
_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _need(mapping, key, path, kind=None):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def number(mapping, key, path, kind=float, default=_REQUIRED):
    """``mapping[key]`` converted by ``kind``; ``default`` when absent or null.

    Without a ``default`` the key is required.  Errors name ``path.key``.
    """
    where = ".".join(filter(None, (path, key)))
    value = mapping.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(where, "missing")
        return default
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, f"expected {kind.__name__}, got {value!r}") from exc


def numbers(mapping, key, path, kind=float, default=_REQUIRED, length=None):
    """List ``mapping[key]``, each item converted by ``kind``; errors name ``path.key[i]``."""
    values = mapping.get(key, None if default is _REQUIRED else default)
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        what = "a list" if length is None else f"a list of {length}"
        raise ConfigError(".".join(filter(None, (path, key))), f"expected {what}, got {values!r}")
    return [number({f"{key}[{i}]": v}, f"{key}[{i}]", path, kind) for i, v in enumerate(values)]


def _section(raw, path):
    if not isinstance(raw, dict):
        raise ConfigError(path, "missing" if raw is None else "must be an object")
    return raw


def parse_generator(raw, path):
    """Driver section ``{"expr": ..., "certificate": ...}`` found at ``path``."""
    section = _section(raw, path)
    try:
        generator = Generator.parse(_need(section, "expr", path, str))
        if section.get("certificate") is not None:
            generator = generator.with_certificate(certificate_from_dict(section["certificate"]))
    except (ParseError, ExpressionError) as exc:
        raise ConfigError(f"{path}.expr", str(exc)) from exc
    except CertificateError as exc:
        raise ConfigError(f"{path}.certificate", str(exc)) from exc
    return generator


def parse_terminal(raw, path):
    """Terminal section ``{"expr": ..., "bound": ...}`` found at ``path``."""
    section = _section(raw, path)
    source = _need(section, "expr", path, str)
    bound = number(section, "bound", path, default=None)
    try:
        return TerminalCondition.parse(source, bound=bound)
    except (ParseError, ExpressionError) as exc:
        raise ConfigError(f"{path}.expr", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"{path}.bound", str(exc)) from exc


@dataclass(frozen=True)
class ModelConfig:
    horizon: float = 1.0
    steps: int = 200
    backend: str = "tree"
    scheme: str = "explicit"
    seed: int = 0
    paths: int = 20000
    basis_degree: int = 3
    threads: int = 1
    z_clamp: Optional[float] = None

    @classmethod
    def from_dict(cls, raw, path="model"):
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be an object")
        cfg = cls(
            horizon=number(raw, "T", path, float, 1.0),
            steps=number(raw, "N", path, int, 200),
            backend=raw.get("backend", "tree"),
            scheme=raw.get("scheme", "explicit"),
            seed=number(raw, "seed", path, int, 0),
            paths=number(raw, "paths", path, int, 20000),
            basis_degree=number(raw, "basis_degree", path, int, 3),
            threads=number(raw, "threads", path, int, 1),
            z_clamp=number(raw, "z_clamp", path, float, None),
        )
        if cfg.horizon <= 0:
            raise ConfigError(f"{path}.T", "must be > 0")
        if cfg.steps < 1:
            raise ConfigError(f"{path}.N", "must be >= 1")
        if cfg.backend not in BACKENDS:
            raise ConfigError(f"{path}.backend", f"must be one of {BACKENDS}")
        if cfg.scheme not in SCHEMES:
            raise ConfigError(f"{path}.scheme", f"must be one of {SCHEMES}")
        if cfg.threads < 1:
            raise ConfigError(f"{path}.threads", "must be >= 1")
        return cfg


@dataclass(frozen=True)
class CheckConfig:
    kind: str
    tol: Optional[float]
    expect: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw, path):
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be an object")
        kind = _need(raw, "check", path, str)
        expect = raw.get("expect", "pass")
        if expect not in ("pass", "fail"):
            raise ConfigError(f"{path}.expect", "must be 'pass' or 'fail'")
        tol = number(raw, "tol", path, default=None)
        params = {
            k: v for k, v in raw.items() if k not in ("check", "tol", "expect", "name")
        }
        if "name" in raw:
            params["name"] = raw["name"]
        return cls(kind=kind, tol=tol, expect=expect, params=params)


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    generator: Optional[Generator]
    terminal: Optional[TerminalCondition]
    checks: tuple
    bounds: Optional[dict]
    envelope: Optional[dict]
    raw: dict

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        model = ModelConfig.from_dict(raw.get("model", {}))
        generator = parse_generator(raw["generator"], "generator") if "generator" in raw else None
        terminal = parse_terminal(raw["terminal"], "terminal") if "terminal" in raw else None
        checks = []
        raw_checks = raw.get("checks", [])
        if not isinstance(raw_checks, list):
            raise ConfigError("checks", "must be a list")
        for i, item in enumerate(raw_checks):
            checks.append(CheckConfig.from_dict(item, f"checks[{i}]"))
        bounds = raw.get("bounds")
        if bounds is not None and not isinstance(bounds, dict):
            raise ConfigError("bounds", "must be an object")
        envelope = raw.get("envelope")
        if envelope is not None and not isinstance(envelope, dict):
            raise ConfigError("envelope", "must be an object")
        return cls(
            model=model,
            generator=generator,
            terminal=terminal,
            checks=tuple(checks),
            bounds=bounds,
            envelope=envelope,
            raw=raw,
        )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(str(path), "config file not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)
