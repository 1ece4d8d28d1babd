"""Dataclass configs for experiment runs, loaded from a single JSON file.

One config file describes one run: the stochastic model (horizon, steps,
backend, scheme, seed), the driver with its certificate, the terminal
payoff, and a list of checks with tolerances and expected outcomes.
Expressions appear verbatim in the file in the grammar of
:mod:`bsdelab.expressions`.
"""

from __future__ import annotations

import inspect
import json
import math
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Literal, Optional

from .certificates import CERTIFICATE_KINDS, CertificateError
from .expressions import Expression, ExpressionError
from .generators import Generator, TerminalCondition, WeightFn, _as_univariate

__all__ = [
    "ConfigError", "ModelConfig", "CheckConfig", "RunConfig", "load_config", "parse_generator",
    "parse_certificate", "parse_terminal", "number", "numbers", "bind", "require",
]

_REQUIRED = inspect.Parameter.empty  # what a parameter without a default holds
_JSON_KEYS = {"lam": "lambda"}  # a certificate field's key, where it is not the field's name


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _at(path, key):
    return ".".join(filter(None, (path, key)))


def _need(mapping, key, path, kind=None):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def number(mapping, key, path, kind=float, default=_REQUIRED):
    """``mapping[key]`` converted by ``kind``; ``default`` when absent or null.

    Without a ``default`` the key is required.  A boolean, a NaN, or a
    fractional value for an ``int``, is an error; errors name ``path.key``.
    """
    where = _at(path, key)
    value = mapping.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(where, "missing")
        return default
    try:
        fractional = kind is int and isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) or fractional:
            raise TypeError(value)
        value = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, f"expected {kind.__name__}, got {value!r}") from exc
    if value != value:  # NaN compares false with every bound, and would pass every check
        raise ConfigError(where, "must not be NaN")
    return value


def numbers(mapping, key, path, kind=float, default=_REQUIRED, length=None):
    """List ``mapping[key]``, each item converted by ``kind``; errors name ``path.key[i]``."""
    values = mapping.get(key, None if default is _REQUIRED else default)
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        what = "a list" if length is None else f"a list of {length}"
        raise ConfigError(_at(path, key), f"expected {what}, got {values!r}")
    return [number({f"{key}[{i}]": v}, f"{key}[{i}]", path, kind) for i, v in enumerate(values)]


def require(path, *rules):
    """Raise a :class:`ConfigError` at ``path.key`` for the first failing ``(key, ok, message)``."""
    for key, ok, message in rules:
        if not ok:
            raise ConfigError(_at(path, key), message)


def _section(raw, path):
    if not isinstance(raw, dict):
        raise ConfigError(path, "missing" if raw is None else "must be an object")
    return raw


def _known(mapping, path, names, common=()):
    """A key of ``mapping`` in neither ``names`` nor ``common`` is an error at ``path.key``."""
    unknown = [key for key in mapping if key not in names and key not in common]
    if unknown:
        raise ConfigError(_at(path, unknown[0]), f"unknown key; expected one of {names}")


def parse_generator(raw, path):
    """Driver section ``{"expr": ..., "certificate": ...}`` found at ``path``."""
    section = _section(raw, path)
    _known(section, path, ["expr", "certificate"])
    try:
        generator = Generator.parse(_need(section, "expr", path, str))
    except ExpressionError as exc:
        raise ConfigError(f"{path}.expr", str(exc)) from exc
    certificate = section.get("certificate")
    if certificate is None:
        return generator
    return generator.with_certificate(parse_certificate(certificate, f"{path}.certificate"))


def parse_certificate(raw, path):
    """Certificate section ``{"kind": ..., ...}`` found at ``path``.

    The other keys are the kind's fields (``lambda`` for ``lam``), each read
    by its declared type; a field with a default may be left out.
    """
    section = _section(raw, path)
    kind = _read(Literal[tuple(CERTIFICATE_KINDS)], section, "kind", path, _REQUIRED)
    cls = CERTIFICATE_KINDS[kind]
    keys = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    _known(section, path, list(keys), ("kind",))
    types = typing.get_type_hints(cls)
    values = {f.name: _read(types[f.name], section, key, path,
                            _REQUIRED if f.default is MISSING else f.default)
              for key, f in keys.items()}
    try:
        return cls(**values)
    except CertificateError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_terminal(raw, path):
    """Terminal section ``{"expr": ..., "bound": ...}`` found at ``path``."""
    section = _section(raw, path)
    _known(section, path, ["expr", "bound"])
    source = _need(section, "expr", path, str)
    bound = number(section, "bound", path, default=None)
    try:
        return TerminalCondition.parse(source, bound=bound)
    except ExpressionError as exc:
        raise ConfigError(f"{path}.expr", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"{path}.bound", str(exc)) from exc


def bind(fn, mapping, path, common=()):
    """Keyword arguments for ``fn``, read from ``mapping`` by its keyword-only parameters.

    A parameter's annotation picks the parser: ``float`` or ``int``
    (:func:`number`), ``list[float]`` or ``tuple[float, float]``
    (:func:`numbers`), ``Generator`` or ``TerminalCondition`` (their section
    parsers), ``Expression`` or ``WeightFn`` (a one-variable expression, or a
    number), ``bool`` (true or false), ``Literal[...]`` (one of its values),
    ``Optional[X]`` (as ``X``), ``dict`` (an object), a function (an object
    whose keys are the function's, passed to it); any other value is taken
    as it is.  A parameter without a default is a required key, and
    ``**rest: f`` adds the keys of function ``f``.  A key that names no
    parameter, nor one of ``common``, is an error.  Errors name ``path.key``.
    """
    params = list(_keywords(fn))
    _known(mapping, path, [p.name for p in params], common)
    return {p.name: _read(p.annotation, mapping, p.name, path, p.default) for p in params}


def _keywords(fn):
    for p in inspect.signature(fn, eval_str=True).parameters.values():
        if p.kind is p.KEYWORD_ONLY:
            yield p
        elif p.kind is p.VAR_KEYWORD and p.annotation is not p.empty:
            yield from _keywords(p.annotation)


def _read(kind, mapping, key, path, default):
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union:  # Optional[X]
        return _read(args[0], mapping, key, path, default)
    if kind in (float, int):
        return number(mapping, key, path, kind, default)
    if origin is list:
        return numbers(mapping, key, path, args[0], default)
    if origin is tuple:
        return tuple(numbers(mapping, key, path, args[0], default, len(args)))
    if kind in (Generator, TerminalCondition):
        parse = parse_generator if kind is Generator else parse_terminal
        return parse(mapping.get(key), _at(path, key))
    value = mapping.get(key, default)
    if value is _REQUIRED or value is None and default is _REQUIRED:
        raise ConfigError(_at(path, key), "missing")
    if kind in (Expression, WeightFn) and value is not None:
        try:
            expr = _as_univariate(value, "t")
        except (ExpressionError, TypeError) as exc:
            raise ConfigError(_at(path, key), str(exc)) from exc
        return WeightFn(expr) if kind is WeightFn else expr
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(_at(path, key), "must be true or false")
    if inspect.isfunction(kind) and value is not None:
        return kind(**bind(kind, _section(value, _at(path, key)), _at(path, key)))
    if origin is Literal and value not in args:
        raise ConfigError(_at(path, key), f"must be one of {args}")
    if kind is dict and not isinstance(value, (dict, type(None))):
        raise ConfigError(_at(path, key), "must be an object")
    return value


@dataclass(frozen=True)
class ModelConfig:
    horizon: float
    steps: int
    backend: str
    scheme: str
    seed: int
    paths: int
    basis_degree: int
    threads: int
    z_clamp: Optional[float]

    @classmethod
    def from_dict(cls, raw, path="model", base=None):
        """The model section at ``path``, its keys laid over those of ``base``."""

        def keys(
            *, T: float = 1.0, N: int = 200, backend: Literal["tree", "mc-regression"] = "tree",
            scheme: Literal["explicit", "implicit"] = "explicit", seed: int = 0,
            paths: int = 20000, basis_degree: int = 3, threads: int = 1, z_clamp: float = None,
        ):
            return cls(T, N, backend, scheme, seed, paths, basis_degree, threads, z_clamp)

        cfg = keys(**bind(keys, {**(base or {}), **_section(raw, path)}, path))
        require(path, *cfg.rules())
        return cfg

    def rules(self):
        """``(key, ok, message)`` for each rule of a model, as :func:`require` takes them."""
        rules = [
            ("T", math.isfinite(self.horizon) and self.horizon > 0, "must be finite and > 0"),
            ("N", self.steps >= 1, "must be >= 1"),
            ("seed", 0 <= self.seed < 2**64, "must be an integer in [0, 2^64)"),
            ("threads", self.threads >= 1, "must be >= 1"),
            ("z_clamp", self.z_clamp is None or self.z_clamp > 0, "must be > 0"),
        ]
        if self.backend == "mc-regression":
            rules += [
                ("basis_degree", self.basis_degree >= 1, "must be >= 1 under mc-regression"),
                ("paths", self.paths >= 10 * (self.basis_degree + 1),
                 "must be at least 10 (basis_degree + 1) under mc-regression"),
            ]
        return rules


@dataclass(frozen=True)
class CheckConfig:
    """One check: its kind, the expected outcome, and every other key as given."""

    kind: str
    expect: str
    params: dict

    @classmethod
    def from_dict(cls, raw, path):
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be an object")
        kind = _need(raw, "check", path, str)
        expect = raw.get("expect", "pass")
        if expect not in ("pass", "fail"):
            raise ConfigError(f"{path}.expect", "must be 'pass' or 'fail'")
        if not isinstance(raw.get("name", ""), str):
            raise ConfigError(f"{path}.name", "must be a string")
        params = {k: v for k, v in raw.items() if k not in ("check", "expect")}
        return cls(kind=kind, expect=expect, params=params)

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
        _known(raw, "", ["model", "generator", "terminal", "checks", "bounds", "envelope"])
        raw_checks = raw.get("checks", [])
        if not isinstance(raw_checks, list):
            raise ConfigError("checks", "must be a list")
        for key in ("bounds", "envelope"):
            if raw.get(key) is not None and not isinstance(raw[key], dict):
                raise ConfigError(key, "must be an object")
        model = ModelConfig.from_dict(raw.get("model", {}))
        generator = parse_generator(raw["generator"], "generator") if "generator" in raw else None
        terminal = parse_terminal(raw["terminal"], "terminal") if "terminal" in raw else None
        checks = tuple(CheckConfig.from_dict(c, f"checks[{i}]") for i, c in enumerate(raw_checks))
        return cls(
            model=model,
            generator=generator,
            terminal=terminal,
            checks=checks,
            bounds=raw.get("bounds"),
            envelope=raw.get("envelope"),
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
