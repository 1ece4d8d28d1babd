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
import operator
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Annotated, Literal, Optional

from .certificates import CERTIFICATE_KINDS, CertificateError
from .expressions import Expression, ExpressionError
from .generators import Generator, TerminalCondition, WeightFn, _as_univariate

__all__ = [
    "ConfigError", "ModelConfig", "CheckConfig", "RunConfig", "load_config", "parse_generator",
    "parse_certificate", "parse_terminal", "bind", "read", "Rule", "Above", "AtLeast", "Finite",
    "Odd", "Real", "Positive", "NonNegative", "Tol", "Count", "Seed",
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


class Rule(typing.NamedTuple):
    """A range marker of ``Annotated[X, *rules]``: ``test(item, *args)`` holds
    for a value read as ``X``, or for each of its items, or the error says
    "must be" and the rules' ``text`` joined by "and".  A rule holds no
    function of this module: ``typing`` caches each ``Annotated[...]``, and
    that would keep every import of the module alive."""

    test: typing.Callable
    text: str
    args: tuple = ()


def Above(bound):
    return Rule(operator.gt, f"> {bound}", (bound,))


def AtLeast(bound):
    return Rule(operator.ge, f">= {bound}", (bound,))


Finite = Rule(math.isfinite, "finite")
Odd = Rule(operator.and_, "odd", (1,))
Real = Annotated[float, Finite]
Positive = Annotated[float, Finite, Above(0)]
NonNegative = Annotated[float, Finite, AtLeast(0)]
Tol = NonNegative  # every check's tolerance, and --tol
Count = Annotated[int, AtLeast(1)]
Seed = Annotated[int, Rule(range(2**64).__contains__, "an integer in [0, 2^64)")]


def read(kind, value, path):
    """``value`` read as a key of type ``kind`` is; errors name ``path``."""
    return _read(kind, {path: value}, path, "", None)


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
        generator = Generator.parse(_read(str, section, "expr", path, _REQUIRED))
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
    source = _read(str, section, "expr", path, _REQUIRED)
    bound = _read(NonNegative, section, "bound", path, None)
    try:
        return TerminalCondition.parse(source, bound=bound)
    except ExpressionError as exc:
        raise ConfigError(f"{path}.expr", str(exc)) from exc


def bind(fn, mapping, path, common=()):
    """Keyword arguments for ``fn``, read from ``mapping`` by its keyword-only parameters.

    A parameter's annotation picks the parser: ``float`` or ``int`` (a
    number, not a boolean, a NaN or, for ``int``, a fraction), ``list[X]`` or
    ``tuple[X, X]`` (each item as ``X``, named ``key[i]``), ``Generator`` or
    ``TerminalCondition`` (their section parsers), ``Expression`` or
    ``WeightFn`` (a one-variable expression, or a number), ``bool`` (true or
    false), ``Literal[...]`` (one of its values), ``Optional[X]`` (as ``X``),
    ``Annotated[X, *rules]`` (as ``X``, then each :class:`Rule` on the value,
    or on each item of a list or tuple, unless it is None), a function (an object whose keys are the
    function's, passed to it); any other value is taken as it is.  A
    parameter without a default is a required key, and ``**rest: f`` adds
    the keys of function ``f``.  A key that names no parameter, nor one of
    ``common``, is an error.  Errors name ``path.key``.
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
    where = _at(path, key)
    if origin is typing.Union:  # Optional[X]
        return _read(args[0], mapping, key, path, default)
    if origin is Annotated:
        value = _read(args[0], mapping, key, path, default)
        items = value if isinstance(value, (list, tuple)) else [value]
        if value is not None and not all(rule.test(item, *rule.args)
                                         for rule in args[1:] for item in items):
            raise ConfigError(where, "must be " + " and ".join(rule.text for rule in args[1:]))
        return value
    value = mapping.get(key, default)
    if value is None and kind in (float, int):  # a number given as null takes its default
        value = default
    if value is _REQUIRED or value is None and default is _REQUIRED:
        raise ConfigError(where, "missing")
    if kind in (float, int) and value is not None:
        try:
            fractional = kind is int and isinstance(value, float) and not value.is_integer()
            if isinstance(value, bool) or fractional:
                raise TypeError(value)
            value = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(where, f"expected {kind.__name__}, got {value!r}") from exc
        if value != value:  # NaN compares false with every bound, and would pass every check
            raise ConfigError(where, "must not be NaN")
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)) or origin is tuple and len(value) != len(args):
            what = "a list" if origin is list else f"a list of {len(args)}"
            raise ConfigError(where, f"expected {what}, got {value!r}")
        return origin(_read(args[0], {f"{key}[{i}]": v}, f"{key}[{i}]", path, _REQUIRED)
                      for i, v in enumerate(value))
    if kind in (Generator, TerminalCondition):
        parse = parse_generator if kind is Generator else parse_terminal
        return parse(value, where)
    if kind in (Expression, WeightFn) and value is not None:
        try:
            expr = _as_univariate(value, "t")
        except (ExpressionError, TypeError) as exc:
            raise ConfigError(where, str(exc)) from exc
        return WeightFn(expr) if kind is WeightFn else expr
    if kind in (bool, str) and not isinstance(value, kind):
        raise ConfigError(where, "must be a string" if kind is str else "must be true or false")
    if inspect.isfunction(kind) and value is not None:
        return kind(**bind(kind, _section(value, where), where))
    if origin is Literal and value not in args:
        raise ConfigError(where, f"must be one of {args}")
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

    @staticmethod
    def keys(*, T: Positive = 1.0, N: Count = 200,
             backend: Literal["tree", "mc-regression"] = "tree",
             scheme: Literal["explicit", "implicit"] = "explicit", seed: Seed = 0,
             paths: int = 20000, basis_degree: int = 3, threads: Count = 1,
             z_clamp: Annotated[float, Above(0)] = None):
        """The model section's keys, with their types, ranges and defaults."""
        return ModelConfig(T, N, backend, scheme, seed, paths, basis_degree, threads, z_clamp)

    @classmethod
    def from_dict(cls, raw, path="model", base=None):
        """The model section at ``path``, its keys laid over those of ``base``."""
        cfg = cls.keys(**bind(cls.keys, {**(base or {}), **_section(raw, path)}, path))
        for key, ok, message in cfg.rules():
            if not ok:
                raise ConfigError(_at(path, key), message)
        return cfg

    def rules(self):
        """``(key, ok, message)`` for each rule that spans keys; each key's range is its marker."""
        if self.backend != "mc-regression":
            return []
        return [("basis_degree", self.basis_degree >= 1, "must be >= 1 under mc-regression"),
                ("paths", self.paths >= 10 * (self.basis_degree + 1),
                 "must be at least 10 (basis_degree + 1) under mc-regression")]


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
        kind = _read(str, raw, "check", path, _REQUIRED)
        expect = raw.get("expect", "pass")
        if expect not in ("pass", "fail"):
            raise ConfigError(f"{path}.expect", "must be 'pass' or 'fail'")
        _read(str, raw, "name", path, "")
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
