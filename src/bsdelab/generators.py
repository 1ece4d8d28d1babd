"""Drivers, terminal payoffs and the time-weight functions they depend on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expressions import (
    Expression,
    ExpressionError,
    Func,
    Neg,
    Num,
    Var,
    parse_expression,
    parse_univariate,
)

__all__ = [
    "WeightFn",
    "Generator",
    "TerminalCondition",
    "WeightValidationError",
    "dual_generator",
    "truncate_generator",
]

WEIGHT_TAGS = ("L1", "L2", "L1&L2", "Lq")
# WeightFn.validate samples [0, horizon] at this many points (odd, for Simpson's rule)
WEIGHT_SAMPLES = 2049


class WeightValidationError(ValueError):
    pass


def _as_univariate(fn, hint="x"):
    if isinstance(fn, Expression):
        if len(fn.variables) != 1:
            raise ExpressionError(f"expected a one-variable expression, got {fn!r}")
        return fn
    if isinstance(fn, str):
        return parse_univariate(fn, var_hint=hint)
    if isinstance(fn, (int, float)):
        return Expression(Num(float(fn)), (hint,))
    raise TypeError(f"cannot interpret {fn!r} as a one-variable function")


def _simpson(values, h):
    n = len(values) - 1
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(values * w) * h / 3.0)


@dataclass(frozen=True)
class WeightFn:
    """Nonnegative function of time with a declared integrability class.

    ``tag`` is one of ``L1`` (integrable), ``L2`` (square integrable),
    ``L1&L2`` (both) or ``Lq`` (the exponent ``2/(2 - alpha)`` class used with
    sub-linear continuity moduli, requiring ``alpha``).
    """

    expr: Expression
    tag: str = "L1"
    alpha: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "expr", _as_univariate(self.expr, hint="t"))
        if self.tag not in WEIGHT_TAGS:
            raise WeightValidationError(f"unknown integrability tag {self.tag!r}")
        if self.tag == "Lq":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise WeightValidationError("Lq tag requires alpha in (0, 1)")

    def __call__(self, t):
        return self.expr(t)

    def _integrand_powers(self):
        if self.tag == "L1":
            return (1.0,)
        if self.tag == "L2":
            return (2.0,)
        if self.tag == "L1&L2":
            return (1.0, 2.0)
        return (2.0 / (2.0 - self.alpha),)

    def validate(self, horizon):
        """Check nonnegativity on [0, horizon] and the declared integrability.

        The integral of the tagged power is evaluated by composite Simpson
        quadrature on ``WEIGHT_SAMPLES`` points and on every other one; it
        must be finite and stable within 1% under refinement.  Sampling
        evidence only, not a proof.
        """
        if horizon <= 0:
            raise WeightValidationError("horizon must be positive")
        t = np.linspace(0.0, horizon, WEIGHT_SAMPLES)
        vals = np.asarray(self.expr(t), dtype=float)
        if np.any(vals < 0):
            k = int(np.argmin(vals))
            raise WeightValidationError(
                f"weight is negative at t={t[k]:.6g} (value {vals[k]:.6g})"
            )
        h = t[1] - t[0]
        for p in self._integrand_powers():
            coarse = _simpson(vals[::2] ** p, 2 * h)
            fine = _simpson(vals**p, h)
            if not np.isfinite(fine):
                raise WeightValidationError(f"integral of power {p} is not finite")
            if abs(fine - coarse) > 0.01 * max(abs(fine), 1e-12):
                raise WeightValidationError(
                    f"integral of power {p} not stable under refinement "
                    f"({coarse:.6g} vs {fine:.6g})"
                )
        return True

    @classmethod
    def parse(cls, source, tag="L1", alpha=None):
        return cls(_as_univariate(source, hint="t"), tag, alpha)

    @classmethod
    def constant(cls, value, tag="L1&L2", alpha=None):
        return cls(Expression(Num(float(value)), ("t",)), tag, alpha)


@dataclass(frozen=True)
class Generator:
    """A driver g(t, y, z), optionally carrying an assumption certificate."""

    expr: Expression
    certificate: object = None

    def __post_init__(self):
        if isinstance(self.expr, str):
            object.__setattr__(self, "expr", parse_expression(self.expr))
        extra = self.expr.free_variables() - {"t", "y", "z"}
        if extra:
            raise ExpressionError(f"generator may only reference t, y, z; got {sorted(extra)}")
        if self.expr.variables != ("t", "y", "z"):
            object.__setattr__(self, "expr", self.expr.rebind(("t", "y", "z")))

    def __call__(self, t, y, z):
        return self.expr(t, y, z)

    def with_certificate(self, certificate):
        return Generator(self.expr, certificate)

    def to_source(self):
        return self.expr.to_source()

    @classmethod
    def parse(cls, source, certificate=None):
        return cls(parse_expression(source), certificate)


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal payoff xi = phi(B_T) as a function of the terminal Brownian value."""

    expr: Expression
    bound: Optional[float] = None

    def __post_init__(self):
        if isinstance(self.expr, str):
            object.__setattr__(self, "expr", parse_expression(self.expr, variables=("w",)))
        extra = self.expr.free_variables() - {"w"}
        if extra:
            raise ExpressionError(f"terminal payoff may only reference w; got {sorted(extra)}")
        if self.expr.variables != ("w",):
            object.__setattr__(self, "expr", self.expr.rebind(("w",)))
        if self.bound is not None and self.bound < 0:
            raise ValueError("declared bound must be nonnegative")

    def __call__(self, w):
        return self.expr(w)

    def check_bound(self, w_samples):
        """Assert |phi(w)| <= declared bound on the given samples."""
        if self.bound is None:
            return True
        vals = np.abs(np.asarray(self.expr(np.asarray(w_samples, dtype=float))))
        worst = float(np.max(vals)) if vals.size else 0.0
        if worst > self.bound:
            raise ValueError(
                f"terminal payoff exceeds declared bound: |phi| reaches {worst:.6g} "
                f"> {self.bound:.6g}"
            )
        return True

    def truncated_above(self, level):
        """Payoff min(phi(w), level), used by monotone-approximation runs."""
        root = Func("min", (self.expr.root, Num(float(level))))
        bound = self.bound if self.bound is not None else None
        return TerminalCondition(Expression(root, ("w",)), bound)

    @classmethod
    def parse(cls, source, bound=None):
        return cls(parse_expression(source, variables=("w",)), bound)


def dual_generator(g):
    """AST rewrite of g into (t, y, z) -> -g(t, -y, -z).

    The rewrite is an involution at the evaluation level: applying it twice
    yields a generator that evaluates bit-identically to the original.
    """
    flipped = g.expr.substitute({"y": Neg(Var("y")), "z": Neg(Var("z"))})
    return Generator(Expression(Neg(flipped.root), g.expr.variables))


def truncate_generator(g, level):
    """AST rewrite of g into (t, y, z) -> g(t, clamp(y, -K, K), z)."""
    if not level > 0:
        raise ValueError("truncation level must be positive")
    k = float(level)
    clamped = Func("clamp", (Var("y"), Neg(Num(k)), Num(k)))
    rewritten = g.expr.substitute({"y": clamped})
    return Generator(rewritten)
