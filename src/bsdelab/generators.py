"""Drivers, terminal payoffs and the time-weight functions they depend on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expressions import (
    EvalDomainError,
    Expression,
    ExpressionError,
    Func,
    Num,
    parse_expression,
    parse_univariate,
)

__all__ = [
    "WeightFn",
    "Generator",
    "TerminalCondition",
    "WeightValidationError",
]

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
    """Nonnegative function of time, integrable on the horizon it is used on."""

    expr: Expression

    def __post_init__(self):
        object.__setattr__(self, "expr", _as_univariate(self.expr, hint="t"))

    def __call__(self, t):
        return self.expr(t)

    def validate(self, horizon):
        """Check nonnegativity and integrability on [0, horizon].

        The integral is evaluated by composite Simpson quadrature on
        ``WEIGHT_SAMPLES`` points and on every other one; it must be finite
        and stable within 1% under refinement.  A weight that is negative, or
        cannot be evaluated, at a sample is rejected at the first such sample.
        Sampling evidence only, not a proof.
        """
        if horizon <= 0:
            raise WeightValidationError("horizon must be positive")
        t = np.linspace(0.0, horizon, WEIGHT_SAMPLES)
        try:
            vals = np.asarray(self.expr(t), dtype=float)
        except EvalDomainError:
            for s in t.tolist():
                try:
                    self.expr(s)
                except EvalDomainError as error:
                    raise WeightValidationError(
                        f"weight {self.expr.to_source()} is undefined at t={s:.6g}: {error}"
                    ) from error
            raise
        negative = vals < 0
        if negative.any():
            k = int(np.argmax(negative))
            raise WeightValidationError(
                f"weight is negative at t={t[k]:.6g} (value {vals[k]:.6g})"
            )
        h = t[1] - t[0]
        with np.errstate(over="ignore"):  # an overflow is the non-finite case below
            coarse = _simpson(vals[::2], 2 * h)
            fine = _simpson(vals, h)
        if not np.isfinite(fine):
            raise WeightValidationError("integral is not finite")
        if abs(fine - coarse) > 0.01 * max(abs(fine), 1e-12):
            raise WeightValidationError(
                f"integral not stable under refinement ({coarse:.6g} vs {fine:.6g})"
            )
        return True

    @classmethod
    def parse(cls, source):
        return cls(source)


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
        return TerminalCondition(Expression(root, ("w",)), self.bound)

    @classmethod
    def parse(cls, source, bound=None):
        return cls(parse_expression(source, variables=("w",)), bound)

