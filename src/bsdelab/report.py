"""Shared pass/fail record for sampled checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["VerificationReport", "PASS", "FAIL", "INCONCLUSIVE"]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one sampled check.

    ``violation`` is the worst signed margin (positive means the checked
    inequality failed somewhere); ``location`` pins the worst point.  A
    report passes exactly when ``violation <= tolerance``, so a NaN fails;
    ``inconclusive`` is reserved for checks whose own preconditions (a
    certificate, a premise) failed first.
    """

    name: str
    claim: str
    status: str
    violation: float
    location: dict = field(default_factory=dict)
    tolerance: float = 0.0
    notes: tuple = ()

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status != INCONCLUSIVE:
            expected = PASS if self.violation <= self.tolerance else FAIL
            if self.status != expected:
                raise ValueError(
                    f"status {self.status!r} inconsistent with violation "
                    f"{self.violation!r} at tolerance {self.tolerance!r}"
                )

    @property
    def passed(self):
        return self.status == PASS

    @classmethod
    def from_violation(cls, name, claim, violation, location=None, tolerance=0.0, notes=()):
        status = PASS if violation <= tolerance else FAIL
        return cls(name, claim, status, float(violation), location or {}, tolerance, tuple(notes))

    @classmethod
    def inconclusive(cls, name, claim, reason, location=None):
        return cls(name, claim, INCONCLUSIVE, float("nan"), location or {}, 0.0, (reason,))


def worst_gap(pairs):
    """The largest sampled gap over ``(gap, locate)`` pairs, taken in order.

    Returns the gap and ``locate(k)`` at the first sample ``k``, in order, that
    holds the maximum, or the first NaN wherever it lies, as ``np.argmax`` takes
    them within one array: ``k`` indexes an N-d gap's C-order flattening.
    ``-inf`` and ``{}`` when every gap array is empty.
    """
    worst, where = -math.inf, None
    for gap, locate in pairs:
        gap = np.asarray(gap)
        if gap.size:
            k = int(np.argmax(gap))
            value = gap.flat[k]
            # not <= holds for a larger gap and for a NaN; a NaN found stays
            if where is None or not (math.isnan(worst) or value <= worst):
                worst, where = float(value), locate(k)
    return worst, where or {}


def at_samples(**coords):
    """``locate`` for :func:`worst_gap`: the named coordinate arrays, broadcast
    together (flat arrays, or the open mesh of ``np.ix_``), at the C-order flat
    index ``k``."""
    return lambda k: {name: float(c.flat[k])
                      for name, c in zip(coords, np.broadcast_arrays(*coords.values()))}
