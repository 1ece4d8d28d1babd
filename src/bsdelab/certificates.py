"""Growth and continuity certificates for drivers, checked by grid sampling.

Each certificate names the structural condition a driver claims to satisfy
and carries the witness functions appearing in the defining inequality.  A
certificate check evaluates that inequality on a finite sample grid and
reports the worst violation; passing a grid check is evidence, never a
proof.

A grid whose Cartesian product has at most ``cap`` samples is evaluated on its
open mesh (``np.ix_``): each axis is a broadcastable 1-d array, so a
sub-expression of one axis runs on that axis alone and only the combining
operations run on every sample.  A larger grid is thinned to at most ``cap``
samples by ``SampleGrid.product`` and evaluated on those flat arrays.  Either
way the worst sample is the first maximum, or the first NaN, in the C order
of the product, and each value has the bits it has on the flat product.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .expressions import Expression
from .generators import Generator, WeightFn, _as_univariate
from .report import VerificationReport, at_samples, worst_gap

__all__ = [
    "SampleGrid",
    "CertificateError",
    "OneSidedOsgoodY",
    "ContinuityZ",
    "SubLinearDiffZ",
    "OneSidedSuperLinear",
    "QuadGrowth",
    "LocalLipschitzZ",
    "ConvexityZ",
    "OneSidedLinear",
    "MixedSubLinear",
    "check_certificate",
    "check_witnesses",
    "certificate_from_dict",
]

SIDES = ("sgn", "upper_on_nonpos", "lower_on_nonneg", "absolute")


class CertificateError(ValueError):
    """Certificate is malformed or lacks a required witness."""


@dataclass(frozen=True)
class SampleGrid:
    """Finite sampling grid for certificate checks.

    Pairwise conditions combine two copies of the y (or z) axis.  A check
    evaluates the open mesh of its axes when their Cartesian product has at
    most ``cap`` samples, and otherwise the product thinned uniformly to at
    most ``cap`` evaluations (:meth:`product`).
    """

    t_range: tuple = (0.0, 1.0)
    t_count: int = 21
    y_range: tuple = (-5.0, 5.0)
    y_count: int = 51
    z_range: tuple = (-5.0, 5.0)
    z_count: int = 51
    cap: int = 1_000_000

    def __post_init__(self):
        for name in ("t_count", "y_count", "z_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")

    def t_axis(self):
        return np.linspace(*self.t_range, self.t_count)

    def y_axis(self):
        return np.linspace(*self.y_range, self.y_count)

    def z_axis(self):
        return np.linspace(*self.z_range, self.z_count)

    def product(self, *axes):
        """Thinned Cartesian product of the given 1-d axes as flat arrays."""
        shape = tuple(len(a) for a in axes)
        total = math.prod(shape)
        stride = max(1, -(-total // self.cap))
        # a stride sharing a factor with the last axis length would skip some of its values
        while math.gcd(stride, shape[-1]) != 1:
            stride += 1
        flat = np.arange(0, total, stride)
        idx = np.unravel_index(flat, shape)
        return tuple(a[i] for a, i in zip(axes, idx))


# ---------------------------------------------------------------------------
# Certificate kinds


# JSON spells the field ``lam`` as ``lambda``.  A weight's integrability tag
# defaults to L1 unless listed; only the Lq weight takes the certificate's alpha.
_JSON_KEYS = {"lam": "lambda"}
_WEIGHT_TAGS = {"v": "L2", "lam": "Lq"}


def _weight_from(obj, name, alpha):
    tag = _WEIGHT_TAGS.get(name, "L1")
    if isinstance(obj, WeightFn):
        return obj
    if isinstance(obj, dict):
        return WeightFn.parse(obj["expr"], obj.get("tag", tag), obj.get("alpha"))
    return WeightFn.parse(obj, tag, alpha if tag == "Lq" else None)


class _Certificate:
    """Grid check shared by all kinds: each states ``gap(g, ...)``, its left- minus
    right-hand side at sampled points, of the shape the sample arrays broadcast to.
    The parameters after ``g`` name the sample axes, each starting with the grid
    axis it is drawn from (``y1`` from y).  Fields are coerced from their declared
    types (an ``Expression`` of ``t`` for ``f``, else of ``x``; a ``WeightFn`` by
    :func:`_weight_from`); subclasses add range checks."""

    def __post_init__(self):
        for f in sorted(fields(self), key=lambda f: f.type == "WeightFn"):  # weights read alpha
            value = getattr(self, f.name)
            if f.type == "WeightFn":
                value = _weight_from(value, f.name, getattr(self, "alpha", None))
            elif f.type in ("Expression", "Optional[Expression]") and value is not None:
                value = _as_univariate(value, hint="t" if f.name == "f" else "x")
            elif f.type == "float":
                value = float(value)
            elif f.type == "bool" and not isinstance(value, bool):
                raise TypeError(f"{f.name!r} must be true or false, got {value!r}")
            object.__setattr__(self, f.name, value)

    def violation(self, g, grid):
        names = tuple(inspect.signature(self.gap).parameters)[1:]
        axes = [getattr(grid, f"{name[0]}_axis")() for name in names]
        if math.prod(map(len, axes)) <= grid.cap:
            # the open mesh: a sub-expression of one axis runs on that axis alone
            coords = np.ix_(*axes)
        else:
            coords = grid.product(*axes)
        with np.errstate(all="ignore"):  # a gap that overflows is reported, NaN first
            gap = self.gap(g, *coords)
        return worst_gap([(gap, at_samples(**dict(zip(names, coords))))])

    def witness_violation(self, grid):
        return {}


def _modulus_gaps(name, fn, x, cap, cap_label):
    """Gaps of a modulus witness sampled at ``x``: zero at zero, nondecreasing, under ``cap``."""
    r = np.asarray(fn(x))
    return {
        f"{name}(0)=0": abs(float(r[0])),
        f"{name} nondecreasing": float(np.max(-(np.diff(r)))),
        cap_label: float(np.max(r - cap)),
    }


@dataclass(frozen=True)
class OneSidedOsgoodY(_Certificate):
    """(g(t,y1,z) - g(t,y2,z)) sgn(y1-y2) <= u(t) rho(|y1-y2|).

    rho must be nondecreasing with rho(0)=0 and rho(x) <= k (1+x).
    """

    u: WeightFn
    rho: Expression
    rho_growth_k: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.rho_growth_k < 0:
            raise CertificateError("rho growth constant must be >= 0")

    def gap(self, g, t, y1, y2, z):
        lhs = (g(t, y1, z) - g(t, y2, z)) * np.sign(y1 - y2)
        return lhs - self.u(t) * self.rho(np.abs(y1 - y2))

    def witness_violation(self, grid):
        x = np.linspace(0.0, max(abs(grid.y_range[0]), abs(grid.y_range[1])) * 2, 512)
        return _modulus_gaps("rho", self.rho, x, self.rho_growth_k * (1.0 + x), "rho linear growth")


@dataclass(frozen=True)
class ContinuityZ(_Certificate):
    """|g(t,y,z1) - g(t,y,z2)| <= v(t) phi(|z1-z2|) with phi(x) <= a x + b."""

    v: WeightFn
    phi: Expression
    a: float
    b: float

    def __post_init__(self):
        super().__post_init__()
        if self.a < 0 or self.b < 0:
            raise CertificateError("phi envelope slopes a, b must be >= 0")

    def gap(self, g, t, y, z1, z2):
        return np.abs(g(t, y, z1) - g(t, y, z2)) - self.v(t) * self.phi(np.abs(z1 - z2))

    def witness_violation(self, grid):
        x = np.linspace(0.0, (grid.z_range[1] - grid.z_range[0]), 512)
        return _modulus_gaps("phi", self.phi, x, self.a * x + self.b, "phi <= a x + b")


@dataclass(frozen=True)
class SubLinearDiffZ(_Certificate):
    """|g(t,y,z) - g(t,y,0)| <= lambda(t) |z|^alpha (or (f(t)+|y|+|z|)^alpha)."""

    lam: WeightFn
    alpha: float
    f: Optional[Expression] = None

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha < 1.0):
            raise CertificateError("alpha must lie in (0, 1)")

    def gap(self, g, t, y, z):
        base = np.abs(z) if self.f is None else self.f(t) + np.abs(y) + np.abs(z)
        return np.abs(g(t, y, z) - g(t, y, np.zeros_like(z))) - self.lam(t) * base**self.alpha

    def witness_violation(self, grid):
        if self.f is None:
            return {}
        t = grid.t_axis()
        return {"f >= 0": float(np.max(-(np.asarray(self.f(t)))))}


@dataclass(frozen=True)
class OneSidedSuperLinear(_Certificate):
    """g(t,y,z) sgn(y) <= u(t) l(y) + h(y) |z|^2, with l strictly positive."""

    u: WeightFn
    l: Expression
    h: Expression

    def gap(self, g, t, y, z):
        return _side_lhs("sgn", g(t, y, z), y) - (self.u(t) * self.l(y) + self.h(y) * z * z)

    def witness_violation(self, grid):
        y = grid.y_axis()
        lv = np.asarray(self.l(y))
        hv = np.asarray(self.h(y))
        return {
            "l strictly positive": float(np.max(-(lv - 1e-300))),
            "h nonnegative": float(np.max(-hv)),
        }


@dataclass(frozen=True)
class QuadGrowth(_Certificate):
    """|g(t,y,z)| <= u_bar(t) phi_bar(y) + h_bar(y) |z|^2."""

    u_bar: WeightFn
    phi_bar: Expression
    h_bar: Expression

    def gap(self, g, t, y, z):
        return np.abs(g(t, y, z)) - (self.u_bar(t) * self.phi_bar(y) + self.h_bar(y) * z * z)

    def witness_violation(self, grid):
        y = grid.y_axis()
        return {
            "phi_bar nonnegative": float(np.max(-np.asarray(self.phi_bar(y)))),
            "h_bar nonnegative": float(np.max(-np.asarray(self.h_bar(y)))),
        }


@dataclass(frozen=True)
class LocalLipschitzZ(_Certificate):
    """|g(t,y,z1) - g(t,y,z2)| <= (v(t) + |z1| + |z2|) |z1 - z2|."""

    v: WeightFn

    def gap(self, g, t, y, z1, z2):
        rhs = (self.v(t) + np.abs(z1) + np.abs(z2)) * np.abs(z1 - z2)
        return np.abs(g(t, y, z1) - g(t, y, z2)) - rhs


@dataclass(frozen=True)
class ConvexityZ(_Certificate):
    """Midpoint convexity (or concavity) of z -> g(t, y, z) on the grid."""

    convex: bool = True

    def gap(self, g, t, y, z1, z2):
        mid = g(t, y, 0.5 * (z1 + z2))
        avg = 0.5 * (g(t, y, z1) + g(t, y, z2))
        return (mid - avg) if self.convex else (avg - mid)


def _side_lhs(side, val, y):
    """Left-hand side of a side-restricted growth condition for g values ``val``;
    -inf where the side leaves y unconstrained."""
    if side == "sgn":
        return val * np.sign(y)
    if side == "upper_on_nonpos":
        return np.where(y <= 0, val, -np.inf)
    if side == "lower_on_nonneg":
        return np.where(y >= 0, -val, -np.inf)
    return np.abs(val)


class _SideRestricted(_Certificate):
    """Growth bound ``_rhs(t, y, z)`` on the side of the y axis named by the field ``side``."""

    def __post_init__(self):
        super().__post_init__()
        if self.side not in SIDES:
            raise CertificateError(f"side must be one of {SIDES}, got {self.side!r}")

    def gap(self, g, t, y, z):
        return _side_lhs(self.side, g(t, y, z), y) - self._rhs(t, y, z)

    def witness_violation(self, grid):
        return {"f nonnegative": float(np.max(-np.asarray(self.f(grid.t_axis()))))}


@dataclass(frozen=True)
class OneSidedLinear(_SideRestricted):
    """Linear growth restricted to a side of the y axis.

    side 'sgn':              g(t,y,z) sgn(y) <= f(t) + u(t)|y| + v(t)|z|
    side 'upper_on_nonpos':  for y <= 0,  g(t,y,z)   <= rhs
    side 'lower_on_nonneg':  for y >= 0, -g(t,y,z)   <= rhs
    side 'absolute':         |g(t,y,z)|               <= rhs
    """

    f: Expression
    u: WeightFn
    v: WeightFn
    side: str = "sgn"

    def _rhs(self, t, y, z):
        return self.f(t) + self.u(t) * np.abs(y) + self.v(t) * np.abs(z)


@dataclass(frozen=True)
class MixedSubLinear(_SideRestricted):
    """Growth with the wedge modulus min(v(t)|z|, lambda(t)|z|^alpha) in z."""

    f: Expression
    u: WeightFn
    v: WeightFn
    lam: WeightFn
    alpha: float
    side: str = "sgn"

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha < 1.0):
            raise CertificateError("alpha must lie in (0, 1)")

    def _rhs(self, t, y, z):
        az = np.abs(z)
        wedge = np.minimum(self.v(t) * az, self.lam(t) * az**self.alpha)
        return self.f(t) + self.u(t) * np.abs(y) + wedge


CERTIFICATE_KINDS = {
    "one_sided_osgood_y": OneSidedOsgoodY,
    "continuity_z": ContinuityZ,
    "sublinear_diff_z": SubLinearDiffZ,
    "one_sided_super_linear": OneSidedSuperLinear,
    "quad_growth": QuadGrowth,
    "local_lipschitz_z": LocalLipschitzZ,
    "convexity_z": ConvexityZ,
    "one_sided_linear": OneSidedLinear,
    "mixed_sublinear": MixedSubLinear,
}

_KIND_NAMES = {cls: name for name, cls in CERTIFICATE_KINDS.items()}


def check_certificate(g, cert, grid=None):
    """Evaluate the certificate's defining inequality over the sample grid.

    Returns a report whose violation is the largest sampled excess of the
    left-hand side over the right-hand side (positive means failed) together
    with the worst sample point.
    """
    if not hasattr(cert, "violation"):
        raise CertificateError(f"{cert!r} is not a certificate")
    grid = grid or SampleGrid()
    if isinstance(g, Expression):
        g = Generator(g)
    worst, loc = cert.violation(g, grid)
    return VerificationReport.from_violation(
        name=f"certificate:{_KIND_NAMES.get(type(cert), type(cert).__name__)}",
        claim=(type(cert).__doc__ or "").strip().splitlines()[0],
        violation=worst,
        location=loc,
    )


def check_witnesses(cert, grid=None):
    """Check the shape constraints on the certificate's witness functions.

    Monotonicity, zero-at-zero and growth caps are sampled on 1-d grids; the
    report's violation is the worst gap across all constraints.
    """
    grid = grid or SampleGrid()
    gaps = cert.witness_violation(grid)
    if not gaps:
        return VerificationReport.from_violation(
            name="witnesses", claim="no witness shape constraints", violation=0.0
        )
    names = list(gaps)
    worst, where = worst_gap([(list(gaps.values()), lambda k: {"constraint": names[k]})])
    return VerificationReport.from_violation(
        name="witnesses", claim="; ".join(gaps), violation=worst, location=where
    )


def certificate_from_dict(raw):
    """Build a certificate from a plain dict, e.g. from a JSON config.

    The keys are the kind's field names (``lambda`` for ``lam``); fields
    with a default may be left out.  An unknown key, or a flag that is not a
    JSON boolean, is a :class:`CertificateError` naming the key.
    """
    if "kind" not in raw:
        raise CertificateError("certificate dict needs a 'kind'")
    kind = raw["kind"]
    if kind not in CERTIFICATE_KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    cls = CERTIFICATE_KINDS[kind]
    keys = {_JSON_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(raw) - set(keys) - {"kind"})
    if unknown:
        raise CertificateError(f"certificate kind {kind!r} has unknown key {unknown[0]!r}")
    try:
        # every key is looked up before any value is converted
        values = {f.name: raw[key] for key, f in keys.items() if f.default is MISSING or key in raw}
        return cls(**values)
    except KeyError as exc:
        raise CertificateError(f"certificate kind {kind!r} lacks witness {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"certificate kind {kind!r}: {exc}") from exc
