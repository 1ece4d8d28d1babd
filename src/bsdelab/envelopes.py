"""Penalised-supremum regularisations of moduli and drivers.

The one-dimensional form turns a nondecreasing modulus ``psi`` into the
smallest K-Lipschitz function dominating it,

    psi_K(x) = sup_{y >= 0} { psi(y) - K |x - y| },

finite whenever K exceeds the certified linear-growth slope of ``psi``.  The
driver form penalises jointly in (y, z),

    g_n(t, y, z) = sup_{u, v} { g(t, u, v) - n u_w(t)|y - u| - n v_w(t)|z - v| },

with an optional wedge penalty min(v_w|dz|, lam_w|dz|^alpha) in z.  Both are
computed by a coarse scan followed by golden-section refinement inside a
truncation box sized from the certified growth bound so that the box provably
contains every maximiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import MixedSubLinear, OneSidedLinear
from .generators import WeightFn, _as_univariate

__all__ = [
    "EnvelopeGrid",
    "EnvelopeError",
    "LinearGrowthBound",
    "WedgeGrowthBound",
    "linearize_phi",
    "lipschitz_envelope",
    "LipschitzEnvelope",
    "sup_convolution_generator",
    "sup_convolution_generator_alpha",
    "envelope_family_values",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class EnvelopeError(ValueError):
    pass


@dataclass(frozen=True)
class EnvelopeGrid:
    """Search-domain discretisation: base radius, node count, refine passes."""

    radius: float = 100.0
    nodes: int = 2001
    passes: int = 3

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if self.nodes < 3:
            raise ValueError("need at least 3 nodes")
        if self.nodes % 2 == 0:
            raise ValueError("node count must be odd so 0 is a node")
        if self.passes < 0:
            raise ValueError("passes must be >= 0")


def linearize_phi(phi, a, b, n, x):
    """Linear-plus-offset majorant of a nondecreasing modulus.

    With c = a + b, returns (n + 2c) x + [b != 0] phi(2c / (n + 2c)), which
    dominates phi(x) for every x >= 0 whenever phi is nondecreasing with
    phi(x) <= a x + b.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr < 0):
        raise ValueError("x must be >= 0")
    phi = _as_univariate(phi)
    c = a + b
    offset = float(phi(2.0 * c / (n + 2.0 * c))) if b != 0 else 0.0
    out = (n + 2.0 * c) * xarr + offset
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _golden_argmax(f, lo, hi, iters=64):
    """Vectorised golden-section maximisation of f on [lo, hi] per element.

    Both probe points go through f in one stacked call per iteration, which
    matters when f is an interpreted expression with per-call overhead.  The
    probes share one buffer and the brackets shrink in place, so a step
    allocates nothing but f's own result.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    m = a.size
    probes = np.empty(2 * m)
    c, d = probes[:m], probes[m:]
    span = np.empty(m)
    keep_left = np.empty(m, dtype=bool)
    for _ in range(iters):
        np.multiply(np.subtract(b, a, out=span), _GOLDEN, out=span)
        np.subtract(b, span, out=c)
        np.add(a, span, out=d)
        vals = np.asarray(f(probes))
        np.greater(vals[:m], vals[m:], out=keep_left)
        np.copyto(b, d, where=keep_left)
        np.copyto(a, c, where=~keep_left)
    mid = 0.5 * (a + b)
    return mid, np.asarray(f(mid))


def _prefix_argmax(values, ties):
    """Per row and column i, the index of the maximum of values[:, :i + 1]:
    the first index among equal maxima if ``ties`` is "first", else the last."""
    run = np.maximum.accumulate(values, axis=1)
    cols = np.arange(values.shape[1])
    if ties == "last":
        return np.maximum.accumulate(np.where(values == run, cols, 0), axis=1)
    rises = np.ones(values.shape, dtype=bool)
    np.greater(values[:, 1:], run[:, :-1], out=rises[:, 1:])
    return np.maximum.accumulate(np.where(rises, cols, 0), axis=1)


class LipschitzEnvelope:
    """Callable x -> sup_{y >= 0} { psi(y) - K|x - y| } for x >= 0.

    The search interval [0, R(x)] is extended analytically until the
    certified growth bound psi(y) <= k (1 + y) forces the objective below
    psi(x), so truncation never cuts a maximiser.  The candidate y = x is
    always included, hence the result dominates psi pointwise.

    ``slope`` is a number, or a 1-d array with one slope per row of a 2-d
    ``x``; each row then gets its own search interval and grid.
    """

    def __init__(self, psi, slope, growth_k, grid=None):
        self.psi = _as_univariate(psi)
        self.slope = float(slope) if np.ndim(slope) == 0 else np.asarray(slope, dtype=float)
        self.growth_k = float(growth_k)
        self.grid = grid or EnvelopeGrid()
        if self.growth_k < 0:
            raise EnvelopeError("growth slope must be >= 0")
        if np.ndim(self.slope) > 1 or np.size(self.slope) == 0:
            raise EnvelopeError("slope must be a number or a 1-d array of row slopes")
        if np.any(self.slope <= self.growth_k):
            raise EnvelopeError(
                f"penalty slope {np.min(self.slope)} must exceed the certified growth "
                f"slope {self.growth_k}; the supremum is infinite otherwise"
            )

    def _radius(self, xmax):
        analytic = (self.growth_k + self.slope * xmax + 1.0) / (self.slope - self.growth_k)
        return np.maximum(np.maximum(self.grid.radius, analytic), xmax + 1.0)

    def batch(self, x):
        """Envelope values at every x >= 0, shaped like x.

        Per point, the best grid node y_k comes from two max-plus sweeps: the
        running maximum of psi(y) + K y from the left serves the nodes at or
        below x, that of psi(y) - K y from the right the nodes at or above
        it (Felzenszwalb & Huttenlocher 2012).  Golden section then refines
        inside [y_{k-1}, y_{k+1}].
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise EnvelopeError("the envelope is defined on x >= 0")
        if x.size == 0:
            return np.zeros_like(x)
        if np.ndim(self.slope) == 1:
            if x.ndim != 2 or len(x) != len(self.slope):
                raise EnvelopeError(
                    f"{len(self.slope)} row slopes need x with as many rows, got shape {x.shape}"
                )
            rows, slope = x, self.slope[:, None]
        else:
            rows, slope = x.reshape(1, -1), self.slope
        ygrid = np.linspace(0.0, self._radius(np.max(rows, axis=1)), self.grid.nodes, axis=1)
        psi_grid = np.asarray(self.psi(ygrid), dtype=float)
        last = self.grid.nodes - 1
        # first maximiser among the nodes <= x, and among the nodes >= x
        below = _prefix_argmax(psi_grid + slope * ygrid, "first")
        above = last - _prefix_argmax((psi_grid - slope * ygrid)[:, ::-1], "last")[:, ::-1]
        left = np.take_along_axis(below, np.stack(
            [np.searchsorted(g, r, side="right") for g, r in zip(ygrid, rows)]) - 1, axis=1)
        right = np.take_along_axis(above, np.stack(
            [np.searchsorted(g, r, side="left") for g, r in zip(ygrid, rows)]), axis=1)

        def node_value(k):
            return (np.take_along_axis(psi_grid, k, axis=1)
                    - slope * np.abs(rows - np.take_along_axis(ygrid, k, axis=1)))

        left_val, right_val = node_value(left), node_value(right)
        # equal values go to the lower index, as a dense argmax would
        best = np.where(right_val > left_val, right, left)
        scan = np.maximum(left_val, right_val)
        lo = np.take_along_axis(ygrid, np.maximum(best - 1, 0), axis=1)
        hi = np.take_along_axis(ygrid, np.minimum(best + 1, last), axis=1)

        def f(yv):
            y = yv.reshape(-1, *rows.shape)
            return (np.asarray(self.psi(y), dtype=float) - slope * np.abs(rows - y)).ravel()

        _, refined = _golden_argmax(f, lo.ravel(), hi.ravel())
        at_x = np.asarray(self.psi(rows), dtype=float)
        out = np.maximum(np.maximum(scan, refined.reshape(rows.shape)), at_x)
        return out.reshape(x.shape)

    def __call__(self, x):
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(self.batch(np.asarray([x], dtype=float))[0])
        return self.batch(x)


def lipschitz_envelope(psi, slope, growth_k, grid=None):
    """Build the K-Lipschitz majorant of ``psi``; K must exceed ``growth_k``."""
    return LipschitzEnvelope(psi, slope, growth_k, grid)


# ---------------------------------------------------------------------------
# Driver regularisation


@dataclass(frozen=True)
class LinearGrowthBound:
    """Certified bound g(t,y,z) <= f(t) + y_slope(t)|y| + z_slope(t)|z|."""

    f: Callable
    y_slope: Callable
    z_slope: Callable

    @classmethod
    def from_parts(cls, f, y_slope, z_slope):
        return cls(
            _as_univariate(f, hint="t"),
            y_slope if isinstance(y_slope, WeightFn) else WeightFn.parse(y_slope),
            z_slope if isinstance(z_slope, WeightFn) else WeightFn.parse(z_slope, "L2"),
        )


@dataclass(frozen=True)
class WedgeGrowthBound:
    """g(t,y,z) <= f(t) + y_slope(t)|y| + min(v(t)|z|, lam(t)|z|^alpha)."""

    f: Callable
    y_slope: Callable
    v: Callable
    lam: Callable
    alpha: float


def _growth_from_certificate(g, kind):
    cert = getattr(g, "certificate", None)
    if cert is None:
        raise EnvelopeError(
            "missing growth certificate: the driver needs a certified upper "
            "bound to size the truncation box"
        )
    if kind == "linear":
        if isinstance(cert, OneSidedLinear) and cert.side == "absolute":
            return LinearGrowthBound(cert.f, cert.u, cert.v)
        raise EnvelopeError(
            "missing growth certificate: need a one_sided_linear certificate "
            "with side='absolute' (or pass growth= explicitly)"
        )
    if isinstance(cert, MixedSubLinear) and cert.side == "absolute":
        return WedgeGrowthBound(cert.f, cert.u, cert.v, cert.lam, cert.alpha)
    raise EnvelopeError(
        "missing growth certificate: need a mixed_sublinear certificate "
        "with side='absolute' (or pass growth= explicitly)"
    )


class _BaseSupConvolution:
    """Shared machinery: truncation box, coordinate-descent maximisation."""

    def __init__(self, g, n, u_w, v_w, grid):
        if n < 1:
            raise EnvelopeError("n must be >= 1")
        self.g = g
        self.n = float(n)
        self.u_w = u_w
        self.v_w = v_w
        self.grid = grid or EnvelopeGrid()
        self.margin = 1.0

    # subclasses define _penalty_weights(t), the time-dependent factors of
    # the penalty, _penalty(weights, dy_abs, dz_abs) and _box(t, y, z)

    def _objective_u(self, w, t, u, v, y, z):
        return (
            np.asarray(self.g(t, u, np.full_like(u, v)), dtype=float)
            - self._penalty(w, np.abs(y - u), abs(z - v))
        )

    def _objective_v(self, w, t, u, v, y, z):
        return (
            np.asarray(self.g(t, np.full_like(v, u), v), dtype=float)
            - self._penalty(w, abs(y - u), np.abs(z - v))
        )

    def value_at(self, t, y, z):
        """Envelope value and the (u, v) that attains it."""
        du, dv = self._box(t, y, z)
        du = min(du, self.grid.radius)
        dv = min(dv, self.grid.radius)
        m = self.grid.nodes
        w = self._penalty_weights(t)
        u0, v0 = float(y), float(z)
        best_val = float(self.g(t, y, z))
        best_arg = (u0, v0)
        for _ in range(max(1, self.grid.passes)):
            ugrid = np.linspace(y - du, y + du, m)
            vals = self._objective_u(w, t, ugrid, v0, y, z)
            k = int(np.argmax(vals))
            lo, hi = ugrid[max(k - 1, 0)], ugrid[min(k + 1, m - 1)]
            uu, fu = _golden_argmax(
                lambda q: self._objective_u(w, t, np.asarray(q, dtype=float), v0, y, z),
                np.asarray([lo]),
                np.asarray([hi]),
            )
            u0 = float(uu[0]) if fu[0] > vals[k] else float(ugrid[k])

            vgrid = np.linspace(z - dv, z + dv, m)
            vals = self._objective_v(w, t, u0, vgrid, y, z)
            k = int(np.argmax(vals))
            lo, hi = vgrid[max(k - 1, 0)], vgrid[min(k + 1, m - 1)]
            vv, fv = _golden_argmax(
                lambda q: self._objective_v(w, t, u0, np.asarray(q, dtype=float), y, z),
                np.asarray([lo]),
                np.asarray([hi]),
            )
            v0 = float(vv[0]) if fv[0] > vals[k] else float(vgrid[k])
            cur = float(self._objective_v(w, t, u0, np.asarray([v0]), y, z)[0])
            if cur > best_val:
                best_val = cur
                best_arg = (u0, v0)
        return best_val, best_arg

    def candidate_value(self, t, y, z, u, v):
        """Penalised objective at one candidate; a lower bound of the value."""
        penalty = self._penalty(self._penalty_weights(t), abs(y - u), abs(z - v))
        return float(self.g(t, u, v)) - float(penalty)

    def __call__(self, t, y, z):
        return self.value_at(float(t), float(y), float(z))[0]


class SupConvolutionEnvelope(_BaseSupConvolution):
    """Joint (y, z) regularisation with absolute-value penalties."""

    def __init__(self, g, n, u_w, v_w, growth, grid=None):
        super().__init__(g, n, u_w, v_w, grid)
        self.growth = growth

    def _weights(self, t):
        uw = float(self.u_w(t))
        vw = float(self.v_w(t))
        sy = float(self.growth.y_slope(t))
        sz = float(self.growth.z_slope(t))
        if self.n * uw <= sy:
            raise EnvelopeError(
                f"penalty slope n*u_w(t)={self.n * uw:.6g} does not exceed the "
                f"certified y-slope {sy:.6g} at t={t:.6g}; the envelope is infinite"
            )
        if self.n * vw <= sz:
            raise EnvelopeError(
                f"penalty slope n*v_w(t)={self.n * vw:.6g} does not exceed the "
                f"certified z-slope {sz:.6g} at t={t:.6g}; the envelope is infinite"
            )
        return uw, vw, sy, sz

    def _penalty_weights(self, t):
        return self.n * float(self.u_w(t)), self.n * float(self.v_w(t))

    def _penalty(self, w, dy_abs, dz_abs):
        return w[0] * dy_abs + w[1] * dz_abs

    def _box(self, t, y, z):
        uw, vw, sy, sz = self._weights(t)
        g0 = float(self.g(t, y, z))
        numer = float(self.growth.f(t)) + sy * abs(y) + sz * abs(z) - g0 + self.margin
        return numer / (self.n * uw - sy), numer / (self.n * vw - sz)


class WedgeSupConvolutionEnvelope(_BaseSupConvolution):
    """Regularisation with the wedge penalty n min(v_w|dz|, lam_w|dz|^alpha)."""

    def __init__(self, g, n, u_w, v_w, lam_w, alpha, growth, grid=None):
        super().__init__(g, n, u_w, v_w, grid)
        if not (0.0 < alpha < 1.0):
            raise EnvelopeError("alpha must lie in (0, 1)")
        self.lam_w = lam_w
        self.alpha = float(alpha)
        self.growth = growth

    def _penalty_weights(self, t):
        return self.n * float(self.u_w(t)), float(self.v_w(t)), float(self.lam_w(t))

    def _penalty(self, w, dy_abs, dz_abs):
        wedge = np.minimum(w[1] * dz_abs, w[2] * dz_abs**self.alpha)
        return w[0] * dy_abs + self.n * wedge

    def _box(self, t, y, z):
        uw = float(self.u_w(t))
        vw = float(self.v_w(t))
        lw = float(self.lam_w(t))
        sy = float(self.growth.y_slope(t))
        lc = float(self.growth.lam(t))
        if self.n * uw <= sy:
            raise EnvelopeError(
                f"penalty slope n*u_w(t)={self.n * uw:.6g} does not exceed the "
                f"certified y-slope {sy:.6g} at t={t:.6g}; the envelope is infinite"
            )
        arm = self.n * min(vw, lw)
        if arm <= lc:
            raise EnvelopeError(
                f"wedge penalty arm n*min(v_w,lam_w)(t)={arm:.6g} does not exceed "
                f"the certified z-growth {lc:.6g} at t={t:.6g}"
            )
        g0 = float(self.g(t, y, z))
        zpart = min(vw * abs(z), lw * abs(z) ** self.alpha)
        numer = float(self.growth.f(t)) + sy * abs(y) + lc * abs(z) ** self.alpha + zpart - g0 + self.margin
        dy = numer / (self.n * uw - sy)
        dz = max(1.0, (numer / (arm - lc)) ** (1.0 / self.alpha))
        return dy, dz


def sup_convolution_generator(g, n, u_w, v_w, grid=None, growth=None):
    """Penalised-supremum majorant of a driver; see module docstring.

    ``growth`` may be passed explicitly as a :class:`LinearGrowthBound`;
    otherwise it is taken from the driver's absolute-side linear-growth
    certificate, and its absence is an error.
    """
    growth = growth or _growth_from_certificate(g, "linear")
    return SupConvolutionEnvelope(g, n, u_w, v_w, growth, grid)


def sup_convolution_generator_alpha(g, n, u_w, v_w, lam_w, alpha, grid=None, growth=None):
    """Wedge-penalty variant; the returned family is non-increasing in n."""
    growth = growth or _growth_from_certificate(g, "wedge")
    return WedgeSupConvolutionEnvelope(g, n, u_w, v_w, lam_w, alpha, growth, grid)


def envelope_family_values(envelopes, points):
    """Evaluate an n-indexed envelope family on shared candidate sets.

    All envelopes must share the same driver and penalty weights and differ
    only in n.  Per point, every envelope's maximiser is offered to every
    other envelope as a candidate; on the shared set the computed values are
    exactly non-increasing in n because the penalised objective is.

    Returns an array of shape (len(envelopes), len(points)).
    """
    out = np.empty((len(envelopes), len(points)))
    for j, (t, y, z) in enumerate(points):
        descents = [env.value_at(t, y, z) for env in envelopes]
        args = [arg for _, arg in descents]
        for i, env in enumerate(envelopes):
            out[i, j] = max(
                descents[i][0], max(env.candidate_value(t, y, z, u, v) for u, v in args)
            )
    return out
