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

import copy
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
# golden-section steps per argmax refinement; each shrinks the bracket by _GOLDEN
GOLDEN_ITERS = 64


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


def _golden_argmax(f, lo, hi):
    """Vectorised golden-section maximisation of f on [lo, hi] per element, GOLDEN_ITERS steps.

    Both probe points go through f in one stacked call per iteration, as a
    ``(2, m)`` array whose rows are the lower and the upper probes, which
    matters when f is an interpreted expression with per-call overhead; f may
    return its values in any shape of 2m elements.  The probes share one
    buffer and the brackets shrink in place, so a step allocates nothing but
    f's own result.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    m = a.size
    probes = np.empty((2, m))
    c, d = probes
    span = np.empty(m)
    keep_left = np.empty(m, dtype=bool)
    for _ in range(GOLDEN_ITERS):
        np.multiply(np.subtract(b, a, out=span), _GOLDEN, out=span)
        np.subtract(b, span, out=c)
        np.add(a, span, out=d)
        vals = np.asarray(f(probes)).reshape(2, m)
        np.greater(vals[0], vals[1], out=keep_left)
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
        # slope -> (radius, node tables) of the last search grid built for it
        self._tables = {}

    def rows(self, index):
        """The envelope of the rows ``index`` of a row-slope envelope.  It
        shares this envelope's node tables, so a grid built by either serves
        both."""
        sub = copy.copy(self)
        sub.slope = self.slope[index]
        return sub

    def _radius(self, xmax):
        analytic = (self.growth_k + self.slope * xmax + 1.0) / (self.slope - self.growth_k)
        return np.maximum(np.maximum(self.grid.radius, analytic), xmax + 1.0)

    def _node_tables(self, slopes, radii):
        """Per row, the search grid over [0, radius], psi on it and the two
        running argmax tables; each is stacked over the rows.

        The tables depend on a row's slope and radius only, so a row whose
        radius is that of the last grid built for its slope reuses that grid.
        """
        tables = []
        for slope, radius in zip(slopes.tolist(), radii.tolist()):
            kept = self._tables.get(slope)
            tables.append(kept[1] if kept is not None and kept[0] == radius else None)
        fresh = [i for i, got in enumerate(tables) if got is None]
        if fresh:
            last = self.grid.nodes - 1
            slope = slopes[fresh, None]
            ygrid = np.linspace(0.0, radii[fresh], self.grid.nodes, axis=1)
            psi_grid = np.asarray(self.psi(ygrid), dtype=float)
            # first maximiser among the nodes <= x, and among the nodes >= x
            below = _prefix_argmax(psi_grid + slope * ygrid, "first")
            above = last - _prefix_argmax((psi_grid - slope * ygrid)[:, ::-1], "last")[:, ::-1]
            for row, i in enumerate(fresh):
                tables[i] = ygrid[row], psi_grid[row], below[row], above[row]
                self._tables[float(slopes[i])] = float(radii[i]), tables[i]
        return [np.stack(parts) for parts in zip(*tables)]

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
        radii = self._radius(np.max(rows, axis=1))
        ygrid, psi_grid, below, above = self._node_tables(
            np.broadcast_to(self.slope, radii.shape), radii)
        last = self.grid.nodes - 1
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


# Points per block of a batched descent.  At the default 2001 nodes a point
# holds about 65 kB of node arrays while its block runs.
_BLOCK = 64


_PY_POW = np.frompyfunc(pow, 2, 1)


def _libm_power(base, exponent):
    """base ** exponent per element by the C library's pow, as a Python float
    computes it; numpy's vectorised power may differ from it in the last bit."""
    return np.asarray(_PY_POW(base, exponent), dtype=float)


def _node_grid(lo, hi, nodes):
    """Column i is np.linspace(lo[i], hi[i], nodes), bit for bit.

    np.linspace given arrays takes its ``step == 0`` branch for every column
    as soon as one column needs it, so it is not used here.
    """
    step = (hi - lo) / (nodes - 1)
    k = np.arange(nodes, dtype=float)[:, None]
    grid = k * step
    flat = step == 0
    if flat.any():
        grid[:, flat] = k / (nodes - 1) * (hi - lo)[flat]
    grid += lo
    grid[-1] = hi
    return grid


def _line_search(f, centre, half, nodes):
    """Per point, the maximiser of f over centre +- half: the best of ``nodes``
    nodes, or the golden-section refinement between its neighbours where that
    is strictly better."""
    grid = _node_grid(centre - half, centre + half, nodes)
    vals = f(grid)
    k = np.argmax(vals, axis=0)
    cols = np.arange(grid.shape[1])
    lo, hi = grid[np.maximum(k - 1, 0), cols], grid[np.minimum(k + 1, nodes - 1), cols]
    arg, refined = _golden_argmax(f, lo, hi)
    return np.where(refined > vals[k, cols], arg, grid[k, cols])


def _refuse(*rules):
    """Raise EnvelopeError at the first point that breaks a rule.

    A rule is ``(broken, message)``: a mask over the points and a function of
    the point's index; a point's rules are tried in the order given.
    """
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    if broken.any():
        i = int(np.argmax(broken))
        raise EnvelopeError(next(message(i) for mask, message in rules if mask[i]))


def _growth_rule(t, y, z, g0, numer, bound):
    """A negative box numerator: g(t, y, z) exceeds its certified growth
    bound by more than the margin, and the box would be empty."""
    return numer < 0.0, lambda i: (
        f"driver value {g0[i]:.6g} exceeds its certified growth bound {bound(i):.6g} "
        f"at (t, y, z) = ({t[i]:.6g}, {y[i]:.6g}, {z[i]:.6g}); the growth certificate "
        "does not hold there"
    )


def _y_slope_rule(t, penalty, certified):
    return penalty <= certified, lambda i: (
        f"penalty slope n*u_w(t)={penalty[i]:.6g} does not exceed the certified "
        f"y-slope {certified[i]:.6g} at t={t[i]:.6g}; the envelope is infinite"
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
    # the penalty, _z_penalty(weights, dz_abs, power) and _box(t, y, z), which
    # returns the box's half-widths in u and v and g(t, y, z)

    def _penalty(self, w, dy_abs, dz_abs, power=np.power):
        return w[0] * dy_abs + self._z_penalty(w, dz_abs, power)

    def value_at(self, t, y, z):
        """Envelope values and the (u, v) that attain them, as ``(values, (u, v))``.

        ``t``, ``y`` and ``z`` are numbers or 1-d arrays, broadcast together;
        each result has one entry per point.  The points run in blocks of
        ``_BLOCK``, one coordinate descent per block, and every step of it acts
        point by point: a point's result does not depend on the others.
        """
        t, y, z = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                        for a in (t, y, z)))
        if t.ndim != 1:
            raise EnvelopeError(f"value_at takes numbers or 1-d arrays, got shape {t.shape}")
        out = np.empty((3, t.size))
        for start in range(0, t.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            out[:, block] = self._descend(t[block], y[block], z[block])
        return out[0], (out[1], out[2])

    def _descend(self, t, y, z):
        # The held coordinate's penalty is one number per point and goes
        # through the C library's pow, the node and probe arrays through
        # numpy's; every value then equals, bit for bit, that of the per-point
        # descent in tests/oracles.py.
        du, dv, best = self._box(t, y, z)
        du = np.minimum(du, self.grid.radius)
        dv = np.minimum(dv, self.grid.radius)
        w = self._penalty_weights(t)
        u, v = best_u, best_v = y, z
        for _ in range(max(1, self.grid.passes)):
            z_pen = self._z_penalty(w, np.abs(z - v), _libm_power)

            def along_u(q):
                penalty = w[0] * np.abs(y - q) + z_pen
                return np.asarray(self.g(t, q, v), dtype=float) - penalty

            u = _line_search(along_u, y, du, self.grid.nodes)
            y_pen = w[0] * np.abs(y - u)

            def along_v(q):
                penalty = y_pen + self._z_penalty(w, np.abs(z - q))
                return np.asarray(self.g(t, u, q), dtype=float) - penalty

            v = _line_search(along_v, z, dv, self.grid.nodes)
            cur = along_v(v)
            better = cur > best
            best = np.where(better, cur, best)
            best_u = np.where(better, u, best_u)
            best_v = np.where(better, v, best_v)
        return best, best_u, best_v

    def candidate_value(self, t, y, z, u, v):
        """Penalised objective at candidates (u, v); a lower bound of the value."""
        w = self._penalty_weights(t)
        return (np.asarray(self.g(t, u, v), dtype=float)
                - self._penalty(w, np.abs(y - u), np.abs(z - v), _libm_power))

    def __call__(self, t, y, z):
        """Envelope values at the points; a number when t, y and z all are."""
        values = self.value_at(t, y, z)[0]
        return float(values[0]) if np.ndim(t) == np.ndim(y) == np.ndim(z) == 0 else values


class SupConvolutionEnvelope(_BaseSupConvolution):
    """Joint (y, z) regularisation with absolute-value penalties."""

    def __init__(self, g, n, u_w, v_w, growth, grid=None):
        super().__init__(g, n, u_w, v_w, grid)
        self.growth = growth

    def _penalty_weights(self, t):
        return self.n * self.u_w(t), self.n * self.v_w(t)

    def _z_penalty(self, w, dz_abs, power=None):  # no power in this penalty
        return w[1] * dz_abs

    def _box(self, t, y, z):
        uw, vw = self.u_w(t), self.v_w(t)
        sy, sz = self.growth.y_slope(t), self.growth.z_slope(t)
        _refuse(_y_slope_rule(t, self.n * uw, sy), (self.n * vw <= sz, lambda i: (
            f"penalty slope n*v_w(t)={self.n * vw[i]:.6g} does not exceed the certified "
            f"z-slope {sz[i]:.6g} at t={t[i]:.6g}; the envelope is infinite")))
        g0 = np.asarray(self.g(t, y, z), dtype=float)
        bound = self.growth.f(t) + sy * np.abs(y) + sz * np.abs(z)
        numer = bound - g0 + self.margin
        _refuse(_growth_rule(t, y, z, g0, numer, bound.__getitem__))
        return numer / (self.n * uw - sy), numer / (self.n * vw - sz), g0


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
        return self.n * self.u_w(t), self.v_w(t), self.lam_w(t)

    def _z_penalty(self, w, dz_abs, power=np.power):
        return self.n * np.minimum(w[1] * dz_abs, w[2] * power(dz_abs, self.alpha))

    def _box(self, t, y, z):
        uw, vw, lw = self.u_w(t), self.v_w(t), self.lam_w(t)
        sy, lc = self.growth.y_slope(t), self.growth.lam(t)
        arm = self.n * np.minimum(vw, lw)
        _refuse(_y_slope_rule(t, self.n * uw, sy), (arm <= lc, lambda i: (
            f"wedge penalty arm n*min(v_w,lam_w)(t)={arm[i]:.6g} does not exceed "
            f"the certified z-growth {lc[i]:.6g} at t={t[i]:.6g}")))
        g0 = np.asarray(self.g(t, y, z), dtype=float)
        az = np.abs(z)
        az_alpha = _libm_power(az, self.alpha)
        zpart = np.minimum(vw * az, lw * az_alpha)
        numer = self.growth.f(t) + sy * np.abs(y) + lc * az_alpha + zpart - g0 + self.margin

        def bound(i):
            return (float(self.growth.f(t[i])) + sy[i] * abs(y[i])
                    + min(float(self.growth.v(t[i])) * az[i], lc[i] * az_alpha[i]))

        _refuse(_growth_rule(t, y, z, g0, numer, bound))
        dz = _libm_power(numer / (arm - lc), 1.0 / self.alpha)
        return numer / (self.n * uw - sy), np.maximum(dz, 1.0), g0


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
    t, y, z = np.asarray(points, dtype=float).reshape(-1, 3).T
    descents = [env.value_at(t, y, z) for env in envelopes]
    out = np.empty((len(envelopes), len(t)))
    for i, env in enumerate(envelopes):
        best = descents[i][0]
        shared = None
        for _, (u, v) in descents:
            cand = env.candidate_value(t, y, z, u, v)
            shared = cand if shared is None else np.where(cand > shared, cand, shared)
        out[i] = np.where(shared > best, shared, best)
    return out
