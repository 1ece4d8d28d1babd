"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the code paths it is used to check:
dense scans and golden sections instead of max-plus sweeps and the slope's
sign, Simpson quadrature over the normal density instead of tree
expectations, closed forms instead of backward recursions.  The per-point
references of the batched envelopes repeat their rules one point at a time
in Python floats, so that the batches' bits can be pinned.
"""

import itertools
import math

import numpy as np

from bsdelab.expressions import Bin, EvalDomainError, Expression, Func, Neg, Num, Var, _to_source
from bsdelab.generators import Generator
from bsdelab.solver import (
    DiscreteSolution,
    TreeModel,
    _finite_or_raise,
    _hermite_rows,
    _regress,
)
from bsdelab.transforms import exp_transform_generator, exp_transform_solution


def dense_scan_max(fn, lo, hi, nodes=100_001, refine=True):
    """Global max of a 1-d function by dense scan plus local golden section."""
    x = np.linspace(lo, hi, nodes)
    vals = np.asarray(fn(x), dtype=float)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if not refine:
        return best
    a = x[max(k - 1, 0)]
    b = x[min(k + 1, nodes - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        if float(fn(np.asarray([c]))[0]) > float(fn(np.asarray([d]))[0]):
            b = d
        else:
            a = c
    mid = 0.5 * (a + b)
    return max(best, float(fn(np.asarray([mid]))[0]))


def separable_supconv_oracle(gy, gz, n, u_w, v_w, y, z, radius=50.0, nodes=100_001):
    """sup-convolution of g(u, v) = gy(u) + gz(v) with absolute penalties.

    For separable drivers the 2-d supremum splits into two 1-d scans, which
    keeps the oracle independent of the coordinate-descent search.
    """
    part_y = dense_scan_max(lambda u: gy(u) - n * u_w * np.abs(y - u), y - radius, y + radius, nodes)
    part_z = dense_scan_max(lambda v: gz(v) - n * v_w * np.abs(z - v), z - radius, z + radius, nodes)
    return part_y + part_z


def wedge_supconv_oracle(gz, n, v_w, lam_w, alpha, z, radius=50.0, nodes=100_001):
    """1-d wedge-penalty supremum over v by dense scan."""

    def obj(v):
        d = np.abs(z - v)
        return gz(v) - n * np.minimum(v_w * d, lam_w * d**alpha)

    return dense_scan_max(obj, z - radius, z + radius, nodes)


def normal_expectation(fn, variance, half_width=40.0, nodes=2_000_001):
    """E[fn(X)] for X ~ N(0, variance) by composite Simpson quadrature."""
    sd = math.sqrt(variance)
    x = np.linspace(-half_width * sd, half_width * sd, nodes)
    density = np.exp(-x * x / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
    f = np.asarray(fn(x), dtype=float) * density
    h = x[1] - x[0]
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(f * w) * h / 3.0)


def simpson_integrals(fn, a, b, nodes=4001):
    """int_a^b fn for each pair of a and b (1-d arrays) by composite Simpson
    quadrature on equally spaced nodes."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (np.asarray(fn(x), dtype=float) * w).sum(axis=1) * (b - a) / (3.0 * (nodes - 1))


def sqrt_envelope_closed_form(x, slope):
    """K-Lipschitz majorant of sqrt on [0, inf): Kx + 1/(4K) below 1/(4K^2)."""
    x = np.asarray(x, dtype=float)
    knee = 1.0 / (4.0 * slope * slope)
    return np.where(x < knee, slope * x + 1.0 / (4.0 * slope), np.sqrt(x))


_REFERENCE_FUNCTIONS = {"abs": np.abs, "sign": np.sign, "sin": np.sin, "cos": np.cos,
                        "min": np.minimum, "max": np.maximum, "clamp": np.clip}


def _has_variable(node):
    if isinstance(node, Var):
        return True
    if isinstance(node, Func):
        return any(_has_variable(a) for a in node.args)
    if isinstance(node, Bin):
        return _has_variable(node.lhs) or _has_variable(node.rhs)
    return isinstance(node, Neg) and _has_variable(node.operand)


def reference_evaluate(root, variables, values):
    """Evaluate an expression AST by walking the tree: the semantics of ``Expression``.

    - Nodes are evaluated depth first, left to right; a quotient evaluates
      both operands, then checks its denominator.
    - ``x^k`` with a variable-free exponent whose value is an integer ``k`` in
      [0, 4] is the product ``x * ... * x`` of ``k`` factors (1.0 for ``k = 0``).
      Every other power is ``np.power``, after rejecting a negative base with a
      non-integer exponent and a zero base with a negative exponent.
    - ``/`` by zero, ``ln`` of a value <= 0 and ``sqrt`` of a value < 0 are
      domain errors; a non-finite power or ``exp`` is one too.
    - ``clamp`` with a bound that has a variable is ``min(max(x, lo), hi)``,
      otherwise ``np.clip``; they differ only in the sign of a zero at a tie.
    - The result must be finite.  Scalars in, float out; arrays in, an array of
      the broadcast shape out.
    """
    env = {name: float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
           for name, v in zip(variables, values)}

    def finite(value, message, node):
        if not np.all(np.isfinite(value)):
            raise EvalDomainError(message, _to_source(node))
        return value

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Func):
            args = [ev(a) for a in node.args]
            if node.name == "exp":
                return finite(np.exp(args[0]), "exp produced a non-finite value", node)
            if node.name == "ln":
                if np.any(args[0] <= 0):
                    raise EvalDomainError("ln of a non-positive value", _to_source(node))
                return np.log(args[0])
            if node.name == "sqrt":
                if np.any(args[0] < 0):
                    raise EvalDomainError("sqrt of a negative value", _to_source(node))
                return np.sqrt(args[0])
            if node.name == "clamp" and any(_has_variable(a) for a in node.args[1:]):
                # np.clip keeps x at a tie of signed zeros only with scalar bounds
                return np.minimum(np.maximum(args[0], args[1]), args[2])
            return _REFERENCE_FUNCTIONS[node.name](*args)
        a, b = ev(node.lhs), ev(node.rhs)
        if node.op == "/":
            if np.any(b == 0):
                raise EvalDomainError("division by zero", _to_source(node))
            return a / b
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if not _has_variable(node.rhs) and math.isfinite(b) and b == math.floor(b) and 0 <= b <= 4:
            out = 1.0
            for k in range(int(b)):
                out = a if k == 0 else out * a
            return finite(out, "power produced a non-finite value", node)
        if np.any((a < 0) & (b != np.floor(b))):
            raise EvalDomainError("negative base with non-integer exponent", _to_source(node))
        if np.any((a == 0) & (b < 0)):
            raise EvalDomainError("zero base with negative exponent", _to_source(node))
        return finite(np.power(a, b), "power produced a non-finite value", node)

    out = ev(root)
    shapes = [np.shape(v) for v in env.values()]
    if all(s == () for s in shapes):
        return finite(float(out), "non-finite result", root)
    out = np.broadcast_to(out, np.broadcast_shapes(*shapes)).copy()
    return finite(out, "non-finite result", root)


def dual_generator(g):
    """The driver (t, y, z) -> -g(t, -y, -z), by rewriting g's AST: y and z
    become -y and -z, and the root is negated.  Rewriting twice gives a driver
    that evaluates bit-identically to g, since negation is exact."""

    def flip(node):
        if isinstance(node, Var):
            return Neg(node) if node.name in ("y", "z") else node
        if isinstance(node, Neg):
            return Neg(flip(node.operand))
        if isinstance(node, Bin):
            return Bin(node.op, flip(node.lhs), flip(node.rhs))
        if isinstance(node, Func):
            return Func(node.name, tuple(map(flip, node.args)))
        return node

    return Generator(Expression(Neg(flip(g.expr.root)), g.expr.variables))


def binomial_weights_reference(i):
    """Level ``i``'s tree weights C(i, j) / 2^i, each the correctly rounded
    quotient of two exact integers."""
    return np.asarray([math.comb(i, j) / 2**i for j in range(i + 1)])


def lstsq_reference(basis, target):
    """Least-squares fitted values of each target column on the columns of
    ``basis``, by Householder QR carried out in long double.

    Independent of the normal equations the solver uses: the residual is
    rotated away column by column and R is back-substituted, all at about
    1e-19 precision.  Returns long-double values shaped like ``target``.
    """
    a = np.array(basis, dtype=np.longdouble)
    qtb = np.array(target, dtype=np.longdouble).reshape(len(a), -1)
    rows, cols = a.shape
    for j in range(cols):
        v = a[j:, j].copy()
        norm = np.sqrt(v @ v)
        v[0] += norm if v[0] >= 0 else -norm
        scale = 2 / (v @ v)
        a[j:, j:] -= np.outer(v, scale * (v @ a[j:, j:]))
        qtb[j:] -= np.outer(v, scale * (v @ qtb[j:]))
    coef = np.zeros((cols, qtb.shape[1]), dtype=np.longdouble)
    for j in range(cols - 1, -1, -1):
        coef[j] = (qtb[j] - a[j, j + 1:] @ coef[j + 1:]) / a[j, j]
    fitted = np.array(basis, dtype=np.longdouble) @ coef
    return fitted.reshape(np.shape(target))


def _dense_lipschitz_scan(psi, slope, growth_k, flat, radius, nodes):
    """The best of ``nodes`` nodes over [0, R] for every point, the same
    analytic R as ``LipschitzEnvelope``, by a dense (points, nodes) scan:
    (scan values, the best node's neighbours)."""
    xmax = float(np.max(flat))
    analytic = (growth_k + slope * xmax + 1.0) / (slope - growth_k)
    ygrid = np.linspace(0.0, max(radius, analytic, xmax + 1.0), nodes)
    obj = np.asarray(psi(ygrid), dtype=float)[None, :] - slope * np.abs(flat[:, None] - ygrid[None, :])
    best = np.argmax(obj, axis=1)
    lo = ygrid[np.maximum(best - 1, 0)]
    hi = ygrid[np.minimum(best + 1, nodes - 1)]
    return obj[np.arange(flat.size), best], lo, hi


def _slope_functions(psi):
    """psi' and psi'' of a one-variable expression at one number, through
    their staged builds with every floating-point flag ignored, so that an
    infinite or NaN slope comes back as such."""
    var = psi.variables[0]
    d1 = psi.derivative(var)
    pre, _, d1_at, d2_at = psi.split(var, d1, d1.derivative(var))

    def at(body, y):
        with np.errstate(all="ignore"):
            return float(np.broadcast_to(body(np.asarray([y]), *pre()), (1,))[0])

    return lambda y: at(d1_at, y), lambda y: at(d2_at, y)


def _rtsafe_root(f, df, a, b):
    """rtsafe on one bracket with f(a) <= 0 <= f(b), in Python floats: from
    the midpoint, Newton's step where it lies strictly inside the bracket and
    is at most half the last move, else bisection.  Stops at an iterate
    within 4 ulps of the one before, at one that Newton's step leaves where
    it is, or after 100 steps."""
    x = 0.5 * a + 0.5 * b
    moved = abs(b - a)
    for _ in range(100):
        r, d = f(x), df(x)
        if r <= 0.0:
            a = x
        if r >= 0.0:
            b = x
        newton = x - (r / d if d != 0.0 else math.inf)
        if min(a, b) < newton < max(a, b) and abs(2.0 * r) <= abs(moved * d):
            nxt = newton
        else:
            nxt = 0.5 * a + 0.5 * b
        moved = abs(nxt - x)
        if moved <= 4.0 * math.ulp(nxt):
            return nxt
        if newton == x:
            return x
        x = nxt
    return x


def lipschitz_envelope_reference(psi, slope, growth_k, x, radius=100.0, nodes=2001):
    """sup_{y >= 0} psi(y) - slope |x - y| by a dense (points, nodes) scan.

    The scan runs over np.linspace(0, R, nodes) with the same analytic radius
    R as ``LipschitzEnvelope``.  Then, one point at a time, the kink y = x
    splits the best node's neighbours [lo, hi] into [lo, min(hi, x)], where
    the objective's slope is psi' + slope, and [max(lo, x), hi], where it is
    psi' - slope; on a side whose slope goes from + to -, rtsafe on psi''
    finds its root.  The result is the largest of the scan, the objective at
    those roots and psi(x).  No running maxima: every node is scored against
    every point.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    scan, lo, hi = _dense_lipschitz_scan(psi, slope, growth_k, flat, radius, nodes)
    d1, d2 = _slope_functions(psi)
    peak = np.full(flat.size, -math.inf)
    for i, (xi, a, b) in enumerate(zip(flat.tolist(), lo.tolist(), hi.tolist())):
        for lower, upper, shift in ((a, min(b, xi), slope), (max(a, xi), b, -slope)):
            if lower < upper and d1(lower) + shift > 0.0 and d1(upper) + shift < 0.0:
                y = _rtsafe_root(lambda y: d1(y) + shift, d2, upper, lower)
                value = float(np.asarray(psi(np.asarray([y])))[0]) - slope * abs(xi - y)
                peak[i] = np.maximum(peak[i], value)
    out = np.maximum(np.maximum(scan, peak), np.asarray(psi(flat), dtype=float))
    return out.reshape(x.shape)


def lipschitz_envelope_golden_reference(psi, slope, growth_k, x, radius=100.0, nodes=2001):
    """``lipschitz_envelope_reference``'s dense scan, with every point's best
    node refined by 64 golden-section steps inside its two neighbours, not by
    the slope's sign; the result is the largest of the scan, the refinement
    and psi(x)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    scan, a, b = _dense_lipschitz_scan(psi, slope, growth_k, flat, radius, nodes)

    def f(yv):
        xs = np.tile(flat, yv.size // flat.size)
        return np.asarray(psi(yv), dtype=float) - slope * np.abs(xs - yv)

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    m = flat.size
    for _ in range(64):
        span = b - a
        c = b - gr * span
        d = a + gr * span
        vals = f(np.concatenate([c, d]))
        keep_left = vals[:m] > vals[m:]
        b = np.where(keep_left, d, b)
        a = np.where(keep_left, a, c)
    refined = f(0.5 * (a + b))
    out = np.maximum(np.maximum(scan, refined), np.asarray(psi(flat), dtype=float))
    return out.reshape(x.shape)


def _supconv_penalty(env, t):
    """The driver envelope's penalty at time t, a function of (|y - u|, |z - v|)."""
    n, uw, vw = env.n, float(env.u_w(t)), float(env.v_w(t))
    if hasattr(env, "alpha"):
        lw, alpha = float(env.lam_w(t)), env.alpha
        return lambda dy, dz: n * uw * dy + n * np.minimum(vw * dz, lw * dz**alpha)
    return lambda dy, dz: n * uw * dy + n * vw * dz


def _driver_slopes(g, var):
    """g's first two derivatives in ``var`` at one point (t, y, z), through
    their staged builds with every floating-point flag ignored: Python
    floats from one-element arrays."""
    expr = g.expr.rebind(g.expr.variables)
    d1 = expr.derivative(var)
    pre, _, d1_at, d2_at = expr.split(var, d1, d1.derivative(var))

    def at(t, y, z):
        point = {name: np.asarray([value]) for name, value in zip("tyz", (t, y, z))}
        args = [point[name] for name in expr.variables]
        with np.errstate(all="ignore"):
            parts = pre(*(point[name] for name in expr.variables if name != var))
            return tuple(float(np.broadcast_to(body(*args, *parts), (1,))[0])
                         for body in (d1_at, d2_at))

    return at


def _supconv_z_slope(env, t):
    """The z-penalty's slope and curvature in d = |z - v| at time t, at one
    number: n v_w for the absolute penalty; the wedge's linear arm while
    v_w d <= lam_w d^alpha (at d = 0 too), its power arm beyond."""
    n, vw = env.n, float(env.v_w(t))
    if not hasattr(env, "alpha"):
        return lambda d: (n * vw, 0.0)
    lw, a = float(env.lam_w(t)), env.alpha

    def slope(d):
        d = np.asarray([d])
        with np.errstate(all="ignore"):
            if vw * d[0] <= lw * float(np.power(d, a)[0]):
                return n * vw, 0.0
            return (n * float((a * lw * np.power(d, a - 1.0))[0]),
                    n * float((a * (a - 1.0) * lw * np.power(d, a - 2.0))[0]))

    return slope


def supconv_descent_reference(env, t, y, z):
    """One point of a driver envelope by the per-point coordinate descent.

    This is the descent one point at a time, in Python floats: the
    truncation box, then per pass a 2001-node scan in u and the slope rule
    between the best node's neighbours (``_slope_line_max``), then the same
    in v.  It reads the envelope's driver, weights, growth bound and grid,
    and none of its methods.  Returns the value and the (u, v) that attains
    it.
    """
    t, y, z = float(t), float(y), float(z)
    n, g, penalty = env.n, env.g, _supconv_penalty(env, t)
    uw, vw, sy = float(env.u_w(t)), float(env.v_w(t)), float(env.growth.u(t))
    g0 = float(g(t, y, z))
    if hasattr(env, "alpha"):
        lw, lc, alpha = float(env.lam_w(t)), float(env.growth.lam(t)), env.alpha
        zpart = min(vw * abs(z), lw * abs(z) ** alpha)
        numer = (float(env.growth.f(t)) + sy * abs(y) + lc * abs(z) ** alpha + zpart - g0
                 + env.margin)
        du = numer / (n * uw - sy)
        dv = max(1.0, (numer / (n * min(vw, lw) - lc)) ** (1.0 / alpha))
    else:
        sz = float(env.growth.v(t))
        numer = float(env.growth.f(t)) + sy * abs(y) + sz * abs(z) - g0 + env.margin
        du, dv = numer / (n * uw - sy), numer / (n * vw - sz)

    def along_u(u, v):
        values = np.asarray(g(t, u, np.full_like(u, v)), dtype=float)
        return values - penalty(np.abs(y - u), abs(z - v))

    def along_v(u, v):
        values = np.asarray(g(t, np.full_like(v, u), v), dtype=float)
        return values - penalty(abs(y - u), np.abs(z - v))

    g_y, g_z, z_slope = _driver_slopes(g, "y"), _driver_slopes(g, "z"), _supconv_z_slope(env, t)

    def slope_u(u, v, side):
        d1, d2 = g_y(t, u, v)
        return d1 + side * (n * uw), d2

    def slope_v(u, v, side):
        (d1, d2), (dp, ddp) = g_z(t, u, v), z_slope(abs(z - v))
        return d1 + side * dp, d2 - ddp

    du, dv, m = min(du, env.grid.radius), min(dv, env.grid.radius), env.grid.nodes
    u0, v0, best, arg = y, z, g0, (y, z)
    for _ in range(max(1, env.grid.passes)):
        u0 = _slope_line_max(lambda q: along_u(q, v0), lambda q, s: slope_u(q, v0, s), y, du, m)
        v0 = _slope_line_max(lambda q: along_v(u0, q), lambda q, s: slope_v(u0, q, s), z, dv, m)
        cur = float(along_v(u0, np.asarray([v0]))[0])
        if cur > best:
            best, arg = cur, (u0, v0)
    return best, arg


def _slope_line_max(f, slope, centre, half, nodes):
    """The best of ``nodes`` nodes over centre +- half, or a root of f's
    slope between that node's neighbours where f is strictly larger there, or
    the kink ``centre`` where f is strictly larger than at both.

    The kink at ``centre`` splits the neighbours [lo, hi] into [lo, min(hi,
    centre)] and [max(lo, centre), hi]; ``slope(q, side)`` gives f's slope and
    curvature, ``side`` +1 on the first and -1 on the second.  On a side whose
    slope goes from + to -, rtsafe on the curvature finds its root.
    """
    grid = np.linspace(centre - half, centre + half, nodes)
    vals = f(grid)
    k = int(np.argmax(vals))
    lo, hi = float(grid[max(k - 1, 0)]), float(grid[min(k + 1, nodes - 1)])
    best, arg = float(vals[k]), float(grid[k])
    for lower, upper, side in ((lo, min(hi, centre), 1.0), (max(lo, centre), hi, -1.0)):
        if lower < upper and slope(lower, side)[0] > 0.0 and slope(upper, side)[0] < 0.0:
            q = _rtsafe_root(lambda q: slope(q, side)[0], lambda q: slope(q, side)[1], upper, lower)
            value = float(f(np.asarray([q]))[0])
            if value > best:
                best, arg = value, q
    if float(f(np.asarray([centre]))[0]) > best:
        arg = centre
    return arg


def _coordinate_max(f, centre, half, nodes):
    """The best of ``nodes`` nodes over centre +- half, or the midpoint of 64
    golden-section steps between that node's neighbours where f is strictly
    larger there."""
    grid = np.linspace(centre - half, centre + half, nodes)
    vals = f(grid)
    k = int(np.argmax(vals))
    a, b = np.asarray([grid[max(k - 1, 0)]]), np.asarray([grid[min(k + 1, nodes - 1)]])
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(64):
        span = (b - a) * gr
        c, d = b - span, a + span
        probes = f(np.concatenate([c, d]))
        if probes[0] > probes[1]:
            b = d
        else:
            a = c
    mid = 0.5 * (a + b)
    return float(mid[0]) if f(mid)[0] > vals[k] else float(grid[k])


def envelope_family_reference(envelopes, points):
    """envelope_family_values point by point: each envelope's descent value,
    raised to its best penalised objective at every envelope's maximiser."""
    out = np.empty((len(envelopes), len(points)))
    for j, point in enumerate(points):
        t, y, z = map(float, point)
        args = [supconv_descent_reference(env, t, y, z) for env in envelopes]
        for i, env in enumerate(envelopes):
            penalty = _supconv_penalty(env, t)
            shared = max(float(env.g(t, u, v)) - float(penalty(abs(y - u), abs(z - v)))
                         for _, (u, v) in args)
            out[i, j] = max(args[i][0], shared)
    return out


def limit_estimate_reference(values):
    """Iterated Aitken delta-squared extrapolation of one node's n sequence,
    one Python step at a time, clamped at 0: up to three passes, each keeping
    one fewer geometric mode."""

    def aitken_once(seq):
        out = []
        for a0, a1, a2 in zip(seq[:-2], seq[1:-1], seq[2:]):
            denom = a2 - 2.0 * a1 + a0
            if abs(denom) < 1e-300:
                out.append(a2)
            else:
                out.append(a0 - (a1 - a0) ** 2 / denom)
        return out

    seq = list(values)
    for _ in range(3):
        if len(seq) < 3:
            break
        seq = aitken_once(seq)
    return max(0.0, seq[-1])


def _bisection_root_reference(g, t, E, z, dt, tol=1e-15):
    """Each node's root of the increasing h(y) = y - E - g(t, y, z) dt by
    bisection to ``tol`` (or to adjacent doubles), from the bracket between E
    and E -+ 2^k, the first k with a sign change; h is evaluated at E first."""
    def h(y):
        return y - E - np.asarray(g(t, y, z), dtype=float) * dt

    h_E = h(E)
    if not np.all(np.isfinite(h_E)):
        raise ValueError("the residual is not finite at E")
    lo, hi = E.copy(), E.copy()
    below = h_E < 0.0  # the root lies above E
    found = h_E == 0.0
    for k in range(64):
        if found.all():
            break
        probe = np.where(found, E, np.where(below, E + 2.0**k, E - 2.0**k))
        h_probe = h(probe)
        crossed = ~found & np.where(below, h_probe >= 0.0, h_probe <= 0.0)
        # a probe past the root closes the bracket; one short of it narrows it
        lo = np.where(~found & (below != crossed), probe, lo)
        hi = np.where(~found & (below == crossed), probe, hi)
        found |= crossed
    if not found.all():
        raise ValueError("no sign change within 2^63 of E")
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not open_.any():
            return mid
        h_mid = h(mid)
        lo, hi = np.where(open_ & (h_mid <= 0.0), mid, lo), np.where(open_ & (h_mid > 0.0), mid, hi)


def bisection_sweep_reference(problems, grid, states, expect, **source):
    """The backward sweep with the whole driver through ``Expression.__call__``
    at every explicit step, and every implicit node solved by bisection to
    1e-15 (``_bisection_root_reference``), one problem (generator, terminal,
    scheme, z_clamp) after the other, each from its own rows.  Same signature
    as ``solver._backward_sweep``; the diagnostics hold ``z_clamped`` only."""
    return [_bisection_sweep_reference(*problem, grid, states, expect, **source)
            for problem in problems]


def _bisection_sweep_reference(g, xi, scheme, z_clamp, grid, states, expect, **source):
    if scheme not in ("explicit", "implicit"):
        raise ValueError("scheme must be 'explicit' or 'implicit'")
    if z_clamp is not None and not z_clamp > 0:
        raise ValueError(f"z_clamp must be > 0, got {z_clamp!r}")
    steps = grid.steps
    dt = grid.dt
    xi.check_bound(states)
    y_rows = [None] * steps + [np.asarray(xi(states), dtype=float)]
    z_rows = [None] * steps
    clamped = False
    for i in range(steps - 1, -1, -1):
        t = grid.nodes[i]
        E, z = expect(i, y_rows[i + 1])
        if z_clamp is not None:
            before = z
            z = np.clip(z, -z_clamp, z_clamp)
            clamped = clamped or bool(np.any(before != z))
        if scheme == "explicit":
            y = E + np.asarray(g(t, E, z), dtype=float) * dt
        else:
            y = _bisection_root_reference(g, t, E, z, dt)
        y_rows[i] = _finite_or_raise(y, i, float(t), E, z)
        z_rows[i] = z
    return DiscreteSolution(
        grid=grid,
        y=tuple(y_rows),
        z=tuple(z_rows),
        scheme=scheme,
        generator=g if isinstance(g, Generator) else None,
        terminal=xi,
        diagnostics={"z_clamped": clamped},
        conforming=not clamped,
        **source,
    )


def mc_expect_reference(grid, paths, degree, seed):
    """The Monte-Carlo conditional expectation on a path-major ensemble: one
    (paths, steps) Philox draw, its running sums along each path, and each
    step's increments and levels read by column through the solver's
    ``_hermite_rows`` and ``_regress``.

    Returns (terminal levels, ``expect``, condition numbers) for
    ``solver._backward_sweep``; ``expect`` fills in the condition numbers.
    """
    dt = grid.dt
    increments = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
        (paths, grid.steps)) * math.sqrt(dt)
    walk = np.cumsum(increments, axis=1)  # column i - 1 is B at node i
    conds = [None] * grid.steps

    def expect(i, y_next):
        targets = np.array((y_next, y_next * increments[:, i] / dt))
        if i == 0:
            conds[0] = 1.0
            return (np.full(paths, float(np.mean(y_next))),
                    np.full(paths, float(np.mean(targets[1]))))
        basis = _hermite_rows(walk[:, i - 1] / math.sqrt(grid.nodes[i]),
                              np.empty((degree + 1, paths)))
        fitted, conds[i] = _regress(basis.T, targets.T)
        return fitted[:, 0], fitted[:, 1].copy()

    return walk[:, -1], expect, conds


def _level_weights_or_none(sol):
    if sol.backend == "tree":
        return TreeModel(sol.grid).level_weights()
    return itertools.repeat(None)


def _mean_reference(w, values):
    """sum(w * values) over a tree level's weights, the plain mean over paths."""
    return float(np.mean(values) if w is None else np.sum(w * values))


def solution_rows_reference(sol):
    """The ``solve`` CSV rows (t, y_mean, y_min, y_max, z_mean), one formula
    per backend and level."""
    rows = []
    for t, y, z, w in zip(sol.grid.nodes, sol.y, sol.z + (None,), _level_weights_or_none(sol)):
        z_mean = None if z is None else _mean_reference(w, z)
        rows.append((float(t), _mean_reference(w, y), float(np.min(y)), float(np.max(y)), z_mean))
    return rows


def first_worst_reference(pairs):
    """The largest gap over per-level ``(gap, locate)`` pairs taken in order: the
    first NaN wherever it lies, else the first sample that holds the maximum;
    ``-inf`` and ``{}`` when there is no sample."""
    worst, where = -math.inf, None
    for gap, locate in pairs:
        gap = np.asarray(gap, dtype=float)
        if not gap.size or (where is not None and math.isnan(worst)):
            continue
        nan = np.flatnonzero(np.isnan(gap))
        k = int(nan[0]) if nan.size else int(np.flatnonzero(gap == gap.max())[0])
        if where is None or math.isnan(gap[k]) or gap[k] > worst:
            worst, where = float(gap[k]), locate(k)
    return worst, where or {}


def _level_rows(sol):
    return zip(map(float, sol.grid.nodes), map(np.asarray, sol.y))


def comparison_reference(sol, sol_prime):
    """Largest y - y' and where, level by level."""
    return first_worst_reference(
        (row - row_p, lambda k, t=t: {"t": t, "index": k})
        for (t, row), (_, row_p) in zip(_level_rows(sol), _level_rows(sol_prime)))


def premise_reference(sol, sol_prime, g, g_prime, which):
    """Largest g - g' along one trajectory on {y > y'} and where, level by level
    with a scalar t."""
    along = sol_prime if which == "along_prime" else sol

    def gaps():
        for i, t in enumerate(map(float, sol.grid.nodes[:-1])):
            (index,) = np.nonzero(np.asarray(sol.y[i]) > np.asarray(sol_prime.y[i]))
            if index.size:
                y, z = np.asarray(along.y[i])[index], np.asarray(along.z[i])[index]
                yield g(t, y, z) - g_prime(t, y, z), lambda k, t=t, index=index: {
                    "t": t, "index": int(index[k])}

    return first_worst_reference(gaps())


def sandwich_reference(sol, env):
    """Largest y - U and L - y and where, node by node, the upper side first."""
    return first_worst_reference(
        pair
        for (t, row), upper, lower in zip(_level_rows(sol), env.upper, env.lower)
        for pair in ((row - upper, lambda k, t=t: {"t": t, "side": "upper"}),
                     (lower - row, lambda k, t=t: {"t": t, "side": "lower"})))


def monotone_reference(sols, n_list):
    """Largest y_n - y_{n_next} over consecutive caps and where, level by level."""
    return first_worst_reference(
        (row_lo - row_hi, lambda k, t=t, a=a, b=b: {"t": t, "n": a, "n_next": b})
        for (a, lo), (b, hi) in zip(zip(n_list, sols), zip(n_list[1:], sols[1:]))
        for (t, row_lo), (_, row_hi) in zip(_level_rows(lo), _level_rows(hi)))


def uniqueness_reference(explicit, implicit):
    """Largest |y_explicit - y_implicit| and its time, level by level."""
    return first_worst_reference(
        (np.abs(ra - rb), lambda k, t=t: {"t": t})
        for (t, ra), (_, rb) in zip(_level_rows(explicit), _level_rows(implicit)))


def _one_step_reference(sol, g, rows):
    dt = sol.grid.dt
    return first_worst_reference(
        (np.abs(y - (0.5 * nxt[1:] + 0.5 * nxt[:-1]) - np.asarray(g(t, y, z)) * dt),
         lambda k, t=t: {"t": t, "index": k})
        for t, (y, z, nxt) in zip(map(float, sol.grid.nodes), rows))


def one_step_residual_reference(sol, g):
    """Largest |y_i - E_i - g(t_i, y_i, z_i) dt| over the tree, level by level with
    a scalar t: 0.0 when none is positive, NaN when any is NaN."""
    worst, _ = _one_step_reference(sol, g, zip(sol.y, sol.z, sol.y[1:]))
    return worst if not worst <= 0.0 else 0.0


def transform_residual_reference(sol, g, gamma, coefficient=0.05):
    """(violation, location) of the transformed one-step residual against the
    budget ``coefficient dt^1.5``, level by level with a scalar t."""
    rows = ((*exp_transform_solution(y, z, gamma), np.exp(gamma * np.asarray(nxt)))
            for y, z, nxt in zip(sol.y, sol.z, sol.y[1:]))
    worst, where = _one_step_reference(sol, exp_transform_generator(g, gamma), rows)
    if worst <= 0.0:
        worst, where = 0.0, {}
    budget = coefficient * sol.grid.dt**1.5
    return worst - budget, where | {"residual": worst, "budget": budget}
