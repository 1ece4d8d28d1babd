"""Deterministic backward-ODE machinery: two-sided bounds, the Gronwall cap
and the iterated modulus bound, plus an integral divergence diagnostic.

The two-sided bounds integrate

    U'(t) = -u(t) l(U(t)),  U(T) = b >= 0      (upper)
    L'(t) =  u(t) l(L(t)),  L(T) = a <= 0      (lower)

backwards from the horizon; for l in the divergent-integral class both stay
finite on [0, T] and sandwich every bounded solution of the corresponding
terminal-value problem.  A curve that leaves [-1e12, 1e12] raises
BlowUpError, which decides nothing about the class: a finite-time blow-up
and a finite bound past 1e12 (0.7 e^100 for l = max(1, 100|x|)) both do.

The barriers come from the time change F(U(t)) = S(t), with
F(x) = int_b^x ds / l(s) and S(t) = int_t^T u: ``_integrate`` (adaptive
7-point Gauss-Legendre panels, one array call per level, ``QUAD_TOL`` and
``QUAD_DEPTH``) gives S at the nodes before l is called, and Newton's method
with a bracket inverts F at all nodes at once.  The barriers come from samples
of l, so, like a grid-checked certificate, they are evidence, not proof: a
feature of l narrower than the panels between the nodes' values can be
missed.  ``osgood_diagnostic`` uses the same quadrature.  The iterated
modulus bound builds each row's Lipschitz-envelope search grid, psi on it and
its running-argmax tables once, and builds them again only when the row's
search radius moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import EnvelopeGrid, LipschitzEnvelope, _settled
from .expressions import EvalDomainError
from .generators import _as_univariate

__all__ = [
    "TimeGrid",
    "BoundEnvelope",
    "BlowUpError",
    "NonPositiveError",
    "solve_growth_ode",
    "sandwich_envelope",
    "gronwall_cap",
    "bihari_sequence",
    "BihariResult",
    "osgood_diagnostic",
    "OsgoodDiagnostic",
]

BLOWUP_THRESHOLD = 1e12
# _integrate bisects a panel until it and its halves agree within QUAD_TOL times
# the integral of |f| over the panel's interval, at most QUAD_DEPTH times
QUAD_TOL = 1e-13
QUAD_DEPTH = 60
# and keeps at most QUAD_PANELS panels live, 15 times the most a test needs
# (8,610); a level then samples f at 3 x 7 x 2^17 points, 22 MB of arguments
QUAD_PANELS = 2**17
# solve_growth_ode's cap on Newton steps: bisection alone takes [b, 1e12] to an ulp in ~100
_NEWTON_STEPS = 200
# bihari_sequence stops a row once it moves by less than BIHARI_TOL in sup norm;
# osgood_diagnostic integrates 1/l from each OSGOOD_EPS
BIHARI_TOL = 1e-9
OSGOOD_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < ... < t_N = T with finite T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two time nodes")
        if nodes[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("time nodes must be strictly increasing")
        if not np.isfinite(nodes[-1]):
            raise ValueError("the horizon must be finite")
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self):
        return float(self.nodes[-1])

    @property
    def steps(self):
        return len(self.nodes) - 1

    @property
    def dt(self):
        # linspace rounds each node to within an ulp of the horizon
        steps = np.diff(self.nodes)
        if np.abs(steps - steps[0]).max() > 4.0 * np.spacing(self.nodes[-1]):
            raise ValueError("grid is not uniform")
        return float(steps[0])

    @classmethod
    def uniform(cls, horizon, steps):
        if steps < 1:
            raise ValueError("need at least one step")
        if not math.isfinite(horizon):
            raise ValueError(f"the horizon must be finite, got {horizon!r}")
        return cls(np.linspace(0.0, float(horizon), steps + 1))


class BlowUpError(RuntimeError):
    """The backward integral curve left [-1e12, 1e12] before reaching t = 0."""

    def __init__(self, side, time_reached, value):
        self.side = side
        self.time_reached = float(time_reached)
        self.value = float(value)
        super().__init__(
            f"{side} bound left [-1e12, 1e12] at t = {time_reached:.6g} (value {value:.3g}): "
            "a finite-time blow-up and a finite bound past the threshold both do this"
        )


class NonPositiveError(ValueError):
    """The growth function is not strictly positive at ``x``."""

    def __init__(self, x):
        self.x = float(x)
        super().__init__(f"growth function is not strictly positive at {x:.6g}")


@dataclass(frozen=True)
class BoundEnvelope:
    """Node-wise deterministic bounds L <= solution <= U on a time grid."""

    grid: TimeGrid
    lower: np.ndarray
    upper: np.ndarray
    terminal: tuple

    def __post_init__(self):
        a, b = self.terminal
        if not (a <= 0.0 <= b):
            raise ValueError("terminal pair must satisfy a <= 0 <= b")
        L = np.asarray(self.lower, dtype=float)
        U = np.asarray(self.upper, dtype=float)
        n = len(self.grid.nodes)
        if len(L) != n or len(U) != n:
            raise ValueError("bound arrays must match the grid")
        if not (L[-1] == a and U[-1] == b):
            raise ValueError("bounds must hit the terminal pair")
        slack = 1e-9 * max(1.0, float(np.max(np.abs(U))), float(np.max(np.abs(L))))
        ok = (
            np.all(L[0] <= L + slack)
            and np.all(L <= a + slack)
            and np.all(b - slack <= U)
            and np.all(U <= U[0] + slack)
        )
        if not ok:
            raise ValueError("bound ordering L_0 <= L_t <= a <= 0 <= b <= U_t <= U_0 violated")
        object.__setattr__(self, "lower", L)
        object.__setattr__(self, "upper", U)


# 7-point Gauss-Legendre nodes (row 0) and weights (row 1), from [-1, 1] to [0, 1]
_GAUSS = 0.5 * np.array([
    [-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
     0.4058451513773972, 0.7415311855993945, 0.9491079123427586],
    [0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
     0.3818300505051187, 0.27970539148927687, 0.12948496616886973]]) + [[0.5], [0.0]]


def _panels(f, lo, hi):
    """Gauss-Legendre estimates of the integrals of f and of |f| over each [lo, hi]."""
    width = hi - lo
    x = lo[:, None] + width[:, None] * _GAUSS[0]
    values = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    weights = _GAUSS[1]  # einsum: a BLAS product would run long ones on several threads
    return (np.einsum("ij,j->i", values, weights) * width,
            np.einsum("ij,j->i", np.abs(values), weights) * width)


def _integrate(f, a, b, name):
    """Integrals of f over each [a_i, b_i] (1-d arrays), by Gauss-Legendre
    panels bisected wherever a panel and its two halves disagree by more than
    ``QUAD_TOL`` times the integral of |f| over the panel's interval; one call
    of f on an array per level.  A panel still unsettled after ``QUAD_DEPTH``
    bisections, or more than ``QUAD_PANELS`` live panels, raises ValueError
    naming ``name`` and its interval.

    The first panels cut each interval at a + (1 + |a|) 2^k, so that none is
    much wider than its distance scale from a: a steep f (1/exp(x) from 10 to
    1e6) may hold all its mass between the Gauss nodes of a wider one."""
    n, scale = len(a), 1.0 + np.abs(a)
    reach = float(np.max((b - a) / scale, initial=1.0))
    cuts = a[:, None] + scale[:, None] * 2.0 ** np.arange(math.ceil(math.log2(reach)))
    ends = np.concatenate([a[:, None], np.minimum(cuts, b[:, None]), b[:, None]], axis=1)
    keep = ends[:, :-1] < ends[:, 1:]
    keep[:, 0] = True  # an empty or reversed interval is one panel
    lo, hi, owner = ends[:, :-1][keep], ends[:, 1:][keep], np.nonzero(keep)[0]
    total, total_mag = np.zeros(n), np.zeros(n)
    for _ in range(QUAD_DEPTH):
        if len(lo) > QUAD_PANELS:
            break
        mid = 0.5 * (lo + hi)
        est, mag = _panels(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
        k = len(lo)
        pair, mag = est[k:2 * k] + est[2 * k:], mag[k:2 * k] + mag[2 * k:]
        done = np.abs(pair - est[:k]) <= QUAD_TOL * (total_mag + np.bincount(owner, mag, n))[owner]
        total += np.bincount(owner[done], pair[done], n)
        total_mag += np.bincount(owner[done], mag[done], n)
        if done.all():
            return total
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        owner = np.tile(owner[keep], 2)
    i = owner.min()
    limit = (f"within {QUAD_PANELS} panels" if len(lo) > QUAD_PANELS
             else f"in {QUAD_DEPTH} bisections")
    raise ValueError(f"the integral of {name} over [{a[i]:.6g}, {b[i]:.6g}] does not "
                     f"settle {limit}")


def _sampled(l, x):
    """l at the array ``x``.  Where the checked l raises, its staged form runs
    with overflow allowed, so that a sample past the largest double is +inf
    (1/l = 0, and the integral of 1/l beyond it is below 1e12 / 1.8e308).
    Any other failure, or a NaN or -inf sample, re-raises the checked l's
    error."""
    try:
        return np.asarray(l(x), dtype=float)
    except EvalDomainError as error:
        pre, body = l.split(l.variables[0])
        try:
            with np.errstate(over="ignore", invalid="raise", divide="raise", under="ignore"):
                lx = np.asarray(body(x, *pre()), dtype=float)
        except FloatingPointError:
            raise error from None
        if np.isnan(lx).any() or (lx == -math.inf).any():
            raise error from None
        return np.broadcast_to(lx, np.shape(x))


def _reciprocal(l, sign=1.0):
    """x -> 1 / l(sign * x); a sample where l <= 0 raises NonPositiveError at
    the least such x, and one that overflows to +inf gives 0."""
    def reciprocal(x):
        lx = _sampled(l, sign * x)
        if not (lx > 0.0).all():
            raise NonPositiveError(sign * float(x[lx <= 0.0].min()))
        return 1.0 / lx
    return reciprocal


def solve_growth_ode(side, terminal, u_w, l, grid):
    """Node values of the upper or lower growth bound on the given grid.

    U = F^-1(S), with F(x) = int_b^x ds / l(s) and S(t) = int_t^T u_w: S at
    the nodes by ``_integrate``, before l is called, then Newton's method
    (F' = 1/l) on all nodes at once, F summed over the panels between
    successive iterates, bisecting a node's bracket wherever a step would
    leave it.  The lower bound is the upper one of x -> l(-x) from -terminal,
    negated.  ``u_w`` must accept an array of times.  Raises
    :class:`BlowUpError` at the t with S(t) = F(+-1e12), and
    :class:`NonPositiveError` at the first x from the terminal value where a
    sample of l is not positive.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if not math.isfinite(terminal):
        raise ValueError(f"the terminal value must be finite, got {terminal!r}")
    if side == "lower" and terminal > 0:
        raise ValueError("lower bound needs a terminal value <= 0")
    if side == "upper" and terminal < 0:
        raise ValueError("upper bound needs a terminal value >= 0")
    nodes = grid.nodes
    u_name = f"u = {u_w.expr.to_source() if hasattr(u_w, 'expr') else repr(u_w)}"
    S = np.append(np.cumsum(_integrate(u_w, nodes[:-1], nodes[1:], u_name)[::-1])[::-1], 0.0)
    if S.min() < 0.0:
        raise ValueError(f"the integral of {u_name} from t = {nodes[S.argmin()]:.6g} to T is < 0")
    l = _as_univariate(l)
    sign = 1.0 if side == "upper" else -1.0
    inverse = _reciprocal(l, sign)
    b = sign * float(terminal)
    with np.errstate(divide="ignore"):  # where l overflowed at b, 1/l is 0 and l_b is inf
        l_b = 1.0 / inverse(np.array([b]))[0]
    if l_b < math.inf:
        # start where F^-1 would be if l were its secant between b and Euler's
        # step to the largest S: exact for an affine l (e^50 is past any
        # bracket); Euler's step where l is not positive or overflows there
        top = min(b + S.max() * l_b, BLOWUP_THRESHOLD)
        l_top = _sampled(l, np.array([sign * top]))[0]
        secant = (l_top - l_b) / (top - b) if top > b and 0.0 < l_top < math.inf else 0.0
        z = np.minimum(S * secant, 50.0)
        x = b + l_b * S * np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
    else:  # 1/l is 0 at b: the nodes with S > 0 start at the threshold
        x = np.where(S > 0.0, BLOWUP_THRESHOLD, b)
    x = np.minimum(x, BLOWUP_THRESHOLD)
    lo, hi = np.full(len(S), b), np.full(len(S), BLOWUP_THRESHOLD)
    done = S == 0.0
    l_name = f"1/l with l(x) = {l.to_source()}"
    for _ in range(_NEWTON_STEPS):
        if done.all():
            return sign * x
        try:
            inv_x = inverse(x)
            order = np.argsort(x)
            F = np.empty(len(x))
            F[order] = np.cumsum(_integrate(inverse, np.append(b, x[order][:-1]), x[order], l_name))
        except NonPositiveError as exc:
            # l is not positive at bad, so no root lies past it: reopen the nodes beyond
            bad = sign * exc.x
            past = x >= bad
            if np.any(lo[past] >= bad):
                raise
            hi[past], done[past] = bad, False
            x = np.where(past, 0.5 * (lo + hi), x)
            continue
        r = S - F
        if np.any(blown := (x == BLOWUP_THRESHOLD) & (r > 0.0)):
            _raise_blow_up(side, sign, u_w, u_name, nodes, S, F[np.argmax(blown)])
        below = r > 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        # where l overflowed, 1/l = 0 and the step is +-inf: it tries the threshold or bisects
        newton = x + np.divide(r, inv_x, out=np.where(r == 0.0, 0.0, np.copysign(np.inf, r)),
                               where=inv_x != 0.0)
        # a step past the threshold tries the threshold; one leaving the bracket bisects it
        up = (newton >= hi) & (hi == BLOWUP_THRESHOLD)
        step = np.where((lo < newton) & (newton < hi), newton,
                        np.where(up, BLOWUP_THRESHOLD, 0.5 * (lo + hi)))
        settled = np.abs(r) <= QUAD_TOL * S
        collapsed = ~settled & ~done & (hi - lo <= 2.0**-50 * hi)
        if collapsed.any():  # a bracket closed on a point where l is not positive raises there
            inverse(hi[collapsed])
        x = np.where(done | collapsed, x, np.where(settled, newton, step))
        done |= settled | collapsed
    raise RuntimeError(f"Newton's method did not settle within {_NEWTON_STEPS} steps")


def _raise_blow_up(side, sign, u_w, u_name, nodes, S, F_top):
    """BlowUpError at the t with S(t) = F_top: on the step [t_i, t_i+1] where
    S crosses F_top, the root of f(t) = F_top - S(t_i+1) - int_t^t_i+1 u_w,
    which increases with f' = u_w, settled by rtsafe (``_settled``)."""
    i = int(np.flatnonzero(S > F_top)[-1])
    end = nodes[i + 1:i + 2]
    t, _ = _settled(lambda t: (F_top - S[i + 1] - _integrate(u_w, t, end, u_name), u_w(t)),
                    nodes[i:i + 1], end)
    raise BlowUpError(side, float(t[0]), sign * BLOWUP_THRESHOLD)


def sandwich_envelope(xi_bound, u_w, l, grid):
    """Two-sided deterministic envelope for terminal data bounded by xi_bound."""
    if not (np.isfinite(xi_bound) and xi_bound >= 0):
        raise ValueError("xi_bound must be finite and nonnegative")
    upper = solve_growth_ode("upper", xi_bound, u_w, l, grid)
    lower = solve_growth_ode("lower", -xi_bound, u_w, l, grid)
    return BoundEnvelope(grid, lower, upper, (-xi_bound, xi_bound))


def _reverse_cumtrapz(values, nodes):
    """I[..., i] = integral from nodes[i] to nodes[-1] by the trapezoid rule,
    along the last axis of values."""
    seg = 0.5 * (values[..., 1:] + values[..., :-1]) * np.diff(nodes)
    out = np.zeros(np.shape(values))
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def _check_datum(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def gronwall_cap(b1, k, beta, grid):
    """(b1 + k int_0^T beta) exp(k int_0^T beta) with trapezoid quadrature."""
    _check_datum("b1", b1)
    _check_datum("k", k)
    integral = float(np.trapezoid(np.asarray(beta(grid.nodes), dtype=float), grid.nodes))
    return (b1 + k * integral) * math.exp(k * integral)


@dataclass(frozen=True)
class BihariResult:
    n_values: tuple
    b_values: tuple
    grid: TimeGrid
    cap: float
    iterates: np.ndarray  # shape (len(n_values), len(nodes)); converged v_n
    iterations: tuple
    converged: tuple
    last_changes: tuple
    monotone_in_n: bool
    monotone_violation: float
    cap_excess_converged: float
    cap_excess_transient: float
    limit_estimate: np.ndarray

    @property
    def all_converged(self):
        return all(self.converged)


def _limit_estimate(values):
    """Geometric-sequence extrapolation (iterated delta-squared) of each
    column of ``values``, whose rows are the terms, clamped at 0.

    Up to three passes: data decaying like sums of geometric modes keep one
    fewer mode per pass.  Where a second difference is below 1e-300 in size
    the pass keeps the last of its three terms.
    """
    seq = np.asarray(values, dtype=float)
    for _ in range(3):
        if len(seq) < 3:
            break
        a0, a1, a2 = seq[:-2], seq[1:-1], seq[2:]
        denom = a2 - 2.0 * a1 + a0
        flat = np.abs(denom) < 1e-300
        # float_power is libm pow, as a scalar ``** 2`` is; ``** 2`` on an array is a product
        step = np.float_power(a1 - a0, 2.0)
        np.divide(step, denom, out=step, where=~flat)
        seq = np.where(flat, a2, a0 - step)
    return np.where(seq[-1] > 0.0, seq[-1], 0.0)


def bihari_sequence(
    psi,
    k,
    beta,
    n_values,
    b_seq,
    grid,
    *,
    j_max=500,
    envelope_grid=None,
):
    """Iterated modulus bounds v_n and their extrapolated limit.

    For each n: psi_n is the (n + 2k)-Lipschitz majorant of psi; starting
    from the constant Gronwall cap, iterate

        v^{j+1}(t) = b_n + int_t^T beta(s) psi_n(v^j(s)) ds

    until the sup change drops below ``BIHARI_TOL`` (or j_max, reported as
    non-converged).  The result records whether the converged v_n are
    non-increasing in n, their worst excess over the cap, and a per-node
    limit estimate extrapolated from the n sequence.
    """
    psi = _as_univariate(psi)
    n_values = tuple(int(n) for n in n_values)
    b_seq = tuple(float(b) for b in b_seq)
    if len(n_values) != len(b_seq):
        raise ValueError("n_values and b_seq must have equal length")
    if any(n < 1 for n in n_values) or any(np.diff(n_values) <= 0):
        raise ValueError("n_values must be increasing positive integers")
    _check_datum("k", k)
    for i, b in enumerate(b_seq):
        _check_datum(f"b_seq[{i}]", b)
    if any(np.diff(b_seq) > 0):
        raise ValueError("b_seq must be nonnegative and non-increasing")
    if abs(float(psi(0.0))) > 1e-12:
        raise ValueError("psi(0) must be 0")
    cap = gronwall_cap(b_seq[0], k, beta, grid)
    probe = np.linspace(0.0, 2.0 * cap + 1.0, 257)
    psi_probe = np.asarray(psi(probe), dtype=float)
    if np.any(psi_probe < 0) or np.any(np.diff(psi_probe) < -1e-12):
        raise ValueError("psi must be nonnegative and nondecreasing (sampled)")
    if np.any(psi_probe > k * (1.0 + probe) + 1e-9):
        raise ValueError(f"psi exceeds the certified linear growth k (1 + x) with k={k}")
    nodes = grid.nodes
    beta_vals = np.asarray(beta(nodes), dtype=float)
    egrid = envelope_grid or EnvelopeGrid(radius=max(2.0 * cap + 1.0, 10.0))

    # the rows are independent fixed-point iterations: step every row that
    # has not converged in one stacked envelope call, and freeze the others;
    # every step's envelope shares psi_all's node tables, so a row's search
    # grid is built again only when its radius changes
    psi_all = LipschitzEnvelope(psi, np.asarray(n_values, dtype=float) + 2.0 * k, k, egrid)
    b_col = np.asarray(b_seq)[:, None]
    all_v = np.full((len(n_values), len(nodes)), cap)
    iterations = np.full(len(n_values), j_max)
    converged = np.zeros(len(n_values), dtype=bool)
    last_changes = np.full(len(n_values), math.inf)
    transient_excess = 0.0
    active = np.arange(len(n_values))
    for j in range(1, j_max + 1):
        if active.size == 0:
            break
        v = all_v[active]
        integrand = beta_vals * psi_all.rows(active).batch(np.maximum(v, 0.0))
        v_next = b_col[active] + _reverse_cumtrapz(integrand, nodes)
        change = np.max(np.abs(v_next - v), axis=1)
        transient_excess = max(transient_excess, float(np.max(v_next - cap)))
        all_v[active] = v_next
        last_changes[active] = change
        done = change < BIHARI_TOL
        iterations[active[done]] = j
        converged[active[done]] = True
        active = active[~done]

    mono_gap = float(np.max(all_v[1:] - all_v[:-1])) if len(n_values) > 1 else 0.0
    limit = _limit_estimate(all_v)
    return BihariResult(
        n_values=n_values,
        b_values=b_seq,
        grid=grid,
        cap=cap,
        iterates=all_v,
        iterations=tuple(iterations.tolist()),
        converged=tuple(converged.tolist()),
        last_changes=tuple(last_changes.tolist()),
        monotone_in_n=mono_gap <= 1e-9,
        monotone_violation=mono_gap,
        cap_excess_converged=float(np.max(all_v - cap)),
        cap_excess_transient=transient_excess,
        limit_estimate=limit,
    )


@dataclass(frozen=True)
class OsgoodDiagnostic:
    """Heuristic divergence table for int dx / l(x); not a proof either way."""

    inner: dict  # eps -> integral over [eps, upper]
    outer: dict  # M -> integral over [upper, M]
    increments: tuple
    likely_osgood: bool


def osgood_diagnostic(l, upper):
    """Tabulated integrals of 1/l from each of ``OSGOOD_EPS`` and toward infinity.

    Each integral is ``_integrate``'s of x / l(x) in s = ln x.  The verdict is
    'likely divergent' iff the outer integrals keep growing: the last decade's
    increment is at least half the previous one.  Labelled heuristic: sampling
    can never decide membership.
    """
    l = _as_univariate(l)
    if upper <= 0:
        raise ValueError("upper must be positive")
    if not all(0 < eps < upper for eps in OSGOOD_EPS):
        raise ValueError("eps values must lie in (0, upper)")
    tops = [m for m in (10.0, 100.0, 1000.0, 10000.0) if m > upper]
    if len(tops) < 3:
        raise ValueError("upper is too large for the decade table (needs upper < 100)")
    inverse = _reciprocal(l)
    values = _integrate(lambda s: np.exp(s) * inverse(np.exp(s)),
                        np.log([*OSGOOD_EPS, *[upper] * len(tops)]),
                        np.log([upper] * len(OSGOOD_EPS) + tops),
                        f"x/l(x) in s = ln x, with l(x) = {l.to_source()}")
    inner = dict(zip(OSGOOD_EPS, values.tolist()))
    series = values[len(OSGOOD_EPS):].tolist()
    outer = dict(zip(tops, series))
    increments = tuple(b - a for a, b in zip([0.0] + series[:-1], series))
    likely = increments[-1] >= 0.5 * increments[-2]
    return OsgoodDiagnostic(inner=inner, outer=outer, increments=increments, likely_osgood=likely)
