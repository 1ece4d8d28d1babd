"""Deterministic backward-ODE machinery: two-sided bounds, the Gronwall cap
and the iterated modulus bound, plus an integral divergence diagnostic.

The two-sided bounds integrate

    U'(t) = -u(t) l(U(t)),  U(T) = b >= 0      (upper)
    L'(t) =  u(t) l(L(t)),  L(T) = a <= 0      (lower)

backwards from the horizon; for l in the divergent-integral class both stay
finite on [0, T] and sandwich every bounded solution of the corresponding
terminal-value problem.  Non-membership shows up as finite-time blow-up,
which is detected and reported rather than silently propagated.

Each RK4 sweep tabulates u at its stage times in one vector call (t_j,
t_j + h/2 and t_j + h, formed exactly as the sweep forms them), so the loop
calls only l, four times per substep; errors in u still surface at the
stage that meets them.  The iterated modulus bound builds each row's
Lipschitz-envelope search grid, psi on it and its running-argmax tables
once, and builds them again only when the row's search radius moves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .envelopes import EnvelopeGrid, LipschitzEnvelope
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
# solve_growth_ode halves its RK4 step until two sweeps agree within
# GROWTH_ODE_TOL in sup norm, at most MAX_REFINEMENTS times
GROWTH_ODE_TOL = 1e-8
MAX_REFINEMENTS = 14
# bihari_sequence stops a row once it moves by less than BIHARI_TOL in sup norm;
# osgood_diagnostic integrates 1/l from each OSGOOD_EPS on LOG_QUADRATURE_NODES nodes
BIHARI_TOL = 1e-9
OSGOOD_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
LOG_QUADRATURE_NODES = 4001


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
        steps = np.diff(self.nodes)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("grid is not uniform")
        return float(steps[0])

    @classmethod
    def uniform(cls, horizon, steps):
        if steps < 1:
            raise ValueError("need at least one step")
        return cls(np.linspace(0.0, float(horizon), steps + 1))

    def refined(self, factor=2):
        nodes = [self.nodes[0]]
        for a, b in zip(self.nodes[:-1], self.nodes[1:]):
            nodes.extend(np.linspace(a, b, factor + 1)[1:])
        return TimeGrid(np.asarray(nodes))


class BlowUpError(RuntimeError):
    """The backward integral curve left [-1e12, 1e12] before reaching t = 0."""

    def __init__(self, side, time_reached, value):
        self.side = side
        self.time_reached = float(time_reached)
        self.value = float(value)
        super().__init__(
            f"{side} bound blew up at t={time_reached:.6g} (value {value:.3g}); "
            "the growth function is outside the divergent-integral class on "
            "the traversed range for this terminal datum"
        )


class NonPositiveError(ValueError):
    pass


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


# Stage times tabulated per u_w call: a sweep of up to this many stages is one
# call, a longer one runs in blocks of whole intervals so the table stays small.
_STAGE_BLOCK = 1 << 16


def _stage_weights(u_w, sign, nodes, substeps):
    """sign * u_w(s) at every stage time s of a backward RK4 sweep, in the
    order the sweep asks for them, one block of intervals at a time.

    Per interval, from the top: t_0 = t_hi, m_0, t_1, m_1, ..., t_S, with
    t_{j+1} = t_j + h and m_j = t_j + 0.5*h formed as the sweep forms them,
    so every time is bit-identical to the one the sweep would pass.  The
    sweep evaluates u_w at t_j + h both for k4 and for the next k1, and at
    m_j for both k2 and k3; one value serves both.  When the vector call
    raises :class:`EvalDomainError`, that block is evaluated stage by stage
    as the sweep consumes it, so the error surfaces at the stage that causes
    it, after the stages before it.
    """
    h = (nodes[:-1] - nodes[1:]) / substeps
    width = 2 * substeps + 1
    per_block = max(1, _STAGE_BLOCK // width)
    for stop in range(len(h), 0, -per_block):
        rows = slice(max(0, stop - per_block), stop)
        ticks = np.empty((stop - rows.start, substeps + 1))
        ticks[:, 0] = nodes[1:][rows]
        ticks[:, 1:] = h[rows, None]
        np.add.accumulate(ticks, axis=1, out=ticks)
        times = np.empty((len(ticks), width))
        times[:, ::2] = ticks
        times[:, 1::2] = ticks[:, :-1] + 0.5 * h[rows, None]
        times = times[::-1].ravel()
        try:
            values = np.broadcast_to(np.asarray(u_w(times), dtype=float), times.shape)
        except EvalDomainError:
            yield (sign * float(u_w(t)) for t in times)
        else:
            yield (sign * values).tolist()


def _rk4_backward(weights, l, terminal, grid_nodes, substeps, side):
    """Classical 4th-order sweep of x' = w(t) l(x) from t = T down to 0,
    storing node values; ``weights`` iterates over w at the stage times as
    :func:`_stage_weights` orders them."""
    values = np.empty(len(grid_nodes))
    values[-1] = terminal
    x = float(terminal)
    nodes = grid_nodes.tolist()
    for i in range(len(nodes) - 1, 0, -1):
        t_hi = nodes[i]
        t_lo = nodes[i - 1]
        h = (t_lo - t_hi) / substeps  # negative
        t = t_hi
        w_t = next(weights)
        for _ in range(substeps):
            k1 = w_t * l(x)
            w_mid = next(weights)
            k2 = w_mid * l(x + 0.5 * h * k1)
            k3 = w_mid * l(x + 0.5 * h * k2)
            w_t = next(weights)
            k4 = w_t * l(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + h
            if not math.isfinite(x) or abs(x) > BLOWUP_THRESHOLD:
                raise BlowUpError(side, t, x)
        values[i - 1] = x
    return values


def solve_growth_ode(side, terminal, u_w, l, grid):
    """Node values of the upper or lower growth bound on the given grid.

    Integrates backward from t = T with classical RK4, halving the internal
    step until two successive refinements agree (see ``GROWTH_ODE_TOL``).
    Each sweep tabulates u_w at its stage times in one vector call, so
    ``u_w`` must accept an array of times.
    Raises :class:`BlowUpError` when the curve escapes, and
    :class:`NonPositiveError` when l is not strictly positive on the
    traversed range.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if side == "lower" and terminal > 0:
        raise ValueError("lower bound needs a terminal value <= 0")
    if side == "upper" and terminal < 0:
        raise ValueError("upper bound needs a terminal value >= 0")
    l = _as_univariate(l)

    def l_checked(x):
        val = float(l(x))
        if val <= 0.0:
            raise NonPositiveError(f"growth function is not strictly positive at {x:.6g}")
        return val

    sign = -1.0 if side == "upper" else 1.0
    prev = None
    substeps = 1
    for _ in range(MAX_REFINEMENTS + 1):
        weights = itertools.chain.from_iterable(_stage_weights(u_w, sign, grid.nodes, substeps))
        vals = _rk4_backward(weights, l_checked, float(terminal), grid.nodes, substeps, side)
        if prev is not None and float(np.max(np.abs(vals - prev))) < GROWTH_ODE_TOL:
            return vals
        prev = vals
        substeps *= 2
    raise RuntimeError(
        f"backward integration did not stabilise within {MAX_REFINEMENTS} refinements"
    )


def sandwich_envelope(xi_bound, u_w, l, grid):
    """Two-sided deterministic envelope for terminal data bounded by xi_bound."""
    if not (np.isfinite(xi_bound) and xi_bound >= 0):
        raise ValueError("xi_bound must be finite and nonnegative")
    upper = solve_growth_ode("upper", xi_bound, u_w, l, grid)
    lower = solve_growth_ode("lower", -xi_bound, u_w, l, grid)
    return BoundEnvelope(grid, lower, upper, (-xi_bound, xi_bound))


def _trapezoid(values, nodes):
    return float(np.trapezoid(values, nodes))


def _reverse_cumtrapz(values, nodes):
    """I[..., i] = integral from nodes[i] to nodes[-1] by the trapezoid rule,
    along the last axis of values."""
    seg = 0.5 * (values[..., 1:] + values[..., :-1]) * np.diff(nodes)
    out = np.zeros(np.shape(values))
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def gronwall_cap(b1, k, beta, grid):
    """(b1 + k int_0^T beta) exp(k int_0^T beta) with trapezoid quadrature."""
    if b1 < 0 or k < 0:
        raise ValueError("b1 and k must be >= 0")
    integral = _trapezoid(np.asarray(beta(grid.nodes), dtype=float), grid.nodes)
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
    if any(b < 0 for b in b_seq) or any(np.diff(b_seq) > 0):
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


def _log_quadrature(l, lo, hi):
    """int_lo^hi dx / l(x) via the substitution x = e^s (lo > 0)."""
    s = np.linspace(math.log(lo), math.log(hi), LOG_QUADRATURE_NODES)
    x = np.exp(s)
    lx = np.asarray(l(x), dtype=float)
    if np.any(lx <= 0):
        raise NonPositiveError("growth function must be strictly positive on the range")
    return _trapezoid(x / lx, s)


def osgood_diagnostic(l, upper):
    """Tabulated integrals of 1/l from each of ``OSGOOD_EPS`` and toward infinity.

    The verdict is 'likely divergent' iff the outer integrals keep growing:
    the last decade's increment is at least half the previous one.  Labelled
    heuristic: sampling can never decide membership.
    """
    l = _as_univariate(l)
    if upper <= 0:
        raise ValueError("upper must be positive")
    inner = {}
    for eps in OSGOOD_EPS:
        if not (0 < eps < upper):
            raise ValueError("eps values must lie in (0, upper)")
        inner[eps] = _log_quadrature(l, eps, upper)
    tops = [m for m in (10.0, 100.0, 1000.0, 10000.0) if m > upper]
    if len(tops) < 3:
        raise ValueError("upper is too large for the decade table (needs upper < 100)")
    outer = {}
    for top in tops:
        outer[top] = _log_quadrature(l, upper, top)
    series = [outer[m] for m in tops]
    increments = tuple(b - a for a, b in zip([0.0] + series[:-1], series))
    likely = increments[-1] >= 0.5 * increments[-2]
    return OsgoodDiagnostic(inner=inner, outer=outer, increments=increments, likely_osgood=likely)
