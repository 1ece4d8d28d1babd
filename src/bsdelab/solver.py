"""Discrete-time solvers for scalar terminal-value equations driven by a
one-dimensional Brownian motion.

Both backends run one backward sweep, ``_backward_sweep``, over a stack of
problems (generator, terminal, scheme, z_clamp) on one substrate:

    (E_i, z_i) = expect(i, y_{i+1})
    y_i = E_i + g(t_i, E_i, z_i) dt                 (explicit)
    y_i solves y = E_i + g(t_i, y, z_i) dt          (implicit, Newton's method)

``expect`` runs once per level for the whole stack; each problem then takes
its own update, trap and replay, diagnostics and errors, so that its solution
has the bits of its own sweep.  In a stack of more than one, an error names
its problem.  ``solve_tree`` sweeps a stack of one, ``solve_tree_stack`` any
number on one tree; Monte Carlo sweeps one problem per ensemble.

The driver runs staged at y (``Expression.split``): once per level, its
largest sub-expressions free of y, such as ``abs(z)^1.5`` in
``-y^3 + abs(z)^1.5*sin(y)``, are evaluated from (t_i, z_i); each update then
evaluates only the rest, from the same numpy operations, so every value is the
whole driver's, bit for bit.  A driver without y gets one update in either
scheme.  Errors name the step, the node and the point: (t, E, z) of a
non-finite value, (t, y, z) of an implicit step without a root.  An
expression never returns a non-finite payoff.

The implicit step finds the root of h(y) = y - E - g(t, y, z) dt at all nodes
of a level at once by Newton's method from y = E, with h' = 1 - g_y dt from
the symbolic derivative ``Expression.derivative("y")``, staged over the
driver's parts.  The slope is evaluated again only after a step longer than
``THETA_REFRESH`` times the one before.  It stops when the step is below
``NEWTON_TOL`` in sup norm, or the error theta / (1 - theta) |step|
estimated from the observed contraction theta (Hairer and Wanner, *Solving
ODEs II*, IV.8) below ``RATE_TOL``, and after one step where g is affine in y.
Under the one-sided condition g_y <= mu with mu dt < 1, h is increasing and
the root unique.  Where h' <= 0 or is not finite, where a step on a fresh
slope does not contract after one that was also fresh, or after
``NEWTON_CAP`` steps, the level goes on bracketed: a bracket grown from E by
doubling, and Newton's step where it stays inside, bisection elsewhere
(rtsafe, *Numerical Recipes* 9.4).  The growth probes evaluate the staged
driver with flags ignored; once a node's probe is not finite, such as sqrt's
below 0 or an overflow, its probes bisect back between its last finite one
and its nearest non-finite one.  It fails only where no sign change is found
within 2^63 |h(E)| of E on either side, or within the driver's domain.

Trap, then replay.  Each level first runs ``expect``, the clamp and the
staged driver and derivative (the checked code with helpers that test
nothing) under one ``np.errstate`` that raises on overflow, invalid and
divide (underflow is no error), entered once per sweep.  Where ``expect``
traps, it runs again with flags ignored, and the problems whose estimates are
not finite are replayed.  From finite inputs,
IEEE arithmetic cannot reach inf or NaN without raising one of those flags,
so a level that finishes has every value the checked code gives, and would
have passed each of its tests.  A level that raises ``FloatingPointError``
or a ``SolverError`` is re-run under ``np.errstate(all="ignore")`` by the
same code with the whole checked driver, unstaged, which gives its values,
or its error with the step, node and point; the derivative stays the staged
one, where inf or NaN sends a level to its bracket.
``diagnostics["replayed_levels"]`` counts the levels re-run, and
``diagnostics["picard_max_iterations"]`` the most root-finding steps of any
level, Newton's and bracketed ones.  Five rules keep the premise:

- a variable-free sub-expression of the driver or of g_y that does not fold
  to a finite literal takes its literals as numpy floats, and a non-finite
  literal raises the invalid flag, since Python computes ``1e308*10`` as inf
  with no flag: each level of ``min(y, 1e400) - y^3`` traps, and its replay
  takes Newton's steps on the staged slope;
- ``x^0`` is a numpy 1.0 in it, for the same reason: ``y^0*1e308*10`` then
  raises, and so does ``y^0/0``;
- t enters it as a numpy float64, for the same reason: ``t*1e308*10`` then
  raises, and so does ``1/(t - 0.5)`` at t = 0.5;
- ``body * dt`` is ``np.multiply``, since a constant driver's body returns a
  Python float;
- a regression coefficient that ``np.linalg`` leaves non-finite (it
  computes with its flags ignored) raises the invalid flag.

The two backends differ only in the conditional-expectation operator
``expect``.  On the recombining binomial tree (increments +-sqrt(dt) with
probability 1/2) it is the exact pairwise average,
``TreeModel.pairwise_average``, along the last axis of the (k, nodes) stack:

    E_i    = y_{i+1, j+1} / 2 + y_{i+1, j} / 2
    z_{ij} = (y_{i+1, j+1} - y_{i+1, j}) / (2 sqrt(dt))

The level is halved before it is summed, so that neighbours near the largest
double average to a finite value; wherever their sum is finite and normal
this gives the same bits as (a + b) / 2.  Every operation is elementwise, so
a row of the stack has the bits of the same row alone.

On Monte Carlo it is one least-squares projection of the two targets y_{i+1}
and y_{i+1} dB_i / dt onto the orthonormal probabilists' Hermite polynomials
He_k(x) / sqrt(k!), k <= degree, of x = B_{t_i} / sqrt(t_i).  Since x ~ N(0, 1)
the Gram matrix G of the basis is close to the identity, so each step solves
the (degree + 1)-square normal equations by Cholesky and records the basis
condition number sqrt(lambda_max / lambda_min) of G.

Both backends are deterministic functions of their inputs and evaluate the
driver on a single thread; the Monte-Carlo ensemble is generated by a
counter-based bit stream keyed by the seed, one row per node, and the sweep
releases each row it has passed, so that a solve peaks at about its own rows.
Every row of a solution's y and z is read-only, so that one solution can be
shared by several callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .envelopes import ROOT_CAP, _settled
from .expressions import EvalDomainError, ExpressionError, all_finite
from .generators import Generator, TerminalCondition
from .ode_bounds import TimeGrid

__all__ = ["TreeModel", "PathEnsemble", "DiscreteSolution", "SolverError", "ImplicitStepError",
           "PicardDivergenceError", "RankDeficientError", "solve_tree", "solve_tree_stack",
           "solve_mc_regression"]


# The implicit step's Newton iteration stops once its step falls below
# NEWTON_TOL in sup norm, or the error theta / (1 - theta) |step| estimated
# from its observed contraction theta below RATE_TOL, which allows for a theta
# that grows; after NEWTON_CAP steps the level goes on bracketed.  A bracket
# is grown from E by GROWTH_DOUBLINGS probes at most on either side, and
# settled by ``envelopes._settled`` to ROOT_ULPS ulps: an absolute NEWTON_TOL
# stops a bracket 1e-15 wide after one step, which put the root 1.2e-15 of
# y - E + sqrt(y) dt at 6.0e-15.
NEWTON_TOL = 1e-12
RATE_TOL = NEWTON_TOL / 100
NEWTON_CAP = 20
THETA_REFRESH = 0.01
GROWTH_DOUBLINGS = 64


class SolverError(RuntimeError):
    """A solve that cannot go on; ``step`` and ``time`` say where, when known,
    and ``problem``, in a stacked sweep, which of its problems."""

    problem = None

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class ImplicitStepError(SolverError):
    """The implicit step's residual y - E - g(t, y, z) dt keeps its sign."""

    def __init__(self, step, time, node, y, z, below, above):
        self.node = node
        super().__init__(
            f"implicit step has no root at step {step} (t = {time:g}), node {node}: "
            f"y - E - g(t, y, z) dt keeps its sign on [E - {below:.3g}, E + {above:.3g}] "
            f"from (t, y, z) = ({time:g}, {y:g}, {z:g})",
            step,
            time,
        )


# the name of the error when the implicit step was a Picard iteration
PicardDivergenceError = ImplicitStepError


class RankDeficientError(SolverError):
    def __init__(self, step, time, cond):
        self.cond = cond
        where = "" if step is None else f" at step {step} (t = {time:g})"
        super().__init__(
            f"regression basis is rank deficient{where} (condition number {cond:.3g})", step, time
        )


@dataclass(frozen=True)
class TreeModel:
    """Recombining binomial discretisation of the driving Brownian motion."""

    grid: TimeGrid

    @property
    def sqrt_dt(self):
        return math.sqrt(self.grid.dt)

    def brownian_level(self, i):
        """Node values (2j - i) sqrt(dt) for j = 0..i."""
        return (2.0 * np.arange(i + 1) - i) * self.sqrt_dt

    @staticmethod
    def pairwise_average(level):
        """(level[..., j + 1] + level[..., j]) / 2 for j = 0 .. n - 2 along the
        last axis, of length n, halved first."""
        half = 0.5 * level
        return half[..., 1:] + half[..., :-1]

    def level_weights(self):
        """Binomial weights C(i, j) / 2^i of the levels i = 0 .. steps, in order,
        by the tree's own pairwise recursion w_{i+1, j} = (w_{i, j-1} + w_{i, j}) / 2."""
        w = np.ones(1)
        for _ in range(self.grid.steps + 1):
            yield w
            w = 0.5 * (np.append(w, 0.0) + np.append(0.0, w))

    @classmethod
    def uniform(cls, horizon, steps):
        return cls(TimeGrid.uniform(horizon, steps))


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated Brownian increments, reproducible from (seed, paths, grid).

    Time-major, one read-only 1-d row per node: ``increments[i]`` is dB_i and
    ``levels[i]`` is B at node i.  ``generate`` allocates each row apart, so a
    sweep can release the rows it has passed (views of one array free nothing).
    """

    grid: TimeGrid
    paths: int
    seed: int
    increments: tuple  # steps rows of paths values
    levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        increments = tuple(self.increments)
        # np.cumsum's adds, from a copy of dB_0: 0.0 + dB_0 would turn -0.0 into +0.0
        levels = [np.zeros(self.paths), increments[0].copy()]
        for row in increments[1:]:
            levels.append(levels[-1] + row)
        for row in increments + tuple(levels):
            row.flags.writeable = False
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "levels", tuple(levels))

    @classmethod
    def generate(cls, grid, paths, seed):
        if paths < 1:
            raise ValueError("need at least one path")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        draw = gen.standard_normal((paths, grid.steps))  # the stream is path-major
        draw *= math.sqrt(grid.dt)
        increments = [column.copy() for column in draw.T]
        del draw  # release the draw before the levels are summed
        return cls(grid=grid, paths=paths, seed=int(seed), increments=increments)


@dataclass(frozen=True)
class DiscreteSolution:
    """Backward-solved pair on a substrate, with provenance for later checks.

    ``y`` holds one read-only 1-d row per time node (i + 1 nodes at level i on
    the tree, one value per path on Monte Carlo); ``z`` holds one per step
    (the last row is the central difference through the terminal payoff values).
    """

    backend: str  # 'tree' | 'mc-regression'
    grid: TimeGrid
    y: tuple
    z: tuple
    scheme: str
    generator: Generator
    terminal: TerminalCondition
    diagnostics: dict = field(default_factory=dict)
    seed: Optional[int] = None
    paths: Optional[int] = None
    conforming: bool = True

    @property
    def y0(self):
        return float(np.mean(self.y[0]))  # the tree's one root node, or the paths' average

    def level_means(self, rows):
        """The mean of each row under the substrate's law, level by level from
        t_0: binomial weights on the tree, the path average on Monte Carlo."""
        if self.backend == "tree":
            weights = TreeModel(self.grid).level_weights()
            return [np.sum(w * row, axis=-1) for row, w in zip(rows, weights)]
        return [np.mean(row, axis=-1) for row in rows]

    def substrate_key(self):
        return (self.backend, self.grid.steps, self.grid.horizon, self.seed, self.paths)


def _finite_or_raise(y, step, t, E, z):
    if not all_finite(y):
        k = int(np.argmin(np.isfinite(y)))
        raise SolverError(f"non-finite value at step {step} (t = {t:g}, node {k}): "
                          f"(t, E, z) = ({t:g}, {E[k]:g}, {z[k]:g})", step, float(t))
    return y


def _implicit_update(h, slope, probe, affine, i, t, E, z):
    """The root of the level's residual h(y) = y - E - g(t, y, z) dt at every
    node, and the steps taken.

    Newton's method from y = E, with ``slope(y)`` the residual's derivative
    1 - g_y dt.  The slope is evaluated at E, and again only after a step
    longer than THETA_REFRESH times the one before (simplified Newton
    otherwise).  One step where g_y is free of y (``affine``).  Bracketed
    (``_bracketed``, whose growth ``probe``s the residual unchecked) where
    h' <= 0 or is not finite, after two steps on fresh slopes of which the
    second does not contract, after a domain error of the driver, or after
    NEWTON_CAP steps.
    """
    y, r = E, h(E)
    h_E, d, k = r, None, 0
    for k in range(1, NEWTON_CAP + 1):
        fresh = d is None
        if fresh:
            d = slope(y)
            if not (np.minimum.reduce(d) > 0.0 and np.maximum.reduce(d) < math.inf):
                break
        step = r / d
        size = float(np.maximum.reduce(np.abs(step)))
        if not size < math.inf:
            break
        y = y - step
        if size < NEWTON_TOL or affine:
            return y, k
        if k > 1:
            theta = size / last
            if theta >= 1.0 and fresh and last_fresh:  # Newton's own steps do not contract
                break
            if theta < 1.0 and theta * size < (1.0 - theta) * RATE_TOL:
                return y, k
            if theta > THETA_REFRESH:
                d = None
        last, last_fresh = size, fresh
        try:
            r = h(y)
        except EvalDomainError:  # a step left the driver's domain
            break
    y, steps = _bracketed(h, slope, i, t, E, z, h_E, probe)
    return y, k + steps


def _bracketed(h, slope, i, t, E, z, h_E, probe):
    """The root at every node, and the steps taken: a bracket grown from E by
    doubling, first on the side where h would cross zero if it increased,
    then settled by rtsafe (``envelopes._settled``), each node once its move
    is at most ROOT_ULPS ulps or Newton's step leaves it in place.

    The growth evaluates ``probe``, the residual from the unchecked driver,
    with flags ignored.  A node whose probe is not finite has left the
    driver's domain or overflowed there: from then on its probes bisect
    between its last finite probe (E at first) and its nearest non-finite one.
    Raises ImplicitStepError where no sign change is found, and SolverError
    where rtsafe takes all its ROOT_CAP steps."""
    steps = 0
    # near: the last probe with the sign of h(E); far: the first without it
    near, far = E, np.where(h_E == 0.0, E, np.nan)
    kept = {}  # how far from E each node's probes kept the sign of h(E), per direction
    with np.errstate(all="ignore"):
        for side in (1.0, -1.0):
            direction = side * np.copysign(1.0, -h_E)
            near = np.where(np.isnan(far), E, near)
            # distances from E: of near, of the nearest non-finite probe, of the next probe
            inner, outer, reach = np.zeros_like(E), np.full_like(E, np.inf), np.abs(h_E)
            for _ in range(GROWTH_DOUBLINGS):
                todo = np.isnan(far)
                if not todo.any():
                    break
                x = np.where(todo, E + direction * reach, near)
                h_x = probe(x)
                inside = np.isfinite(h_x)
                crossed = todo & inside & (np.sign(h_x) != np.sign(h_E))
                grown = todo & inside & ~crossed
                steps += 1
                far = np.where(crossed, x, far)
                near = np.where(grown, x, near)
                inner = np.where(grown, reach, inner)
                outer = np.where(inside, outer, reach)
                reach = np.where(outer < np.inf, 0.5 * inner + 0.5 * outer, reach * 2.0)
            kept[side] = inner
    if np.isnan(far).any():
        k = int(np.argmax(np.isnan(far)))
        up = 1.0 if h_E[k] < 0.0 else -1.0  # the side whose probes went up from E
        raise ImplicitStepError(i, float(t), k, float(E[k]), float(z[k]),
                                float(kept[-up][k]), float(kept[up][k]))
    a, b = np.where(h_E < 0.0, near, far), np.where(h_E < 0.0, far, near)  # h(a) <= 0 <= h(b)
    y, settle = _settled(lambda x: (h(x), slope(x)), a, b)
    if settle == ROOT_CAP:
        raise SolverError(f"implicit step did not settle within {ROOT_CAP} bracketed steps "
                          f"at step {i} (t = {t:g})", i, float(t))
    return y, steps + settle


# the trap under which a level runs unchecked; underflow is no error
_TRAP = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}


class _Problem:
    """One problem of a sweep: its driver staged at y, its rows and its
    diagnostics."""

    def __init__(self, g, xi, scheme, z_clamp, grid, states):
        if scheme not in ("explicit", "implicit"):
            raise ValueError("scheme must be 'explicit' or 'implicit'")
        if z_clamp is not None and not z_clamp > 0:
            raise ValueError(f"z_clamp must be > 0, got {z_clamp!r}")
        self.g, self.xi, self.scheme, self.z_clamp, self.grid = g, xi, scheme, z_clamp, grid
        # without y the implicit step is the explicit one
        self.single = scheme == "explicit" or "y" not in g.expr.free_variables()
        g_y = None if self.single else g.expr.derivative("y")
        self.affine = not self.single and "y" not in g_y.free_variables()
        # (pre, body) of the driver staged at y, and g_y's body over its parts
        self.staged = g.expr.split("y", *(() if self.single else (g_y,)))
        self.clamped = False
        self.newton_max = 0
        self.replayed = 0
        with np.errstate(all="ignore"):
            xi.check_bound(states)
            terminal = np.asarray(xi(states), dtype=float)
        terminal.flags.writeable = False
        self.y = [None] * grid.steps + [terminal]
        self.z = [None] * grid.steps

    def level(self, i, E, z, trapped):
        """(y_i, z_i, root-finding steps) from the staged driver if ``trapped``,
        else from the whole checked driver; g_y is always the staged one."""
        if self.z_clamp is not None:
            before = z
            z = np.clip(z, -self.z_clamp, self.z_clamp)
            self.clamped = self.clamped or bool(np.any(before != z))
        # t as a numpy float, so that its arithmetic raises flags under the trap
        # and gives inf, not an error, under np.errstate(all="ignore")
        t, dt = self.grid.nodes[i], self.grid.dt
        g, staged = self.g, self.staged
        parts = staged[0](t, z)
        unchecked = lambda y: staged[1](t, y, z, *parts)  # noqa: E731
        g_at = unchecked if trapped else (lambda y: g(t, y, z))
        if self.single:
            y, used = E + np.multiply(g_at(E), dt), 1
        else:
            y, used = _implicit_update(lambda y: (y - E) - np.multiply(g_at(y), dt),
                                       lambda y: 1.0 - np.multiply(staged[2](t, y, z, *parts), dt),
                                       lambda y: (y - E) - np.multiply(unchecked(y), dt),
                                       self.affine, i, t, E, z)
        if not trapped:
            _finite_or_raise(y, i, t, E, z)
        return y, z, used

    def step(self, i, E, z, trap):
        """Keeps level i's rows from the estimates (E_i, z_i), and returns y_i:
        the trapped level if ``trap`` and it finishes, else its replay."""
        y = None
        if trap:
            try:
                y, z, used = self.level(i, E, z, True)
            except (FloatingPointError, SolverError):
                pass
        if y is None:  # the whole checked driver gives the values, or the error
            self.replayed += 1
            with np.errstate(all="ignore"):
                y, z, used = self.level(i, E, z, False)
        if self.scheme == "implicit":
            self.newton_max = max(self.newton_max, used)
        y.flags.writeable = z.flags.writeable = False  # solutions may be shared
        self.y[i], self.z[i] = y, z
        return y

    def solution(self, **source):
        return DiscreteSolution(
            grid=self.grid,
            y=tuple(self.y),
            z=tuple(self.z),
            scheme=self.scheme,
            generator=self.g,
            terminal=self.xi,
            diagnostics={"picard_max_iterations": self.newton_max, "z_clamped": self.clamped,
                         "replayed_levels": self.replayed},
            conforming=not self.clamped,
            **source,
        )


def _name_problem(exc, p, problem):
    """Prefixes the message of ``exc``, raised by problem ``p`` of a stack, with
    that problem."""
    g, xi, scheme, _ = problem
    exc.problem = p
    exc.args = (f"problem {p} ({scheme}, g = {g.to_source()}, terminal {xi.expr.to_source()}): "
                f"{exc}",)


def _backward_sweep(problems, grid, states, expect, **source):
    """The backward recursion shared by both backends, for ``problems``
    (generator, terminal, scheme, z_clamp) on one substrate; returns their
    solutions, in order.  See module docstring.

    ``states`` are the terminal values of B.  ``expect(i, nxt)`` returns the
    backend's estimates (E_i, z_i) of E_i[y_{i+1}] and E_i[y_{i+1} dB_i] / dt
    from one problem's row y_{i+1}, or from the (k, nodes) stack of k
    problems' rows, stacked alike; it runs again with flags ignored where it
    traps.  ``source`` names the backend and its substrate (seed and paths).
    """
    sweeps = []
    for p, problem in enumerate(problems):
        try:
            sweeps.append(_Problem(*problem, grid, states))
        except (SolverError, ExpressionError, ValueError) as exc:
            if len(problems) > 1:
                _name_problem(exc, p, problem)
            raise
    one = len(sweeps) == 1  # one problem sweeps its own rows: no stack, no copy
    nxt = sweeps[0].y[-1] if one else np.array([s.y[-1] for s in sweeps])
    with np.errstate(**_TRAP):
        for i in range(grid.steps - 1, -1, -1):
            try:
                E, z = expect(i, nxt)
                fine = None
            except FloatingPointError:  # replay the problems whose estimates are not finite
                with np.errstate(all="ignore"):
                    E, z = expect(i, nxt)
                    fine = [all_finite(e) and all_finite(w)
                            for e, w in ([(E, z)] if one else zip(E, z))]
            if one:
                nxt = sweeps[0].step(i, E, z, fine is None or fine[0])
            else:
                ys = []
                for p, sweep in enumerate(sweeps):
                    try:
                        ys.append(sweep.step(i, E[p], z[p], fine is None or fine[p]))
                    except (SolverError, ExpressionError, ValueError) as exc:
                        _name_problem(exc, p, problems[p])
                        raise
                nxt = np.array(ys)
            del E, z  # a Monte-Carlo E is a view that holds the level's whole projection
    return [s.solution(**source) for s in sweeps]


def solve_tree_stack(problems, steps, horizon=1.0):
    """``solve_tree`` for each of ``problems``, (generator, terminal, scheme,
    z_clamp), on one tree in one backward sweep: the level loop and the
    pairwise average run once for the (k, nodes) stack.  Each solution has the
    bits and diagnostics of its own ``solve_tree``; an error names its problem.
    """
    tree = TreeModel.uniform(horizon, steps)
    sdt = tree.sqrt_dt

    def expect(i, nxt):
        return tree.pairwise_average(nxt), (nxt[..., 1:] - nxt[..., :-1]) / (2.0 * sdt)

    return _backward_sweep(problems, tree.grid, tree.brownian_level(steps), expect, backend="tree")


def solve_tree(g, xi, steps, horizon=1.0, scheme="explicit", *, z_clamp=None):
    """Backward recursion on the recombining tree; see module docstring.

    The terminal slice equals the payoff at the terminal tree states exactly.
    With ``z_clamp`` set, extracted z values are clipped to [-z_clamp, z_clamp]
    and the solution is labelled non-conforming.
    """
    return solve_tree_stack([(g, xi, scheme, z_clamp)], steps, horizon)[0]


def _hermite_rows(x, out):
    """Orthonormal probabilists' Hermite polynomials He_k(x) / sqrt(k!) of ``x``,
    k = 0 .. len(out) - 1, written into the rows of ``out``."""
    out[0] = 1.0
    out[1] = x
    for k in range(1, len(out) - 1):
        # sqrt(k + 1) h_{k+1} = x h_k - sqrt(k) h_{k-1}
        np.multiply(x, out[k], out=out[k + 1])
        out[k + 1] -= math.sqrt(k) * out[k - 1]
        out[k + 1] /= math.sqrt(k + 1)
    return out


def _regress(basis, target):
    """Least-squares projection of each target column onto the columns of
    ``basis``; returns (fitted values shaped like ``target``, condition number).

    Solves the normal equations by Cholesky, with one refinement step on the
    residual when the condition number exceeds 10.  The condition number of
    ``basis`` is sqrt(lambda_max / lambda_min) of the Gram matrix; the Gram
    matrix squares it, so it cannot resolve the ratio 1e-24 at which an SVD
    would call ``basis`` rank deficient, and the gate is lambda_min <= 1e-12
    lambda_max instead.  Pass ``basis`` as the transpose of a row-major
    (columns, P) array so that each basis function is one contiguous row.
    """
    phi = basis.T
    gram = phi @ basis
    lam = np.linalg.eigvalsh(gram)
    if not lam[0] > 1e-12 * lam[-1]:
        raise RankDeficientError(step=None, time=None, cond=math.inf)
    cond = math.sqrt(lam[-1] / lam[0])
    chol = np.linalg.cholesky(gram)

    def project(rhs):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, phi @ rhs))

    coef = project(target)
    if cond > 10.0:
        # the normal equations lose about cond^2 eps; one refinement step on
        # the residual wins back the cond eps of an orthogonal solve
        coef += project(target - (coef.T @ phi).T)
    if not np.isfinite(coef).all():
        # np.linalg solves with its flags ignored: report the overflow as any
        # other numpy operation does, under the caller's np.errstate
        np.multiply(math.inf, 0.0)
    return (coef.T @ phi).T, cond


def solve_mc_regression(g, xi, steps, paths, degree, seed, horizon=1.0, scheme="explicit", *,
                        z_clamp=None, threads=1):
    """Least-squares Monte-Carlo backward sweep over a simulated ensemble.

    Conditional expectations of y_{i+1} and y_{i+1} dB_i / dt are estimated
    by one projection onto the orthonormal Hermite polynomials of degree <=
    ``degree`` in B_t / sqrt(t) (at t = 0 the basis degenerates to the
    constant, i.e. a plain average).  Deterministic for fixed (seed, paths,
    steps, degree); ``threads`` is ignored, and kept for the callers that pass it.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if paths < 10 * (degree + 1):
        raise ValueError("need at least 10 (degree + 1) paths")
    grid = TimeGrid.uniform(horizon, steps)
    ens = PathEnsemble.generate(grid, paths, seed)
    increments, levels = list(ens.increments), list(ens.levels)  # released as the sweep passes
    del ens
    dt = grid.dt
    conds = [None] * steps
    basis = np.empty((degree + 1, paths))
    targets = np.empty((2, paths))

    def expect(i, y_next):
        # on entry, not on exit: a level whose estimates trap runs expect twice
        del increments[i + 1:], levels[i + 1:]
        targets[0] = y_next
        np.multiply(y_next, increments[i], out=targets[1])
        targets[1] /= dt
        if i == 0:
            conds[0] = 1.0
            return (np.full(paths, float(np.mean(y_next))),
                    np.full(paths, float(np.mean(targets[1]))))
        _hermite_rows(levels[i] / math.sqrt(grid.nodes[i]), basis)
        try:
            fitted, cond = _regress(basis.T, targets.T)
        except RankDeficientError as exc:
            raise RankDeficientError(step=i, time=float(grid.nodes[i]), cond=exc.cond) from None
        conds[i] = cond
        # z is stored per step: copy it out so it does not hold on to E's row
        return fitted[:, 0], fitted[:, 1].copy()

    [sol] = _backward_sweep(
        [(g, xi, scheme, z_clamp)], grid, levels[-1], expect,
        backend="mc-regression", seed=int(seed), paths=int(paths),
    )
    sol.diagnostics["regression_condition_numbers"] = tuple(conds)
    return sol
