"""Discrete-time solvers for scalar terminal-value equations driven by a
one-dimensional Brownian motion.

Both backends run one backward sweep, ``_backward_sweep``:

    (E_i, z_i) = expect(i, y_{i+1})
    y_i = E_i + g(t_i, E_i, z_i) dt                 (explicit)
    y_i solves y = E_i + g(t_i, y, z_i) dt          (implicit, Picard iteration)

They differ only in the conditional-expectation operator ``expect``.  On the
recombining binomial tree (increments +-sqrt(dt) with probability 1/2) it is
the exact pairwise average:

    E_i    = (y_{i+1, j+1} + y_{i+1, j}) / 2
    z_{ij} = (y_{i+1, j+1} - y_{i+1, j}) / (2 sqrt(dt))

On Monte Carlo it is one least-squares projection of the two stacked targets
y_{i+1} and y_{i+1} dB_i / dt onto polynomials in B_{t_i}: one SVD per step.
Both backends are deterministic functions of their inputs and evaluate the
driver on a single thread; the Monte-Carlo ensemble is generated by a
counter-based bit stream keyed by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .generators import Generator, TerminalCondition
from .ode_bounds import TimeGrid

__all__ = [
    "TreeModel",
    "PathEnsemble",
    "DiscreteSolution",
    "SolverError",
    "PicardDivergenceError",
    "RankDeficientError",
    "solve_tree",
    "solve_mc_regression",
]


class SolverError(RuntimeError):
    pass


class PicardDivergenceError(SolverError):
    def __init__(self, step, time, change, cap):
        self.step = step
        self.time = time
        self.change = change
        super().__init__(
            f"implicit fixed point did not converge at step {step} (t = {time:g}): "
            f"last change {change:.3g} after {cap} iterations"
        )


class RankDeficientError(SolverError):
    def __init__(self, step, cond):
        self.step = step
        self.cond = cond
        super().__init__(
            f"regression basis is rank deficient at step {step} "
            f"(condition number {cond:.3g})"
        )


@dataclass(frozen=True)
class TreeModel:
    """Recombining binomial discretisation of the driving Brownian motion."""

    grid: TimeGrid

    def __post_init__(self):
        self.grid.dt  # raises if non-uniform

    @property
    def steps(self):
        return self.grid.steps

    @property
    def sqrt_dt(self):
        return math.sqrt(self.grid.dt)

    def brownian_level(self, i):
        """Node values (2j - i) sqrt(dt) for j = 0..i."""
        return (2.0 * np.arange(i + 1) - i) * self.sqrt_dt

    def level_probabilities(self, i):
        """Exact binomial weights C(i, j) / 2^i."""
        denom = 2**i
        return np.asarray([math.comb(i, j) / denom for j in range(i + 1)])

    @classmethod
    def uniform(cls, horizon, steps):
        return cls(TimeGrid.uniform(horizon, steps))


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated Brownian increments, reproducible from (seed, paths, grid)."""

    grid: TimeGrid
    paths: int
    seed: int
    increments: np.ndarray  # shape (paths, steps)

    @classmethod
    def generate(cls, grid, paths, seed):
        if paths < 1:
            raise ValueError("need at least one path")
        dt = grid.dt
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        increments = gen.standard_normal((paths, grid.steps)) * math.sqrt(dt)
        return cls(grid=grid, paths=paths, seed=int(seed), increments=increments)

    def brownian_paths(self):
        out = np.zeros((self.paths, self.grid.steps + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    def validate(self):
        """Moment sanity for each increment column (5-sigma style gates)."""
        P = self.paths
        dt = self.grid.dt
        mean_gate = 5.0 / math.sqrt(P)
        var_gate = 5.0 * math.sqrt(2.0 / P)
        means = np.abs(self.increments.mean(axis=0))
        if float(np.max(means)) > mean_gate:
            raise ValueError(f"increment mean {np.max(means):.3g} exceeds {mean_gate:.3g}")
        variances = np.abs(self.increments.var(axis=0) - dt)
        if float(np.max(variances)) > var_gate:
            raise ValueError(f"increment variance off dt by {np.max(variances):.3g}")
        return True


@dataclass(frozen=True)
class DiscreteSolution:
    """Backward-solved pair on a substrate, with provenance for later checks.

    ``y`` has one row per time node (ragged list for the tree, (N+1, P)
    array for Monte Carlo); ``z`` has one row per step (the last row is the
    central difference through the terminal payoff values).
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
        return float(np.asarray(self.y[0]).ravel()[0]) if self.backend == "tree" else float(
            np.mean(self.y[0])
        )

    def substrate_key(self):
        return (self.backend, self.grid.steps, self.grid.horizon, self.seed, self.paths)

    def y_matrix(self):
        """Per-time rows as a dense matrix; tree rows are left-aligned with NaN padding."""
        if self.backend != "tree":
            return np.asarray(self.y)
        n = self.grid.steps
        out = np.full((n + 1, n + 1), np.nan)
        for i, row in enumerate(self.y):
            out[i, : i + 1] = row
        return out


def _finite_or_raise(arr, step, what):
    if not np.all(np.isfinite(arr)):
        k = int(np.argmin(np.isfinite(np.asarray(arr).ravel())))
        raise SolverError(f"non-finite {what} at step {step} (flat index {k})")
    return arr


def _terminal(xi, states, steps):
    """Payoff at the terminal states: bound-checked, finite, one value per state."""
    xi.check_bound(states)
    y = _finite_or_raise(np.asarray(xi(states), dtype=float), steps, "terminal payoff")
    if y.shape != states.shape:
        y = np.broadcast_to(y, states.shape).copy()
    return y


def _implicit_update(g, i, t, E, z, dt, tol, cap):
    y = E.copy()
    change = math.inf
    for it in range(1, cap + 1):
        y_next = E + np.asarray(g(t, y, z), dtype=float) * dt
        change = float(np.max(np.abs(y_next - y))) if y.size else 0.0
        y = y_next
        if change < tol:
            return y, it
    raise PicardDivergenceError(step=i, time=float(t), change=change, cap=cap)


def _backward_sweep(g, grid, y_terminal, expect, scheme, picard_tol, picard_cap, z_clamp):
    """The backward recursion shared by both backends; see module docstring.

    ``expect(i, y_next)`` returns the backend's estimates (E_i, z_i) of
    E_i[y_{i+1}] and E_i[y_{i+1} dB_i] / dt.  Returns the y rows, the z rows
    and the sweep diagnostics.
    """
    if scheme not in ("explicit", "implicit"):
        raise ValueError("scheme must be 'explicit' or 'implicit'")
    steps = grid.steps
    dt = grid.dt
    y_rows = [None] * (steps + 1)
    z_rows = [None] * steps
    y_rows[steps] = y_terminal
    clamped = False
    picard_max = 0
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
            y, used = _implicit_update(g, i, t, E, z, dt, picard_tol, picard_cap)
            picard_max = max(picard_max, used)
        y_rows[i] = _finite_or_raise(y, i, "value")
        z_rows[i] = z
    return tuple(y_rows), tuple(z_rows), {"picard_max_iterations": picard_max, "z_clamped": clamped}


def solve_tree(
    g,
    xi,
    steps,
    horizon=1.0,
    scheme="explicit",
    *,
    picard_tol=1e-12,
    picard_cap=50,
    z_clamp=None,
    threads=1,
):
    """Backward recursion on the recombining tree; see module docstring.

    The terminal slice equals the payoff at the terminal tree states exactly.
    With ``z_clamp`` set, extracted z values are clipped to [-z_clamp, z_clamp]
    and the solution is labelled non-conforming.  ``threads`` is accepted for
    configuration compatibility; evaluation is single-threaded.
    """
    tree = TreeModel.uniform(horizon, steps)
    sdt = tree.sqrt_dt

    def expect(i, nxt):
        return 0.5 * (nxt[1:] + nxt[:-1]), (nxt[1:] - nxt[:-1]) / (2.0 * sdt)

    y_terminal = _terminal(xi, tree.brownian_level(steps), steps)
    y, z, diagnostics = _backward_sweep(
        g, tree.grid, y_terminal, expect, scheme, picard_tol, picard_cap, z_clamp
    )
    return DiscreteSolution(
        backend="tree",
        grid=tree.grid,
        y=y,
        z=z,
        scheme=scheme,
        generator=g if isinstance(g, Generator) else None,
        terminal=xi,
        diagnostics=diagnostics,
        conforming=not diagnostics["z_clamped"],
    )


def _regress(basis, target):
    """Least-squares projection of each target column; returns (fitted values,
    condition number).  ``target`` is one vector or a matrix of columns."""
    # economic SVD keeps this deterministic and exposes the conditioning
    u, s, vt = np.linalg.svd(basis, full_matrices=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else math.inf
    if s[-1] <= s[0] * 1e-12:
        raise RankDeficientError(step=None, cond=cond)
    # targets as contiguous rows: u.T @ columns sums several times less
    # accurately (checked against a long-double reference)
    proj = (np.ascontiguousarray(target.T) @ u) / s
    return basis @ (proj @ vt).T, cond


def solve_mc_regression(
    g,
    xi,
    steps,
    paths,
    degree,
    seed,
    horizon=1.0,
    scheme="explicit",
    *,
    picard_tol=1e-12,
    picard_cap=50,
    z_clamp=None,
    threads=1,
):
    """Least-squares Monte-Carlo backward sweep over a simulated ensemble.

    Conditional expectations of y_{i+1} and y_{i+1} dB_i / dt are estimated
    by one projection onto polynomials in the current Brownian value of degree
    <= ``degree`` (scaled by sqrt(t) for conditioning; at t = 0 the basis
    degenerates to the constant, i.e. a plain average).  Deterministic for
    fixed (seed, paths, steps, degree); ``threads`` is accepted for
    configuration compatibility and does not change the result.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if paths < 10 * (degree + 1):
        raise ValueError("need at least 10 (degree + 1) paths")
    grid = TimeGrid.uniform(horizon, steps)
    ens = PathEnsemble.generate(grid, paths, seed)
    B = ens.brownian_paths()
    dt = grid.dt
    conds = []

    def expect(i, y_next):
        target_z = y_next * ens.increments[:, i] / dt
        if i == 0:
            conds.append(1.0)
            return np.full(paths, float(np.mean(y_next))), np.full(paths, float(np.mean(target_z)))
        basis = np.vander(B[:, i] / math.sqrt(grid.nodes[i]), degree + 1, increasing=True)
        try:
            fitted, cond = _regress(basis, np.column_stack((y_next, target_z)))
        except RankDeficientError as exc:
            raise RankDeficientError(step=i, cond=exc.cond) from None
        conds.append(cond)
        # z is stored per step: copy it out so it does not hold on to E's column
        return fitted[:, 0], np.ascontiguousarray(fitted[:, 1])

    y_terminal = _terminal(xi, B[:, -1], steps)
    y, z, diagnostics = _backward_sweep(
        g, grid, y_terminal, expect, scheme, picard_tol, picard_cap, z_clamp
    )
    return DiscreteSolution(
        backend="mc-regression",
        grid=grid,
        y=y,
        z=z,
        scheme=scheme,
        generator=g if isinstance(g, Generator) else None,
        terminal=xi,
        diagnostics={**diagnostics, "regression_condition_numbers": tuple(reversed(conds))},
        seed=int(seed),
        paths=int(paths),
        conforming=not diagnostics["z_clamped"],
    )
