"""Executable checks of ordering and bounding conclusions on solved instances.

Every check is a pure function of its inputs and returns a
:class:`~bsdelab.report.VerificationReport`; none solves, callers pass the
solutions in.  Conclusions are asserted on the discrete substrate, so each
tolerance should be read against the scheme's convergence order; negative
controls exist for every check so the harness demonstrably detects
violations rather than merely confirming passes.

Checks that would ideally single out the maximal or minimal solution can only
see whichever solution the scheme converges to; their reports carry an
explicit note to that effect.

Checks read solutions in blocks of whole levels, at most ``_BLOCK_SAMPLES``
samples joined (a wider level is read in place), one numpy pass per block,
with the level-by-level bits: gaps are elementwise (``t`` is each node's time
per sample, where numpy's kernels give an array a scalar's bits), the
sandwich takes each level's exact max and min (rounding ``a - U`` is monotone
in ``a``), and tree averages pair nodes within a level only.  The first NaN
gap wins wherever it lies, so it fails the check (see ``report.worst_gap``).
"""

from __future__ import annotations

import numpy as np

from .certificates import OneSidedSuperLinear, SampleGrid
from .report import VerificationReport, at_samples, worst_gap
# perfbench's test_unpatch_restores_every_callable reads verify.solve_tree (ROADMAP Direction 5)
from .solver import TreeModel, solve_tree  # noqa: F401
from .transforms import exp_transform_generator, exp_transform_solution

__all__ = [
    "SubstrateMismatchError",
    "comparison_check",
    "indicator_premise_check",
    "one_sided_dominance_check",
    "sandwich_check",
    "monotone_family_check",
    "transform_residual_check",
    "one_step_residual",
    "uniqueness_smoke_check",
]

EXTREMAL_NOTE = (
    "the scheme-selected solution stands in for the maximal/minimal one; "
    "the order conclusion is checked against it"
)


class SubstrateMismatchError(ValueError):
    pass


def _require_same_substrate(sol, sol_prime):
    if sol.substrate_key() != sol_prime.substrate_key():
        raise SubstrateMismatchError(
            f"solutions live on different substrates: {sol.substrate_key()} "
            f"vs {sol_prime.substrate_key()}"
        )


# the limit keeps peak memory flat: on a 2-core x86-64 machine, 8192-sample blocks ran
# a suite pass as fast with 0.5 MB more peak RSS, 65536-sample ones with 7 MB more
_BLOCK_SAMPLES = 4096


class _Block:
    """Whole consecutive levels of row sequences, each sequence joined into one
    flat array: level ``levels.start + j`` lies at time ``nodes[j]`` and, in every
    sequence as wide as the first, at ``rows[s][offsets[j]:offsets[j + 1]]``."""

    __slots__ = ("levels", "nodes", "offsets", "rows")

    def __init__(self, levels, nodes, offsets, rows):
        self.levels, self.nodes, self.offsets, self.rows = levels, nodes, offsets, rows

    def t(self):
        """Each sample's node time."""
        return np.repeat(self.nodes, np.diff(self.offsets))

    def locate(self, k):
        """The time and the in-level index of flat sample ``k``."""
        j = int(np.searchsorted(self.offsets, k, side="right")) - 1
        return {"t": float(self.nodes[j]), "index": int(k - self.offsets[j])}


def _blocks(nodes, *seqs):
    """The levels of the row sequences ``seqs`` (level i at time ``nodes[i]``) in
    blocks of as many whole levels as fit in ``_BLOCK_SAMPLES`` samples of the
    first sequence; a wider level is a block by itself and holds its rows, not copies."""
    widths = [len(row) for row in seqs[0]]
    lo = 0
    while lo < len(widths):
        hi, size = lo + 1, widths[lo]
        while hi < len(widths) and size + widths[hi] <= _BLOCK_SAMPLES:
            size, hi = size + widths[hi], hi + 1
        rows = [np.asarray(s[lo]) if hi == lo + 1 else np.concatenate(s[lo:hi]) for s in seqs]
        yield _Block(slice(lo, hi), nodes[lo:hi], np.cumsum([0] + widths[lo:hi]), rows)
        lo = hi


def _conforming_notes(*sols):
    if all(s.conforming for s in sols):
        return ()
    return ("non-conforming input: a z-clamped run is being checked",)


def _order_verdict(sol, name, claim, worst, where, tol, notes=()):
    """Verdict on a nodewise order claim, given its largest gap; inconclusive
    on any backend but the tree.

    Only the tree's exact averages preserve order.  A least-squares regression
    need not, so its largest gap is recorded in the note and is no verdict.
    """
    if sol.backend != "tree":
        return VerificationReport.inconclusive(
            name,
            claim,
            f"{sol.backend}: least-squares regression does not preserve order, so the "
            f"largest gap {worst:.3g} is no verdict",
            where,
        )
    return VerificationReport.from_violation(name, claim, worst, where, tol, notes)


def comparison_check(sol, sol_prime, tol=1e-6):
    """Assert y <= y' + tol at every node/path/time on a shared substrate.

    Inconclusive on any backend but the tree (see :func:`_order_verdict`).
    """
    _require_same_substrate(sol, sol_prime)
    worst, where = worst_gap(
        (b.rows[0] - b.rows[1], b.locate) for b in _blocks(sol.grid.nodes, sol.y, sol_prime.y))
    claim = "ordered data produce ordered solutions: y <= y'"
    notes = _conforming_notes(sol, sol_prime)
    return _order_verdict(sol, "comparison", claim, worst, where, tol, notes)


def indicator_premise_check(sol, sol_prime, g, g_prime, which="along_prime", tol=0.0):
    """Sampled one-sided driver dominance on the event {y > y'}.

    'along_prime' evaluates both drivers along the primed trajectory,
    'along_unprimed' along the unprimed one; points where y <= y' contribute
    nothing (the indicator vanishes), so a pair whose trajectories never
    cross passes vacuously.  The event is read off the solutions, so the
    check is inconclusive on any backend but the tree (see
    :func:`_order_verdict`); a largest gap of -inf there means the indicator
    never fired.
    """
    if which not in ("along_prime", "along_unprimed"):
        raise ValueError("which must be 'along_prime' or 'along_unprimed'")
    _require_same_substrate(sol, sol_prime)
    along = sol_prime if which == "along_prime" else sol

    def gaps():
        for b in _blocks(sol.grid.nodes, sol.y[:-1], sol_prime.y[:-1], along.y, along.z):
            y, y_prime, y_along, z_along = b.rows
            (index,) = np.nonzero(y > y_prime)
            if index.size:
                t, y, z = b.t()[index], y_along[index], z_along[index]
                yield g(t, y, z) - g_prime(t, y, z), lambda k, b=b, index=index: b.locate(index[k])

    worst, where = worst_gap(gaps())
    vacuous = not where
    claim = "driver dominance on {y > y'}" + (
        " (vacuous: indicator never fires)" if vacuous else "")
    notes = ("indicator vanished on the whole substrate",) if vacuous else ()
    return _order_verdict(sol, f"premise:{which}", claim, worst, where, tol, notes)


def one_sided_dominance_check(g, g_prime, level, side, grid=None, tol=0.0):
    """Sampled g <= g' on a half-line of y values.

    side 'below' restricts to y < level (combined with trajectories staying
    at or below the level this forces the along-prime premise); side 'above'
    restricts to y > level (forcing the along-unprimed one for trajectories
    above it).
    """
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    grid = grid or SampleGrid()
    t, y, z = grid.product(grid.t_axis(), grid.y_axis(), grid.z_axis())
    mask = (y < level) if side == "below" else (y > level)
    if not np.any(mask):
        return VerificationReport.inconclusive(
            "dominance", "g <= g' on the half-line", "no sample points on the half-line"
        )
    t, y, z = t[mask], y[mask], z[mask]
    worst, where = worst_gap([(g(t, y, z) - g_prime(t, y, z), at_samples(t=t, y=y, z=z))])
    claim = f"g <= g' for y {'<' if side == 'below' else '>'} {level}"
    return VerificationReport.from_violation("dominance", claim, worst, where, tol)


def sandwich_check(sol, env, tol=1e-3):
    """Assert L_t - tol <= y <= U_t + tol nodewise against a bound envelope.

    Requires the solution's driver to carry a one-sided super-linear growth
    certificate (whose witnesses produced the envelope) and a declared
    terminal bound; reports 'inconclusive' otherwise.
    """
    claim = "deterministic two-sided bounds contain the solution"
    if not isinstance(getattr(sol.generator, "certificate", None), OneSidedSuperLinear):
        return VerificationReport.inconclusive(
            "sandwich", claim, "missing one-sided super-linear growth certificate on the driver"
        )
    if sol.terminal.bound is None:
        return VerificationReport.inconclusive(
            "sandwich", claim, "terminal payoff has no declared bound")
    if len(env.grid.nodes) != len(sol.grid.nodes) or not np.allclose(
        env.grid.nodes, sol.grid.nodes, rtol=0, atol=1e-12
    ):
        raise ValueError("envelope and solution must share the time grid")

    def gaps():
        # max(y - U) is max(y) - U exactly, since rounding y - U is monotone in y;
        # per level the upper side first, so that a tie reports it
        for b in _blocks(sol.grid.nodes, sol.y):
            (y,), start = b.rows, b.offsets[:-1]
            upper = np.maximum.reduceat(y, start) - env.upper[b.levels]
            lower = env.lower[b.levels] - np.minimum.reduceat(y, start)
            yield np.stack((upper, lower), axis=1).ravel(), lambda k, b=b: {
                "t": float(b.nodes[k // 2]), "side": ("upper", "lower")[k % 2]}

    worst, where = worst_gap(gaps())
    return VerificationReport.from_violation(
        name="sandwich",
        claim="L_t <= y_t <= U_t for the deterministic bound envelope",
        violation=worst,
        location=where,
        tolerance=tol,
        notes=_conforming_notes(sol),
    )


def monotone_family_check(sols, n_list, tol=1e-9):
    """Assert the capped-payoff solutions are nondecreasing in the cap, nodewise.

    ``sols[k]`` solves the instance with the payoff capped at ``n_list[k]``
    (:meth:`~bsdelab.generators.TerminalCondition.truncated_above`), all on one
    substrate.  Inconclusive on any backend but the tree (see :func:`_order_verdict`).
    """
    sols, n_list = list(sols), list(n_list)
    if not n_list or len(sols) != len(n_list):
        raise ValueError(f"need one solution per cap, got {len(sols)} for {len(n_list)} caps")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    for sol in sols[1:]:
        _require_same_substrate(sols[0], sol)
    worst, where = worst_gap(
        (b.rows[0] - b.rows[1],
         lambda k, b=b, n_lo=n_lo, n_hi=n_hi: {"t": b.locate(k)["t"], "n": n_lo, "n_next": n_hi})
        for (n_lo, lo), (n_hi, hi) in zip(zip(n_list, sols), zip(n_list[1:], sols[1:]))
        for b in _blocks(lo.grid.nodes, lo.y, hi.y)
    )
    claim = "solutions are nondecreasing in the terminal cap"
    return _order_verdict(sols[0], "monotone-family", claim, worst, where, tol, (EXTREMAL_NOTE,))


def _worst_one_step_residual(sol, g, transform=None):
    """The largest |y_i - E_i - g(t_i, y_i, z_i) dt| (implicit form) over the tree,
    E_i the tree average of y_{i+1}, and where it lies; 0.0 and {} when none is
    positive.  ``transform`` maps each block's joined (y_i, z_i, y_{i+1}) first."""
    if sol.backend != "tree":
        raise ValueError("one-step residuals are defined on tree solutions")
    dt = sol.grid.dt

    def gaps():
        for b in _blocks(sol.grid.nodes, sol.y[:-1], sol.z, sol.y[1:]):
            y, z, nxt = b.rows if transform is None else transform(*b.rows)
            # y_{i+1} is one node wider than y_i: drop the pairs that straddle two levels
            straddle = b.offsets[1:-1] + np.arange(len(b.nodes) - 1)
            E = np.delete(TreeModel.pairwise_average(nxt), straddle)
            yield np.abs(y - E - np.asarray(g(b.t(), y, z)) * dt), b.locate

    worst, where = worst_gap(gaps())
    return (0.0, {}) if worst <= 0.0 else (worst, where)


def transform_residual_check(sol, g, gamma, residual_coefficient=0.05):
    """One-step residual of the exponentially transformed pair.

    The transformed values must satisfy the tree recursion for the
    transformed driver up to tol(dt) = C dt^(3/2).  The default C = 0.05 was
    calibrated on the exactly-cancelling quadratic driver instance (observed
    ratio <= 0.0094 for 100 <= steps <= 800) with a 5x safety factor.
    """

    def transformed(y, z, nxt):
        Y, Z = exp_transform_solution(y, z, gamma)
        if np.any(Y <= 0):
            raise RuntimeError(
                "transformed value hit Y <= 0, which positive exponentials "
                "cannot do; this indicates a solver defect"
            )
        return Y, Z, np.exp(gamma * nxt)

    worst, where = _worst_one_step_residual(sol, exp_transform_generator(g, gamma), transformed)
    tol = residual_coefficient * sol.grid.dt**1.5
    return VerificationReport.from_violation(
        name="transform-residual",
        claim="the transformed pair satisfies the one-step recursion for the "
        "transformed driver",
        violation=worst - tol,
        location=where | {"residual": worst, "budget": tol},
        tolerance=0.0,
    )


def one_step_residual(sol, g):
    """Worst |y_i - E_i - g(t_i, y_i, z_i) dt| over the tree (implicit form); NaN
    when any residual is NaN."""
    return _worst_one_step_residual(sol, g)[0]


def uniqueness_smoke_check(explicit, implicit, tol=5e-3):
    """Bilateral comparison of the explicit and implicit runs of one instance.

    Coincidence within tolerance is consistent with (not proof of) a unique
    solution; schemes that disagree flag either non-uniqueness or a scheme
    problem.
    """
    _require_same_substrate(explicit, implicit)
    worst, where = worst_gap(
        (np.abs(b.rows[0] - b.rows[1]), lambda k, b=b: {"t": b.locate(k)["t"]})
        for b in _blocks(explicit.grid.nodes, explicit.y, implicit.y)
    )
    return VerificationReport.from_violation(
        name="uniqueness-smoke",
        claim="explicit and implicit runs coincide within tolerance",
        violation=worst,
        location=where,
        tolerance=tol,
    )
