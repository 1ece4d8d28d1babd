"""The four closed-loop workloads: jobs, their inputs and their correctness gates.

One client runs the jobs of a workload back to back.  A job is a ``call``
into ``bsdelab`` (timed) and a ``check`` of its result (not timed) against a
closed form or an expected outcome.  Any exception, tolerance miss or wrong
expected outcome is a failed operation.  A failure the job lists as a known
defect (``known``) still counts as failed but leaves the run correct; any
other failure makes it incorrect.

Why these workloads (see README.md for the layer each one loads):

- ``tree``: binomial-tree solves at N=2000, thousands of small-array
  evaluator calls per solve.
- ``mc``: least-squares Monte Carlo, few evaluator calls on 20k-100k-element
  arrays, two SVDs per step and the thread pool.
- ``suite``: the shipped 15-check suite through the command line, as users
  run it.
- ``bounds``: ODE bounds, iterated modulus bounds, Osgood tables, certificate
  grids and the batched 1-d Lipschitz envelope.
"""

import csv
import io
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

TREE_STEPS = 2000
MC_STEPS = 50
MC_DEGREE = 3
MC_BIG_PATHS = 100_000
MC_SMALL_PATHS = 20_000
MC_OVERFLOW_PATHS = 2_000

SUPER_LINEAR = "-y^3 + abs(z)^1.5*sin(y)"
QUADRATIC_ORACLE = 1.8337572116654655  # log E[exp(min(B_1^2, 4))]
SANDWICH_U0 = 2.0 * math.e - 1.0  # upper bound at t=0 for u=1, l=1+|x|, bound 1, T=1
UNIQUENESS_TOL = 5e-3  # the shipped suite's explicit/implicit tolerance


@dataclass
class Outcome:
    name: str
    ok: bool
    work: int = 0
    err: float = None  # |result - closed form| where the job has one
    known: bool = False  # failed, and the failure is a listed known defect
    detail: str = ""


@dataclass
class Job:
    name: str
    call: object  # () -> result; the timed call into bsdelab
    check: object  # (result, state) -> Outcome or list of Outcome
    units: int = 1  # outcomes the job reports (suite: one per check)
    known: tuple = ()  # exception types that are a known defect of this job


@dataclass
class Workload:
    name: str
    jobs: list
    work_unit: str
    state: dict = field(default_factory=dict)  # shared across the passes of one run

    def before_pass(self, index):
        """Per-pass preparation outside the timed region."""

    def after_pass(self):
        """Per-pass clean-up outside the timed region."""


def _gate(name, ok, work, err=None, detail=""):
    return Outcome(name, bool(ok), work if ok else 0, err, False, detail)


# ---------------------------------------------------------------------------
# tree


def tree_workload(mods, rng, out_dir):
    G, TC = mods.generators.Generator, mods.generators.TerminalCondition
    solver = mods.solver
    sl, sinw = G.parse(SUPER_LINEAR), TC.parse("sin(w)")
    quad, capped = G.parse("z^2 / 2"), TC.parse("min(w^2, 4)")
    lin, one = G.parse("-y"), TC.parse("1")
    cube, cosw = G.parse("-y^3"), TC.parse("3*cos(w)")
    n = TREE_STEPS
    nodes = n * (n + 1) // 2

    def check_explicit(sol, state):
        state["y0"] = sol.y0
        return _gate("superlinear-explicit", math.isfinite(sol.y0), nodes)

    def check_implicit(sol, state):
        gap = abs(sol.y0 - state.pop("y0", math.nan))
        return _gate("superlinear-implicit", gap <= UNIQUENESS_TOL, nodes,
                     detail=f"|y0 explicit - y0 implicit| = {gap:.3g}")

    def oracle(name, expected, tol, work):
        def check(sol, _):
            err = abs(sol.y0 - expected)
            return _gate(name, err <= tol, work, err, f"y0 = {sol.y0!r}")
        return check

    def check_picard(sol, _):
        resid = mods.verify.one_step_residual(sol, cube)
        return _gate("picard-cubic-n10", resid <= 1e-10, 10 * 11 // 2,
                     detail=f"one-step residual {resid:.3g}")

    jobs = [
        Job("superlinear-explicit", lambda: solver.solve_tree(sl, sinw, n), check_explicit),
        Job("superlinear-implicit",
            lambda: solver.solve_tree(sl, sinw, n, scheme="implicit"), check_implicit),
        Job("quadratic-implicit",
            lambda: solver.solve_tree(quad, capped, n, scheme="implicit"),
            oracle("quadratic-implicit", QUADRATIC_ORACLE, 5e-3, nodes)),
        Job("discount-implicit",
            lambda: solver.solve_tree(lin, one, n, scheme="implicit"),
            oracle("discount-implicit", math.exp(-1.0), 3e-3, nodes)),
        # known defect: Picard iteration diverges on a monotone driver with a unique root
        Job("picard-cubic-n10",
            lambda: solver.solve_tree(cube, cosw, 10, scheme="implicit"), check_picard,
            known=(solver.PicardDivergenceError,)),
    ]
    return Workload("tree", jobs, "node updates")


# ---------------------------------------------------------------------------
# mc


def mc_workload(mods, rng, out_dir):
    G, TC = mods.generators.Generator, mods.generators.TerminalCondition
    solver = mods.solver
    seeds = [int(s) for s in rng.integers(0, 2**32, size=4)]
    sl, sinw = G.parse(SUPER_LINEAR), TC.parse("sin(w)")
    drift, w = G.parse("z"), TC.parse("w")
    lin, one = G.parse("-y"), TC.parse("1")
    quad, capped = G.parse("z^2 / 2"), TC.parse("min(w^2, 4)")
    big = MC_BIG_PATHS * MC_STEPS
    small = MC_SMALL_PATHS * MC_STEPS

    def solve(g, xi, paths, seed, scheme="explicit", threads=1):
        return lambda: solver.solve_mc_regression(
            g, xi, MC_STEPS, paths, MC_DEGREE, seed, scheme=scheme, threads=threads)

    def check_t1(sol, state):
        state["t1"] = sol
        return _gate("superlinear-t1", math.isfinite(sol.y0), big)

    def check_t2(sol, state):
        ref = state.pop("t1", None)
        same = ref is not None and all(
            np.array_equal(a, b) for a, b in zip(ref.y + ref.z, sol.y + sol.z))
        return _gate("superlinear-t2", same, big, detail="threads=2 bit-identical to threads=1")

    def check_drift(sol, _):
        # Monte-Carlo sampling error, about N(0, 0.016) at 20k paths: gated at
        # six standard errors, but kept out of oracle_err, which would
        # otherwise follow the seed rather than the code
        gap = abs(sol.y0 - 1.0)
        return _gate("drift-explicit", gap <= 0.1, small, detail=f"|y0 - 1| = {gap:.3g}")

    def check_discount(sol, _):
        err = abs(sol.y0 - math.exp(-1.0))
        return _gate("discount-implicit", err <= 5e-3, small, err, f"y0 = {sol.y0!r}")

    def check_overflow(sol, _):
        gap = abs(sol.y0 - QUADRATIC_ORACLE)
        return _gate("quadratic-overflow-2k", gap <= 0.2, MC_OVERFLOW_PATHS * MC_STEPS,
                     detail=f"|y0 - oracle| = {gap:.3g}")

    jobs = [
        Job("superlinear-t1", solve(sl, sinw, MC_BIG_PATHS, seeds[0]), check_t1),
        Job("superlinear-t2", solve(sl, sinw, MC_BIG_PATHS, seeds[0], threads=2), check_t2),
        Job("drift-explicit", solve(drift, w, MC_SMALL_PATHS, seeds[1]), check_drift),
        Job("discount-implicit", solve(lin, one, MC_SMALL_PATHS, seeds[2], "implicit"),
            check_discount),
        # known defect: z^2 overflows to a non-finite value
        Job("quadratic-overflow-2k", solve(quad, capped, MC_OVERFLOW_PATHS, seeds[3]),
            check_overflow,
            known=(mods.expressions.EvalDomainError, solver.SolverError)),
    ]
    return Workload("mc", jobs, "path-steps")


# ---------------------------------------------------------------------------
# suite

_LOCATION = re.compile(r'\{"(?:y0|U0)": ([-+0-9.eEinfa]+)\}')


class SuiteWorkload(Workload):
    """``bsdelab suite`` through ``cli.main``, one pass per call, alternating threads."""

    def __init__(self, mods, rng, out_dir):
        cfg = mods.config.load_config(mods.cli.default_suite_path())
        self.checks = cfg.checks
        self.seed = int(rng.integers(0, 2**31))
        self.out_root = out_dir
        self.cli = mods.cli
        self.out = None
        super().__init__("suite", [Job("suite", self._call, self._check, units=len(self.checks))],
                         "checks")

    def before_pass(self, index):
        self.threads = 1 + index % 2
        self.out = tempfile.mkdtemp(prefix="suite-", dir=self.out_root)

    def after_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def _call(self):
        return self.cli.main(["suite", "--out", self.out, "--quiet", "--seed", str(self.seed),
                              "--threads", str(self.threads)])

    def _check(self, code, state):
        files = {}
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                files[name] = fh.read()
        state["bytes_written"] = sum(len(b) for b in files.values())
        ref = state.setdefault("reference", files)
        changed = {name for name in set(ref) | set(files) if ref.get(name) != files.get(name)}
        rows = list(csv.reader(io.StringIO(files.get("reports.csv", b"").decode())))
        if not rows or len(rows) != len(self.checks) + 1:
            return [Outcome(c.params.get("name", c.kind), False, detail=f"exit {code}, no report")
                    for c in self.checks]
        width = len(rows[0])
        out = []
        for idx, (check, row) in enumerate(zip(self.checks, rows[1:])):
            name = check.params.get("name", check.kind)
            per_check = [n for n in files if n.startswith(f"check_{idx:02d}_")]
            if "reports.csv" in changed or any(n in changed for n in per_check):
                out.append(Outcome(name, False, detail="output differs from the first pass"))
                continue
            err = None
            match = _LOCATION.search(",".join(row))  # a malformed row split at its commas
            if match and check.kind in ("solver_oracle", "bounds_oracle"):
                expected = check.params["expected" if check.kind == "solver_oracle"
                                        else "expected_U0"]
                err = abs(float(match.group(1)) - float(expected))
            if len(row) == width:
                ok = row[5] == "ok"
                out.append(Outcome(name, ok, int(ok), err, detail=f"outcome {row[5]}"))
            else:
                # known defect: cells holding commas are not quoted
                known = "MISMATCH" not in row and code == 0
                out.append(Outcome(name, False, 0, err, known,
                                   f"row parses to {len(row)} of {width} columns"))
        return out


# ---------------------------------------------------------------------------
# bounds


def sqrt_envelope(x, slope):
    """Closed form of the K-Lipschitz majorant of sqrt on [0, inf)."""
    knee = 1.0 / (4.0 * slope * slope)
    return np.where(x < knee, slope * x + 1.0 / (4.0 * slope), np.sqrt(x))


def bounds_workload(mods, rng, out_dir):
    od, parse1 = mods.ode_bounds, mods.expressions.parse_univariate
    one = mods.generators.WeightFn.parse("1")
    l_abs, l_quad = parse1("1 + abs(x)"), parse1("1 + x^2")
    psi, root = parse1("x"), parse1("sqrt(x)")
    points = rng.uniform(0.0, 4.0, size=257)
    slope = 2.0
    cert = mods.certificates.OneSidedSuperLinear(one, "1 + abs(y)", "1")
    sl = mods.generators.Generator.parse(SUPER_LINEAR).with_certificate(cert)
    cubic = mods.generators.Generator.parse("y^3")
    grid = mods.certificates.SampleGrid(y_count=101, z_count=101)
    ns = [2**k for k in range(0, 11)]
    u0 = SANDWICH_U0
    jobs = []

    for steps in (64, 256, 1024):
        def check(env, _, steps=steps):
            err = max(abs(float(env.upper[0]) - u0), abs(float(env.lower[0]) + u0))
            return _gate(f"sandwich-n{steps}", err <= 1e-5, 1, err)
        jobs.append(Job(f"sandwich-n{steps}", lambda steps=steps: od.sandwich_envelope(
            1.0, one, l_abs, od.TimeGrid.uniform(1.0, steps)), check))

    def blow_up():
        try:
            od.sandwich_envelope(1.0, one, l_quad, od.TimeGrid.uniform(math.pi, 64))
        except od.BlowUpError as exc:
            return exc.time_reached
        return None

    jobs.append(Job("blow-up", blow_up, lambda t, _: _gate(
        "blow-up", t is not None and 0.0 < t < math.pi, 1, detail=f"BlowUpError at t = {t}")))

    def check_bihari(res, _):
        limit = float(np.max(res.limit_estimate))
        ok = res.all_converged and res.monotone_in_n and limit <= 1e-6
        return _gate("bihari", ok, 1, detail=f"limit estimate {limit:.3g}")

    jobs.append(Job("bihari", lambda: od.bihari_sequence(
        psi, 1.0, one, ns, [1.0 / n for n in ns], od.TimeGrid.uniform(1.0, 128)), check_bihari))
    for name, l, expected in (("osgood-linear", l_abs, True), ("osgood-quadratic", l_quad, False)):
        jobs.append(Job(name, lambda l=l: od.osgood_diagnostic(l, upper=1.0),
                        lambda d, _, name=name, expected=expected: _gate(
                            name, d.likely_osgood is expected, 1)))
    for name, g, expected in (("certificate-pass", sl, True), ("certificate-fail", cubic, False)):
        jobs.append(Job(name, lambda g=g: mods.certificates.check_certificate(g, cert, grid),
                        lambda rep, _, name=name, expected=expected: _gate(
                            name, rep.passed is expected, 1, detail=f"violation {rep.violation:.3g}")))

    def check_envelope(values, _):
        err = float(np.max(np.abs(values - sqrt_envelope(points, slope))))
        return _gate("lipschitz-sqrt", err <= 1e-9, 1, err)

    jobs.append(Job("lipschitz-sqrt", lambda: mods.envelopes.LipschitzEnvelope(
        root, slope, 0.5).batch(points), check_envelope))
    return Workload("bounds", jobs, "jobs")


WORKLOADS = {
    "tree": tree_workload,
    "mc": mc_workload,
    "suite": SuiteWorkload,
    "bounds": bounds_workload,
}
