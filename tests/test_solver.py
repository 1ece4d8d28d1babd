import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelab import solver
from bsdelab.expressions import EvalDomainError, Expression
from bsdelab.generators import Generator, TerminalCondition
from bsdelab.ode_bounds import TimeGrid
from bsdelab.solver import (
    ImplicitStepError,
    PathEnsemble,
    PicardDivergenceError,
    RankDeficientError,
    SolverError,
    TreeModel,
    _hermite_rows,
    _regress,
    solve_mc_regression,
    solve_tree,
    solve_tree_stack,
)
from bsdelab.verify import one_step_residual
from tests.oracles import (
    binomial_weights_reference,
    bisection_sweep_reference,
    lstsq_reference,
    mc_expect_reference,
)
from tests.test_expressions import random_signed_ast

ZERO = Generator.parse("0")
B_T = TerminalCondition.parse("w")


class TestTreeModel:
    def test_level_shapes_and_probabilities(self):
        tree = TreeModel.uniform(1.0, 8)
        weights = list(tree.level_weights())
        assert len(weights) == 9
        for i in (0, 3, 8):
            assert len(tree.brownian_level(i)) == i + 1
            assert weights[i].sum() == pytest.approx(1.0, rel=1e-15)

    def test_level_weights_match_the_binomial_formula(self):
        # pinned where the reference is a normal number; the recursion's
        # subnormal tail at i = 2000 has no relative accuracy to pin
        weights = list(TreeModel.uniform(1.0, 2000).level_weights())
        for i in (0, 1, 2, 7, 64, 500, 1999, 2000):
            ref = binomial_weights_reference(i)
            normal = ref > 1e-300
            assert len(weights[i]) == i + 1
            np.testing.assert_allclose(weights[i][normal], ref[normal], rtol=1e-13, atol=0)

    def test_pairwise_average_is_the_summed_form_where_the_sum_is_normal(self):
        rng = np.random.default_rng(17)
        size = 100_000
        # blocks of four neighbours within a factor 100, blocks anywhere in 1e-300 .. 1e300
        exponent = np.repeat(rng.uniform(-300.0, 298.0, size // 4), 4) + rng.uniform(0.0, 2.0, size)
        level = rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size) * 10.0**exponent
        total = level[1:] + level[:-1]
        normal = np.isfinite(total) & (np.abs(total) >= np.finfo(float).tiny)
        assert normal.mean() > 0.99
        summed = (0.5 * total)[normal]
        average = TreeModel.pairwise_average(level)[normal]
        assert np.array_equal(average.view(np.int64), summed.view(np.int64))

    def test_pairwise_average_of_neighbours_whose_sum_overflows(self):
        level = np.array([1.5e308, 1.7e308, -1.7e308])
        assert TreeModel.pairwise_average(level).tolist() == [1.6e308, 0.0]

    def test_increment_variance_exact(self):
        tree = TreeModel.uniform(2.0, 10)
        # one step: values +-sqrt(dt) with weight 1/2 -> variance dt exactly
        level = tree.brownian_level(1)
        assert np.mean(level) == 0.0
        assert np.mean(level**2) == pytest.approx(tree.grid.dt, rel=1e-15)


class TestSolveTree:
    def test_martingale_exactly_zero(self):
        sol = solve_tree(ZERO, B_T, 100)
        assert sol.y0 == 0.0

    def test_terminal_slice_exact(self):
        xi = TerminalCondition.parse("min(w^2, 4)")
        sol = solve_tree(ZERO, xi, 64)
        tree = TreeModel.uniform(1.0, 64)
        assert np.array_equal(sol.y[-1], xi(tree.brownian_level(64)))

    def test_discounted_constant(self):
        sol = solve_tree(Generator.parse("-y"), TerminalCondition.parse("1"), 200, scheme="implicit")
        assert abs(sol.y0 - math.exp(-1.0)) < 3e-3

    def test_drift_change_exact_on_tree(self):
        sol = solve_tree(Generator.parse("z"), B_T, 200)
        assert sol.y0 == pytest.approx(1.0, abs=1e-12)

    def test_squared_terminal_exact_on_tree(self):
        sol = solve_tree(ZERO, TerminalCondition.parse("w^2"), 200)
        assert sol.y0 == pytest.approx(1.0, abs=1e-12)

    def test_convergence_order_halves(self):
        errors = []
        for steps in (50, 100, 200, 400):
            sol = solve_tree(
                Generator.parse("-y"), TerminalCondition.parse("1"), steps, scheme="implicit"
            )
            errors.append(abs(sol.y0 - math.exp(-1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 0.375 <= fine / coarse <= 0.625

    def test_bounded_solution_near_the_largest_double(self):
        # neighbours of 1.5e308 sum to 3e308, which overflows; their average does not
        sol = solve_tree(ZERO, TerminalCondition.parse("1.5e308"), 4)
        assert all(np.all(row == 1.5e308) for row in sol.y)
        assert one_step_residual(sol, ZERO) == 0.0

    def test_implicit_one_step_residual(self):
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 100, scheme="implicit")
        assert one_step_residual(sol, g) <= 1e-10

    def test_steep_affine_driver_is_one_newton_step(self):
        # dt Lip_y = 10, where Picard iteration could not contract: the driver is
        # affine, h' = 1 + 100 dt = 11, and one Newton step is the root E / 11
        sol = solve_tree(Generator.parse("-100 * y"), TerminalCondition.parse("1"), 10,
                         scheme="implicit")
        for i in range(10):
            E = TreeModel.pairwise_average(sol.y[i + 1])
            np.testing.assert_allclose(sol.y[i], E / 11.0, rtol=1e-14, atol=0)
        assert sol.diagnostics["picard_max_iterations"] == 1

    def test_non_finite_generator_value(self):
        g = Generator.parse("1 / y")
        with pytest.raises(Exception):
            solve_tree(g, TerminalCondition.parse("0"), 4)

    def test_non_finite_value_names_step_and_time(self):
        # dt = 1: y_1 = 8e307 + 1.7e308 dt overflows at the first backward step
        with pytest.raises(SolverError) as err:
            solve_tree(Generator.parse("1.7e308"), TerminalCondition.parse("8e307"), 2, horizon=2.0)
        assert (err.value.step, err.value.time) == (1, 1.0)
        assert str(err.value) == ("non-finite value at step 1 (t = 1, node 0): "
                                  "(t, E, z) = (1, 8e+307, 0)")

    def test_non_finite_value_names_the_node_and_point(self):
        # dt = 2: the constant driver's body * dt overflows on its own; the
        # payoff is finite at every node, so the first node is named
        with pytest.raises(SolverError) as err:
            solve_tree(Generator.parse("1e308"), TerminalCondition.parse("sin(w)"), 2, horizon=4.0)
        assert (err.value.step, err.value.time) == (1, 2.0)
        # node 0 of step 1 averages the terminal nodes at w = -2 sqrt(2) and 0
        sdt = math.sqrt(2.0)
        E, z = (0.0 + math.sin(-2 * sdt)) / 2, (0.0 - math.sin(-2 * sdt)) / (2 * sdt)
        assert str(err.value) == ("non-finite value at step 1 (t = 2, node 0): "
                                  f"(t, E, z) = (2, {E:g}, {z:g})")

    def test_cubic_solves_where_picard_diverged(self, monkeypatch):
        # Picard iteration on -y^3 with 3 cos(w) at N = 10 stopped after 50
        # iterations at step 9 (last change 1.85); the root there is unique
        g, xi = Generator.parse("-y^3"), TerminalCondition.parse("3*cos(w)")

        def solve():
            return solve_tree(g, xi, 10, scheme="implicit")

        sol, ref = solve(), oracle_solve(monkeypatch, solve)
        assert one_step_residual(sol, g) <= 1e-10
        for ours, theirs in zip(sol.y, ref.y):
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)

    def test_newton_steps_per_level(self):
        # the benchmark's implicit jobs at N = 2000: the rate estimate stops the
        # super-linear driver after two steps, and -y is affine: one step
        for driver, payoff, most in (("-y^3 + abs(z)^1.5*sin(y)", "sin(w)", 2), ("-y", "1", 1)):
            sol = solve_tree(Generator.parse(driver), TerminalCondition.parse(payoff), 2000,
                             scheme="implicit")
            assert sol.diagnostics["picard_max_iterations"] == most

    def test_decreasing_residual_is_bracketed_on_its_other_side(self):
        # h(y) = y - E - 9 y dt = -1.25 y - E at dt = 0.25: h' < 0, so the level
        # goes bracketed, finds no sign change above E and brackets the root below
        sol = solve_tree(Generator.parse("9*y"), TerminalCondition.parse("1 + w^2"), 4,
                         scheme="implicit")
        for i in range(4):
            E = TreeModel.pairwise_average(sol.y[i + 1])
            np.testing.assert_allclose(sol.y[i], -0.8 * E, rtol=1e-12, atol=0)

    def test_infinite_slope_is_bracketed(self, monkeypatch):
        # g_y = -1/(2 sqrt(|y|)) is infinite at y = 0, which the odd payoffs
        # reach: those levels trap, and their replays bracket the root; a node
        # is held where Newton's step leaves it, so no level bisects on
        bracketed = []

        def counted(*args):
            bracketed.append(args[2])  # the step
            return _bracketed(*args)

        _bracketed = solver._bracketed
        for source, payoff, steps in (("-sqrt(abs(y)) * sign(y)", "w", 4),
                                      ("-sqrt(abs(y)) * sign(y) + 5*y", "w^3", 30)):
            g, xi = Generator.parse(source), TerminalCondition.parse(payoff)

            def solve():
                return solve_tree(g, xi, steps, scheme="implicit")

            bracketed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_bracketed", counted)
                sol = solve()
            ref = oracle_solve(monkeypatch, solve)
            assert sol.diagnostics["replayed_levels"] > 0 and bracketed
            assert sol.diagnostics["picard_max_iterations"] <= 8
            for ours, theirs in zip(sol.y, ref.y):
                np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("source, payoff, steps, most", [
        ("-exp(3*y)", "exp(w)", 10, 50),
        ("1/y", "3*cos(w)", 10, 15),
        ("-ln(abs(y) + 1e-3)", "sin(w)", 4, 13),
    ])
    def test_steps_that_do_not_contract_go_bracketed(self, monkeypatch, source, payoff, steps,
                                                     most):
        # two Newton steps on fresh slopes of which the second is the longer:
        # the level brackets its root there (-exp(3*y) took 66 steps without)
        bracketed = []

        def counted(*args):
            bracketed.append(args[2])  # the step
            return _bracketed(*args)

        _bracketed = solver._bracketed
        g, xi = Generator.parse(source), TerminalCondition.parse(payoff)

        def solve():
            return solve_tree(g, xi, steps, scheme="implicit")

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_bracketed", counted)
            sol = solve()
        assert bracketed and sol.diagnostics["replayed_levels"] == 0
        assert sol.diagnostics["picard_max_iterations"] <= most
        for ours, theirs in zip(sol.y, oracle_solve(monkeypatch, solve).y):
            np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)

    def test_step_out_of_the_domain_is_bracketed_inside_it(self):
        # h(y) = y - E + sqrt(y) dt increases on y >= 0 and has its root in
        # (0, E); Newton's first step leaves y >= 0, and the bracket's first
        # probe, E - |h(E)| = -0.015, does too: its probes bisect back to y >= 0
        sol = solve_tree(Generator.parse("-sqrt(y)"), TerminalCondition.parse("0.01"), 4,
                         scheme="implicit")
        dt, y = 0.25, 0.01
        for i in range(3, -1, -1):  # sqrt(y_i) solves s^2 + dt s - y_{i+1} = 0
            # the root's form without the cancellation of -dt + sqrt(dt^2 + 4y)
            y = (2.0 * y / (dt + math.sqrt(dt * dt + 4.0 * y))) ** 2
            np.testing.assert_allclose(sol.y[i], y, rtol=1e-14, atol=0)
        assert y == pytest.approx(1.208661046196735e-15, rel=1e-14)

    def test_no_root_names_the_step_node_and_point(self):
        # h(y) = y - 1 - y^2 < 0 for every y: the step has no root
        with pytest.raises(ImplicitStepError) as err:
            solve_tree(Generator.parse("y^2"), TerminalCondition.parse("1"), 1, scheme="implicit")
        assert (err.value.step, err.value.time, err.value.node) == (0, 0.0, 0)
        assert str(err.value) == (
            "implicit step has no root at step 0 (t = 0), node 0: y - E - g(t, y, z) dt keeps "
            "its sign on [E - 9.22e+18, E + 9.22e+18] from (t, y, z) = (0, 1, 0)")
        assert PicardDivergenceError is ImplicitStepError  # the name before Newton's method

    @pytest.mark.parametrize("driver, payoff, steps, message", [
        # h(y) = y - E + (sqrt(y) + 1) dt > 0 on y >= 0 where E < dt: the probes
        # below E bisect toward 0, those above grow
        ("-sqrt(y) - 1", "0.01", 4, "at step 3 (t = 0.75), node 0: y - E - g(t, y, z) dt keeps "
         "its sign on [E - 0.01, E + 2.54e+18] from (t, y, z) = (0.75, 0.01, 0)"),
        # the root, about 1e315, is no double: g overflows past 1.8e307 on either side
        ("9.999999999999998*y - 1e295", "w", 10, "at step 9 (t = 0.9), node 0: y - E - "
         "g(t, y, z) dt keeps its sign on [E - 1.8e+307, E + 1.8e+307] from (t, y, z) = "
         "(0.9, -2.84605, 1)"),
    ])
    def test_no_root_inside_the_domain_names_the_step_node_and_point(self, driver, payoff,
                                                                     steps, message):
        g, xi = Generator.parse(driver), TerminalCondition.parse(payoff)
        with pytest.raises(ImplicitStepError) as alone:
            solve_tree(g, xi, steps, scheme="implicit")
        assert str(alone.value) == f"implicit step has no root {message}"
        assert (alone.value.step, alone.value.node, alone.value.problem) == (steps - 1, 0, None)
        # in a stack, behind a problem that solves, it names its problem too
        problems = [(Generator.parse("-y"), xi, "implicit", None), (g, xi, "implicit", None)]
        with pytest.raises(ImplicitStepError) as stacked:
            solve_tree_stack(problems, steps)
        assert str(stacked.value) == (f"problem 1 (implicit, g = {g.to_source()}, terminal "
                                      f"{payoff}): implicit step has no root {message}")
        assert (stacked.value.step, stacked.value.node, stacked.value.problem) == (steps - 1, 0, 1)

    def test_declared_bound_enforced(self):
        lying = TerminalCondition.parse("sin(w)", bound=0.1)
        with pytest.raises(ValueError, match="declared bound"):
            solve_tree(ZERO, lying, 32)

    def test_comparison_monotonicity_random_pairs(self):
        # ordered data -> ordered tree solutions (implicit, contraction regime)
        rng = np.random.default_rng(77)
        for _ in range(10):
            b1 = rng.uniform(-0.5, 0.5)
            b2 = rng.uniform(-0.5, 0.5)
            b3 = rng.uniform(-1.0, 1.0)
            delta_g = rng.uniform(0.0, 1.0)
            delta_xi = rng.uniform(0.0, 1.0)
            g = Generator.parse(f"({b1!r}) * sin(y) + ({b2!r}) * cos(z) + ({b3!r}) * z")
            g_hi = Generator.parse(
                f"({b1!r}) * sin(y) + ({b2!r}) * cos(z) + ({b3!r}) * z + {delta_g!r}"
            )
            xi = TerminalCondition.parse("sin(w)")
            xi_hi = TerminalCondition.parse(f"sin(w) + {delta_xi!r}")
            lo = solve_tree(g, xi, 64, scheme="implicit")
            hi = solve_tree(g_hi, xi_hi, 64, scheme="implicit")
            for row_lo, row_hi in zip(lo.y, hi.y):
                assert np.all(row_lo <= row_hi + 1e-9)

    def test_quadratic_transform_consistency(self):
        # direct solve of the quadratic driver vs log of the driverless solve
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        direct = solve_tree(Generator.parse("z^2 / 2"), xi, 400, scheme="implicit")
        exp_xi = TerminalCondition.parse("exp(sin(w))")
        driverless = solve_tree(ZERO, exp_xi, 400)
        assert abs(direct.y0 - math.log(driverless.y0)) < 5e-3


class TestPathEnsemble:
    def test_moment_gates(self):
        # each step's increments: mean 0 and variance dt, within 5 standard errors
        ens = PathEnsemble.generate(TimeGrid.uniform(1.0, 20), 4000, seed=5)
        dt = 1.0 / 20
        assert len(ens.increments) == 20
        for row in ens.increments:
            assert abs(row.mean()) <= 5.0 * math.sqrt(dt / 4000)
            assert abs(row.var() - dt) <= 5.0 * dt * math.sqrt(2.0 / 4000)

    def test_levels_are_the_running_sums(self):
        ens = PathEnsemble.generate(TimeGrid.uniform(1.0, 10), 100, seed=9)
        walk = np.zeros((11, 100))
        np.cumsum(np.stack(ens.increments), axis=0, out=walk[1:])
        assert np.stack(ens.levels).tobytes() == walk.tobytes()
        # one read-only row per node, each allocated apart so that it can be released
        for row in ens.increments + ens.levels:
            assert row.shape == (100,) and row.flags.owndata and not row.flags.writeable

    def test_levels_keep_a_negative_zero_first_increment(self):
        # the first level is the first increment itself, as in np.cumsum: 0.0 + -0.0 is +0.0
        rows = np.array([[-0.0, 1.0], [-0.0, -1.0]])
        ens = PathEnsemble(grid=TimeGrid.uniform(1.0, 2), paths=2, seed=0, increments=rows)
        walk = np.zeros((3, 2))
        np.cumsum(rows, axis=0, out=walk[1:])
        assert np.stack(ens.levels).tobytes() == walk.tobytes()
        assert np.signbit(ens.levels[1][0]) and np.signbit(ens.levels[2][0])

    def test_reproducible(self):
        a = PathEnsemble.generate(TimeGrid.uniform(1.0, 10), 100, seed=9)
        b = PathEnsemble.generate(TimeGrid.uniform(1.0, 10), 100, seed=9)
        assert np.array_equal(np.stack(a.increments), np.stack(b.increments))
        c = PathEnsemble.generate(TimeGrid.uniform(1.0, 10), 100, seed=10)
        assert not np.array_equal(np.stack(a.increments), np.stack(c.increments))

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_out_of_range_is_named(self, seed):
        # numpy would raise OverflowError or "expected non-negative integer"
        message = rf"seed must be an integer in \[0, 2\^64\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            PathEnsemble.generate(TimeGrid.uniform(1.0, 10), 100, seed)

    def test_matches_an_independent_philox_draw(self):
        for seed in (9, 10):
            ens = PathEnsemble.generate(TimeGrid.uniform(1.0, 10), 100, seed=seed)
            draw = np.random.Generator(np.random.Philox(key=seed)).standard_normal((100, 10))
            stacked = np.stack(ens.increments, axis=1)  # path-major, as drawn
            assert stacked.tobytes() == (draw * math.sqrt(1.0 / 10)).tobytes()


class TestSolveMcRegression:
    def test_squared_terminal_within_stderr(self):
        xi = TerminalCondition.parse("w^2")
        sol = solve_mc_regression(ZERO, xi, 50, 100_000, 2, seed=123)
        ens = PathEnsemble.generate(sol.grid, sol.paths, sol.seed)
        stderr = float(np.std(xi(ens.levels[-1]))) / math.sqrt(sol.paths)
        assert abs(sol.y0 - 1.0) <= 3.0 * stderr

    def test_discounted_constant(self):
        sol = solve_mc_regression(
            Generator.parse("-y"), TerminalCondition.parse("1"), 50, 20_000, 2, seed=3
        )
        assert abs(sol.y0 - math.exp(-1.0)) <= 5e-3

    def test_deterministic_across_worker_counts(self):
        xi = TerminalCondition.parse("w^2")
        g = Generator.parse("-y + z / 2")
        one = solve_mc_regression(g, xi, 20, 50_000, 2, seed=11, threads=1)
        eight = solve_mc_regression(g, xi, 20, 50_000, 2, seed=11, threads=8)
        assert one.y0 == eight.y0
        for a, b in zip(one.y, eight.y):
            assert np.array_equal(a, b)

    def test_path_requirement(self):
        with pytest.raises(ValueError, match="10"):
            solve_mc_regression(ZERO, B_T, 10, 25, 2, seed=0)

    def test_condition_numbers_recorded(self, monkeypatch):
        drawn = []
        generate = PathEnsemble.generate
        monkeypatch.setattr(
            PathEnsemble, "generate", lambda *args: drawn.append(generate(*args)) or drawn[-1]
        )
        sol = solve_mc_regression(ZERO, B_T, 10, 2000, 3, seed=1)
        conds = sol.diagnostics["regression_condition_numbers"]
        assert len(conds) == 10
        assert all(c >= 1.0 for c in conds)
        # the payoff w returns its input: the terminal row must still be a copy
        assert not np.shares_memory(sol.y[-1], drawn[0].levels[-1])

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_peak_memory_is_about_the_solutions_own_rows(self, scheme):
        # the sweep releases each ensemble row once it has passed it, so live
        # ensemble rows fall about as fast as solution rows are written
        g, xi = Generator.parse("-y + z / 2"), TerminalCondition.parse("sin(w)")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sol = solve_mc_regression(g, xi, 50, 20_000, 3, seed=2, scheme=scheme)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sum(row.nbytes for row in sol.y + sol.z)

    @pytest.mark.parametrize("driver, terminal, scheme, replayed", [
        ("-y^3 + abs(z)^1.5 * sin(y)", "sin(w)", "explicit", 0),
        ("-y + z / 2", "w^2", "implicit", 0),
        # y*1e300*1e10 overflows at every level, which is then replayed
        ("min(y*1e300*1e10, 1)", "2 + sin(w)", "explicit", 20),
        ("min(y*1e300*1e10, 1)", "2 + sin(w)", "implicit", 20),
    ])
    def test_rows_are_the_path_major_references(self, driver, terminal, scheme, replayed):
        g, xi = Generator.parse(driver), TerminalCondition.parse(terminal)
        sol = solve_mc_regression(g, xi, 20, 2000, 3, seed=4, scheme=scheme)
        grid = TimeGrid.uniform(1.0, 20)
        states, expect, conds = mc_expect_reference(grid, 2000, 3, seed=4)
        [ref] = solver._backward_sweep([(g, xi, scheme, None)], grid, states, expect,
                                       backend="mc-regression", seed=4, paths=2000)
        assert [row.tobytes() for row in sol.y + sol.z] == [row.tobytes() for row in ref.y + ref.z]
        assert sol.diagnostics["regression_condition_numbers"] == tuple(conds)
        assert sol.diagnostics["replayed_levels"] == ref.diagnostics["replayed_levels"] == replayed

    def test_hermite_rows_are_orthonormal_under_the_gaussian(self):
        # 20-node Gauss-Hermite quadrature for exp(-x^2/2) is exact up to degree 39
        nodes, weights = np.polynomial.hermite_e.hermegauss(20)
        rows = _hermite_rows(nodes, np.empty((9, 20)))
        gram = (rows * weights) @ rows.T / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-13

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_regression_matches_long_double_reference(self, degree):
        # the smallest ensembles allowed give the worst-conditioned bases: draw several
        rng = np.random.default_rng(100 + degree)
        for rows in [10 * (degree + 1)] * 20 + [100_000]:
            x = rng.standard_normal(rows)
            basis = _hermite_rows(x, np.empty((degree + 1, rows))).T
            targets = np.array(
                (np.sin(3 * x) + rng.standard_normal(rows), np.exp(x) * rng.standard_normal(rows))
            )
            fitted, _ = _regress(basis, targets.T)  # laid out as the solver passes them
            want = lstsq_reference(basis, targets.T)
            assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(want))

    def test_reference_reproduces_a_target_in_the_span(self):
        x = np.random.default_rng(6).standard_normal(200)
        basis = np.vander(x, 5, increasing=True)
        target = basis @ np.array([1.0, -2.0, 0.5, 0.25, -0.125])
        assert np.max(np.abs(lstsq_reference(basis, target) - target)) <= 1e-13

    @pytest.mark.parametrize("gap, deficient", [(1e-13, True), (1e-6, True), (1e-4, False)])
    def test_rank_gate_at_least_as_strict_as_an_svd_gate(self, gap, deficient):
        # columns x and x + gap * noise: singular-value ratio about gap / 2, so an
        # SVD gate at 1e-12 fires only for the first; the Gram gate, at an
        # eigenvalue ratio of 1e-12, for the first two
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000)
        basis = np.column_stack((np.ones(1000), x, x + gap * rng.standard_normal(1000)))
        if deficient:
            with pytest.raises(RankDeficientError) as err:
                _regress(basis, x)
            assert err.value.cond == math.inf
        else:
            _, cond = _regress(basis, x)
            assert 1e3 < cond < 1e6

    def test_rank_deficiency_names_step_and_time(self, monkeypatch):
        # every path stays at 0, so the basis is constant across paths
        def flat(cls, grid, paths, seed):
            return cls(grid=grid, paths=paths, seed=seed, increments=np.zeros((grid.steps, paths)))

        monkeypatch.setattr(PathEnsemble, "generate", classmethod(flat))
        with pytest.raises(RankDeficientError) as err:
            solve_mc_regression(ZERO, B_T, 10, 200, 2, seed=0)
        assert err.value.step == 9
        assert err.value.time == pytest.approx(0.9)
        assert "rank deficient at step 9 (t = 0.9)" in str(err.value)

    def test_high_degree_basis_stays_well_conditioned(self):
        # monomials of degree 8 in N(0, 1) samples have condition numbers near 1e4
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        one = solve_mc_regression(g, xi, 20, 2000, 8, seed=5, threads=1)
        conds = one.diagnostics["regression_condition_numbers"]
        assert len(conds) == 20 and max(conds) < 100
        for again in (solve_mc_regression(g, xi, 20, 2000, 8, seed=5, threads=1),
                      solve_mc_regression(g, xi, 20, 2000, 8, seed=5, threads=2)):
            assert all(np.array_equal(a, b) for a, b in zip(one.y + one.z, again.y + again.z))
            assert again.diagnostics == one.diagnostics

    @pytest.mark.parametrize("seed", [11, 12])
    def test_implicit_super_linear_step_converges(self, seed):
        # Picard iteration diverged here at t = 0.98, where the regressed E
        # reaches 3.77; by symmetry (odd payoff, odd driver) y_0 is 0
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        sol = solve_mc_regression(g, TerminalCondition.parse("sin(w)"), 50, 20_000, 3, seed,
                                  scheme="implicit")
        assert abs(sol.y0) <= 1e-2
        assert sol.diagnostics["picard_max_iterations"] <= solver.NEWTON_CAP

    def test_rank_deficient_regression_raises(self):
        basis = np.ones((50, 3))  # duplicated columns: rank 1
        with pytest.raises(RankDeficientError) as err:
            _regress(basis, np.arange(50.0))
        assert err.value.cond == math.inf or err.value.cond > 1e12

    def test_stacked_targets_match_single_regressions(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        basis = np.vander(x, 4, increasing=True)
        a = np.sin(3 * x) + rng.standard_normal(500)
        b = a * rng.standard_normal(500) * 10
        both, cond = _regress(basis, np.column_stack((a, b)))
        assert both.shape == (500, 2)
        for k, target in enumerate((a, b)):
            single, cond_single = _regress(basis, target)
            assert np.max(np.abs(both[:, k] - single)) <= 1e-12
            assert cond == cond_single


class TestBackwardSweep:
    """Behaviour of the sweep both backends share."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda **kw: solve_tree(ZERO, B_T, 16, **kw),
            lambda **kw: solve_mc_regression(ZERO, B_T, 16, 2000, 2, seed=0, **kw),
        ],
        ids=["tree", "mc-regression"],
    )
    def test_z_clamp_labels_non_conforming(self, solve):
        sol = solve(z_clamp=0.5)
        assert not sol.conforming
        assert sol.diagnostics["z_clamped"]
        assert max(float(np.max(np.abs(row))) for row in sol.z) <= 0.5
        unclamped = solve(z_clamp=100.0)
        assert unclamped.conforming
        assert not unclamped.diagnostics["z_clamped"]

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("z_clamp", [None, 0.5])
    def test_solution_rows_are_read_only(self, scheme, z_clamp):
        g = Generator.parse("-y + z / 2")
        for sol in (solve_tree(g, B_T, 8, scheme=scheme, z_clamp=z_clamp),
                    solve_mc_regression(g, B_T, 8, 200, 2, seed=0, scheme=scheme,
                                        z_clamp=z_clamp)):
            for row in sol.y + sol.z:
                with pytest.raises(ValueError, match="read-only"):
                    row[0] = 0.0

    @pytest.mark.parametrize("z_clamp", [0.0, -1.0, math.nan])
    def test_z_clamp_must_be_positive(self, z_clamp):
        # np.clip(z, 1, -1) would set every z to -1: y0 = -1 where the answer is 1
        for solve in (
            lambda: solve_tree(Generator.parse("z"), B_T, 50, z_clamp=z_clamp),
            lambda: solve_mc_regression(ZERO, B_T, 16, 2000, 2, seed=0, z_clamp=z_clamp),
        ):
            with pytest.raises(ValueError, match="z_clamp must be > 0"):
                solve()


class TestDiscreteSolution:
    def test_all_values_finite(self):
        sol = solve_tree(Generator.parse("-y"), B_T, 32, scheme="implicit")
        for row in sol.y:
            assert np.all(np.isfinite(row))
        for row in sol.z:
            assert np.all(np.isfinite(row))

    def test_tree_rows_are_ragged(self):
        sol = solve_tree(ZERO, B_T, 4)
        assert [row.shape for row in sol.y] == [(i + 1,) for i in range(5)]
        assert [row.shape for row in sol.z] == [(i + 1,) for i in range(4)]

    def test_substrate_key_distinguishes(self):
        a = solve_tree(ZERO, B_T, 8)
        b = solve_tree(ZERO, B_T, 16)
        assert a.substrate_key() != b.substrate_key()


# every level of the last traps, since its 1e400 is no finite literal, and is
# replayed through the whole checked driver and the staged slope
STAGED_DRIVERS = ["-y^3 + abs(z)^1.5*sin(y)", "-y", "z^2/2", "-1", "0", "t*y + sin(t)*z^2",
                  "min(y, abs(z))", "sin(y)", "y - y^3", "min(y, 1e400) - y^3"]
SUBSTRATES = {
    "tree-10": lambda g, xi, **kw: solve_tree(g, xi, 10, **kw),
    "tree-200": lambda g, xi, **kw: solve_tree(g, xi, 200, **kw),
    "mc-2000x10": lambda g, xi, **kw: solve_mc_regression(g, xi, 10, 2000, 3, seed=4, **kw),
}


def oracle_solve(monkeypatch, solve):
    """``solve()`` with the independent sweep: the whole driver at every
    explicit update, bisection at every implicit node."""
    with monkeypatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(solver, "_backward_sweep", bisection_sweep_reference)
        return solve()


def replayed_solve(monkeypatch, solve):
    """``solve()`` with every level replayed: the staged driver's body raises
    FloatingPointError under the trap, so each level runs the whole checked
    driver; with flags ignored, as the bracket's growth probes run, it gives
    its values."""
    split = Expression.split

    def trapping(expr, var, *others):
        staged = split(expr, var, *others)

        def body(*args):
            if np.geterr()["over"] == "raise":
                raise FloatingPointError("replay")
            return staged[1](*args)

        return (staged[0], body, *staged[2:])

    with monkeypatch.context() as patch:
        patch.setattr(Expression, "split", trapping)
        return solve()


def raised(solve):
    with pytest.raises(Exception) as err:
        solve()
    return err.value


class TestStagedSweep:
    """The sweep evaluates the driver's y-free parts once per level; every
    value and every error is the one the whole driver gives."""

    @pytest.mark.simd_exact
    @pytest.mark.parametrize("z_clamp", [None, 0.5])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    @pytest.mark.parametrize("driver", STAGED_DRIVERS)
    def test_bit_identical_to_the_whole_driver(self, monkeypatch, driver, substrate, scheme,
                                               z_clamp):
        g, xi = Generator.parse(driver), TerminalCondition.parse("sin(w)")

        def solve():
            return SUBSTRATES[substrate](g, xi, scheme=scheme, z_clamp=z_clamp)

        sol, ref = solve(), replayed_solve(monkeypatch, solve)
        assert len(sol.y) == len(ref.y) and len(sol.z) == len(ref.z)
        for ours, theirs in zip(sol.y + sol.z, ref.y + ref.z):
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
        diagnostics, expected = dict(sol.diagnostics), dict(ref.diagnostics)
        replays = len(sol.z) if driver == STAGED_DRIVERS[-1] else 0  # no other driver traps
        assert diagnostics.pop("replayed_levels") == replays
        assert expected.pop("replayed_levels") == len(sol.z)
        assert diagnostics == expected

    @pytest.mark.simd_exact
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    @pytest.mark.parametrize("driver", STAGED_DRIVERS)
    def test_matches_the_bisection_oracle(self, monkeypatch, driver, substrate, scheme):
        # explicit: the same bits; implicit: every node within 1e-10 of its root
        g, xi = Generator.parse(driver), TerminalCondition.parse("sin(w)")

        def solve():
            return SUBSTRATES[substrate](g, xi, scheme=scheme)

        sol, ref = solve(), oracle_solve(monkeypatch, solve)
        for ours, theirs in zip(sol.y + sol.z, ref.y + ref.z):
            if scheme == "explicit":
                assert ours.tobytes() == theirs.tobytes()
            else:
                np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-10)
        if scheme == "implicit":
            assert sol.diagnostics["picard_max_iterations"] <= solver.NEWTON_CAP

    @pytest.mark.simd_exact
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("driver, terminal, subexpr", [
        ("ln(y) + ln(z)", "-1", "ln(y)"),  # the y-free ln(z) fails first in the split form
        ("ln(z) + ln(y)", "-1", "ln(z)"),
        ("y + ln(z)", "-1", "ln(z)"),
        ("ln(y) + 1e308*z*10", "w - 5", "ln(y)"),  # an infinite y-free part is no error
        ("abs(y) + 1e308*z*10", "w - 5", "abs(y) + 1e+308 * z * 10.0"),
    ])
    def test_domain_error_is_the_whole_drivers(self, monkeypatch, driver, terminal, subexpr,
                                               scheme):
        g, xi = Generator.parse(driver), TerminalCondition.parse(terminal)

        def solve():
            return solve_tree(g, xi, 4, scheme=scheme)

        err, ref = raised(solve), raised(lambda: oracle_solve(monkeypatch, solve))
        assert type(err) is type(ref) is EvalDomainError
        assert str(err) == str(ref) and err.subexpr == subexpr

    @pytest.mark.simd_exact
    def test_cubic_is_its_replays(self, monkeypatch):
        # -y^3 with 3 cos(w) at N = 10, where Picard iteration diverged: the
        # staged Newton steps give the bits of their checked replay
        g, xi = Generator.parse("-y^3"), TerminalCondition.parse("3*cos(w)")

        def solve():
            return solve_tree(g, xi, 10, scheme="implicit")

        sol, ref = solve(), replayed_solve(monkeypatch, solve)
        assert [row.tobytes() for row in sol.y] == [row.tobytes() for row in ref.y]
        assert sol.diagnostics["picard_max_iterations"] == ref.diagnostics["picard_max_iterations"]
        assert ref.diagnostics["replayed_levels"] == 10

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_monte_carlo_overflow_is_a_domain_error_not_a_warning(self, scheme):
        # z^2/2 overflows on Monte Carlo at 2,000 paths; the multiply's overflow
        # warning no longer comes first
        g, xi = Generator.parse("z^2 / 2"), TerminalCondition.parse("min(w^2, 4)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalDomainError, match=r"non-finite value in sub-expression 'z\^2.0'"):
                solve_mc_regression(g, xi, 50, 2000, 3, seed=1, scheme=scheme)

    def test_driver_is_staged_once(self, monkeypatch):
        # the sweep calls the staged functions directly, never Expression.__call__
        g, xi = Generator.parse("-y^3 + abs(z)^1.5*sin(y)"), TerminalCondition.parse("sin(w)")
        solve_tree(g, xi, 8, scheme="implicit")
        staged = g.expr.split("y", g.expr.derivative("y"))
        calls = []
        whole = type(g.expr).__call__

        def counted(expr, *values):
            calls.append(expr)
            return whole(expr, *values)

        monkeypatch.setattr(type(g.expr), "__call__", counted)
        sol = solve_tree(g, xi, 8, scheme="implicit")
        assert g.expr.split("y", g.expr.derivative("y")) is staged and sol.generator is g
        assert calls and not any(expr is g.expr for expr in calls)


# Drivers whose levels trap, or whose constants are not finite.  The drivers
# with 1e308*10 or 1e400 need the numpy literals of a constant that does not
# fold, the two with t*1e308*10 and 1/(t - 0.5) need t as a numpy float, and
# the last three need x^0 as a numpy 1.0: Python computes t*1e308*10 as inf
# with no flag, and 1/(t - 0.5) at t = 0.5 as a ZeroDivisionError.
EDGE_DRIVERS = [
    "y + 1e308*10", "min(y*1e300*1e10, 1)", "t*1e308*10 + y*0", "1e308",
    "min(exp(1e308*10 + 0*y), 1)", "min((y + 1e308*10)^1.5, 1)", "min(y^1.5 * 1e400, 1)",
    "y + 1e400", "min(y + 1e400, 1) + sqrt(y - 2)", "ln(y) + 1e308*z*10",
    "min(t^3 * 1e306 * 1e5, 1) + y", "y/(z - z)", "min(exp(t*1e308*10), 1) + y",
    "min(1/(t - 0.5), 1) + y", "y^0*1e308*10", "min(exp(z^0*1e308*10), 1) + y", "y^0/0",
]


def outcome(solve, ignored=("replayed_levels",)):
    """The bits of every row and the diagnostics but the ``ignored`` ones, or
    the error's type and message."""
    try:
        sol = solve()
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return type(err), str(err)
    diagnostics = {k: v for k, v in sol.diagnostics.items() if k not in ignored}
    return [row.tobytes() for row in sol.y + sol.z], diagnostics


@pytest.mark.simd_exact
class TestTrappedSweep:
    """A level runs unchecked with floating-point exceptions trapped, and is
    re-run through the checked code when one fires: every value and every
    error stays the whole driver's."""

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("horizon", [1.0, 4.0])
    @pytest.mark.parametrize("terminal", ["2 + sin(w)", "w - 5"])
    @pytest.mark.parametrize("driver", EDGE_DRIVERS)
    def test_edge_driver_is_the_references(self, monkeypatch, driver, terminal, horizon, scheme):
        g, xi = Generator.parse(driver), TerminalCondition.parse(terminal)

        def solve():
            return solve_tree(g, xi, 2, horizon, scheme)

        expected = outcome(lambda: replayed_solve(monkeypatch, solve))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(solve) == expected
        if scheme == "explicit":  # and the independent sweep's, value for value
            ignored = ("replayed_levels", "picard_max_iterations")
            assert outcome(solve, ignored) == outcome(
                lambda: oracle_solve(monkeypatch, solve), ignored)

    def test_monte_carlo_overflow_is_the_references(self, monkeypatch):
        g, xi = Generator.parse("z^2 / 2"), TerminalCondition.parse("min(w^2, 4)")

        def solve():
            return solve_mc_regression(g, xi, 50, 2000, 3, seed=1)

        expected = outcome(lambda: oracle_solve(monkeypatch, solve))
        assert expected[0] is EvalDomainError and outcome(solve) == expected

    def test_replayed_levels_counts_the_levels_that_trap(self, monkeypatch):
        # y * 1e300 * 1e10 overflows at every level, and min(inf, 1) is 1; the
        # literal inf of min(y, 1e400) raises the invalid flag at every level
        xi = TerminalCondition.parse("2 + sin(w)")
        for g in (Generator.parse("min(y*1e300*1e10, 1)"), Generator.parse("min(y, 1e400)")):
            for scheme in ("explicit", "implicit"):
                def solve():
                    return solve_tree(g, xi, 10, scheme=scheme)

                sol = solve()
                assert sol.diagnostics["replayed_levels"] == 10
                assert outcome(lambda: sol) == outcome(lambda: replayed_solve(monkeypatch, solve))

    def test_regression_overflow_inside_np_linalg_is_trapped(self):
        # np.linalg computes with its flags ignored: at y ~ 1e303 on a nearly
        # collinear basis the coefficients come back NaN with no flag raised
        x = np.random.default_rng(0).standard_normal(50)
        basis = np.stack([np.ones(50), 1.0 + 1e-5 * x]).T
        target = np.stack([1e303 * x, 1e303 * x]).T
        with np.errstate(all="ignore"):
            fitted, _ = _regress(basis, target)
        assert np.isnan(fitted).all()
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            with pytest.raises(FloatingPointError):
                _regress(basis, target)


# Stacked with the random drivers of each example: every level of the first
# replays, since its 1e400 is no finite literal, and the implicit levels of
# the second go bracketed (two Newton steps on fresh slopes do not contract).
STACK_PINNED = [("min(y, 1e400) - y^3", "sin(w)"), ("-exp(3*y)", "exp(w)")]


@pytest.mark.simd_exact
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stacked_sweep_is_each_problems_own(seed):
    # every solution of a stack has the bits and diagnostics of its own
    # solve_tree; a stack with a problem that fails raises that problem's error
    rng = random.Random(seed)
    pairs = [(Generator.parse(g), TerminalCondition.parse(xi)) for g, xi in STACK_PINNED]
    for _ in range(4):
        ast = random_signed_ast(rng, rng.randrange(1, 4))
        pairs.append((Generator(Expression(ast, ("t", "y", "z"))),
                      TerminalCondition.parse(rng.choice(["w", "sin(w)", "2 + cos(w)"]))))
    problems = [(g, xi, scheme, None) for g, xi in pairs for scheme in ("explicit", "implicit")]
    steps = 8
    alone = [outcome(lambda: solve_tree(g, xi, steps, scheme=scheme), ignored=())
             for g, xi, scheme, _ in problems]
    solved = [p for p, out in enumerate(alone) if type(out) is tuple and type(out[0]) is list]
    bracketed = []

    def counted(*args):
        bracketed.append(args[2])  # the step
        return _bracketed(*args)

    _bracketed = solver._bracketed
    with mock.patch.object(solver, "_bracketed", counted):
        stacked = solve_tree_stack([problems[p] for p in solved], steps)
    assert bracketed and solved[:4] == [0, 1, 2, 3]
    assert stacked[0].diagnostics["replayed_levels"] == stacked[1].diagnostics[
        "replayed_levels"] == steps
    for p, sol in zip(solved, stacked):
        assert outcome(lambda: sol, ignored=()) == alone[p]
    if len(solved) < len(problems):
        with pytest.raises(Exception) as err:
            solve_tree_stack(problems, steps)
        p = err.value.problem
        g, xi, scheme, _ = problems[p]
        assert p not in solved and (type(err.value), str(err.value)) == (alone[p][0], (
            f"problem {p} ({scheme}, g = {g.to_source()}, terminal {xi.expr.to_source()}): "
            f"{alone[p][1]}"))
