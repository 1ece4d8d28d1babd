import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelab.generators import Generator, WeightFn
from bsdelab.ode_bounds import TimeGrid
from bsdelab.transforms import (
    exp_transform_generator,
    exp_transform_solution,
    gamma_for_band,
    inverse_exp_transform,
    qs_bounds,
)
from tests.oracles import dual_generator

ONE = WeightFn.parse("1")


class TestSolutionTransform:
    def test_identity_point(self):
        assert exp_transform_solution(0.0, 0.0, 1.0) == (1.0, 0.0)

    def test_unit_point(self):
        Y, Z = exp_transform_solution(1.0, 2.0, 1.0)
        assert Y == pytest.approx(math.e, rel=1e-15)
        assert Z == pytest.approx(2.0 * math.e, rel=1e-15)

    def test_round_trip(self):
        y, z = inverse_exp_transform(math.e, 2.0 * math.e, 1.0)
        assert y == pytest.approx(1.0, rel=1e-12)
        assert z == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        ys, zs = rng.uniform(-3, 3, size=(2, 200))
        for gamma in (0.5, 1.0, 2.0):
            Y, Z = exp_transform_solution(ys, zs, gamma)
            back_y, back_z = inverse_exp_transform(Y, Z, gamma)
            assert np.max(np.abs(back_y - ys)) < 1e-12 * (1 + np.max(np.abs(ys)))
            assert np.max(np.abs(back_z - zs)) < 1e-12 * (1 + np.max(np.abs(zs)))

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_exp_transform(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            inverse_exp_transform(-2.0, 1.0, 1.0)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            exp_transform_solution(0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0),
        st.floats(0.01, 4.0),
    )
    def test_round_trip_property(self, y, z, gamma):
        Y, Z = exp_transform_solution(y, z, gamma)
        back_y, back_z = inverse_exp_transform(Y, Z, gamma)
        assert back_y == pytest.approx(y, rel=1e-10, abs=1e-10)
        assert back_z == pytest.approx(z, rel=1e-10, abs=1e-10)


class TestGeneratorTransform:
    def test_quadratic_cancellation_pointwise(self):
        G = exp_transform_generator(Generator.parse("z^2 / 2"), 1.0)
        rng = np.random.default_rng(9)
        Y = rng.uniform(0.1, 10.0, size=10_000)
        Z = rng.uniform(-10.0, 10.0, size=10_000)
        vals = np.abs(np.asarray(G(0.3, Y, Z)))
        assert np.all(vals <= 1e-10 * (1.0 + Z * Z / Y))

    def test_quadratic_cancellation_other_gamma(self):
        gamma = 2.5
        G = exp_transform_generator(Generator.parse(f"{gamma} * z^2 / 2"), gamma)
        rng = np.random.default_rng(10)
        Y = rng.uniform(0.1, 10.0, size=1000)
        Z = rng.uniform(-5.0, 5.0, size=1000)
        vals = np.abs(np.asarray(G(0.0, Y, Z)))
        assert np.all(vals <= 1e-10 * (1.0 + Z * Z / Y))

    def test_zero_driver(self):
        G = exp_transform_generator(Generator.parse("0"), 1.0)
        assert G(0.0, 2.0, 3.0) == pytest.approx(-9.0 / 4.0, rel=1e-14)

    def test_zero_for_nonpositive_argument(self):
        G = exp_transform_generator(Generator.parse("y + z^2"), 1.0)
        assert G(0.0, -1.0, 5.0) == 0.0
        assert G(0.0, 0.0, 5.0) == 0.0
        mixed = G(0.0, np.asarray([-1.0, 1.0]), np.asarray([2.0, 0.0]))
        assert mixed[0] == 0.0

    def test_lower_bound_construction_consistency(self):
        # building the flipped driver by AST rewriting and then transforming
        # agrees with the hand-written closure gamma*Y*(-g(t,-ln Y/gamma,
        # -Z/(gamma Y))) - Z^2/(2Y)
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        gamma = 2.0
        via_ast = exp_transform_generator(dual_generator(g), gamma)

        def direct(t, Y, Z):
            inner = -g(t, -np.log(Y) / gamma, -Z / (gamma * Y))
            return gamma * Y * inner - Z * Z / (2.0 * Y)

        rng = np.random.default_rng(12)
        Y = rng.uniform(0.2, 5.0, size=500)
        Z = rng.uniform(-4.0, 4.0, size=500)
        got = np.asarray(via_ast(0.1, Y, Z))
        want = direct(0.1, Y, Z)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(1.0 + np.abs(want))


class TestQSBounds:
    def test_zero_weight(self):
        grid = TimeGrid.uniform(1.0, 16)
        Q, S = qs_bounds(0.5, 2.0, WeightFn.parse("0"), grid)
        assert np.all(Q == 0.5)
        assert np.all(S == 2.0)

    def test_unit_weight_closed_form(self):
        grid = TimeGrid.uniform(1.0, 256)
        Q, S = qs_bounds(0.5, 2.0, ONE, grid)
        assert Q[0] == pytest.approx(0.5 * math.exp(-1.0), rel=1e-10)
        assert S[0] == pytest.approx(2.0 * math.e, rel=1e-10)

    def test_terminal_values(self):
        grid = TimeGrid.uniform(1.0, 16)
        Q, S = qs_bounds(1.0, 1.0, ONE, grid)
        assert Q[-1] == 1.0
        assert S[-1] == 1.0

    def test_ordering(self):
        grid = TimeGrid.uniform(2.0, 64)
        Q, S = qs_bounds(0.25, 3.0, WeightFn.parse("t"), grid)
        assert np.all(Q[0] <= Q + 1e-15)
        assert np.all(Q <= 0.25 + 1e-15)
        assert np.all(3.0 - 1e-15 <= S)
        assert np.all(S <= S[0] + 1e-15)

    def test_preconditions(self):
        grid = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError):
            qs_bounds(1.5, 2.0, ONE, grid)
        with pytest.raises(ValueError):
            qs_bounds(0.5, 0.9, ONE, grid)


class TestGammaHelper:
    def test_constant_h(self):
        assert gamma_for_band("1", 3.0) == 4.0

    def test_exponential_h(self):
        assert gamma_for_band("exp(y)", 2.0) == pytest.approx(2.0 * (math.exp(2.0) + 1.0))


class TestTransformedSolutionBarriers:
    def test_transformed_pair_between_exponential_barriers(self):
        # |g| <= u(t) + (gamma/2) z^2 with u = 1/2, gamma = 1; the transform
        # of the solved pair must then stay between Q and S built from the
        # weight gamma * u, up to the scheme's O(dt) slack
        from bsdelab.generators import TerminalCondition
        from bsdelab.solver import solve_tree
        from bsdelab.transforms import exp_transform_solution

        g = Generator.parse("1/2 + z^2 / 2")
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 200, scheme="implicit")
        Q, S = qs_bounds(math.exp(-1.0), math.exp(1.0), WeightFn.parse("1/2"), sol.grid)
        slack = 0.05
        for i, row in enumerate(sol.y):
            Y, _ = exp_transform_solution(np.asarray(row), np.zeros_like(row), 1.0)
            assert np.all(Y >= Q[i] * (1.0 - slack))
            assert np.all(Y <= S[i] * (1.0 + slack))
