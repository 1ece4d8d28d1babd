import functools
import importlib
import inspect
import math
import warnings

import numpy as np
import pytest

from bsdelab import envelopes, ode_bounds
from bsdelab.envelopes import EnvelopeGrid
from bsdelab.expressions import EvalDomainError
from bsdelab.generators import WeightFn, _as_univariate
from bsdelab.ode_bounds import (
    BlowUpError,
    BoundEnvelope,
    NonPositiveError,
    TimeGrid,
    bihari_sequence,
    gronwall_cap,
    osgood_diagnostic,
    sandwich_envelope,
    solve_growth_ode,
)
from tests.oracles import limit_estimate_reference, lipschitz_envelope_reference, simpson_integrals

ONE = WeightFn.parse("1")
TWO_E_MINUS_1 = 2.0 * math.e - 1.0


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(2.0, 4)
        assert grid.horizon == 2.0
        assert grid.steps == 4
        assert grid.dt == 0.5

    def test_equal_grids_compare_and_hash_alike(self):
        # equality and hashing come from (horizon, steps); the nodes follow from them
        grid = TimeGrid.uniform(1, 4)
        assert grid == TimeGrid(1.0, 4) and hash(grid) == hash(TimeGrid(1.0, 4))
        assert grid != TimeGrid(1.0, 5) and grid != TimeGrid(2.0, 4)
        assert type(grid.horizon) is float
        assert grid.nodes.tobytes() == np.linspace(0.0, 1.0, 5).tobytes()

    @pytest.mark.parametrize("horizon", [1e-3, 0.5, 1.0, 2.0, 3.0, math.pi, 10.0, 1e3])
    def test_nodes_and_step_keep_their_bits(self, horizon):
        # the grid that took a node array: linspace's nodes, and its first step as dt
        for steps in (1, 7, 400, 7_112, 20_000):
            nodes = np.linspace(0.0, horizon, steps + 1)
            grid = TimeGrid.uniform(horizon, steps)
            assert grid.nodes.tobytes() == nodes.tobytes()
            assert np.float64(grid.dt).tobytes() == np.diff(nodes)[0].tobytes()
            assert grid.horizon == nodes[-1] == horizon

    def test_nodes_are_read_only(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="read-only"):
            grid.nodes[1] = 0.3

    @pytest.mark.parametrize("horizon, steps, where", [
        (0.0, 4, r"horizon must be finite and > 0, got 0\.0"),
        (-1.0, 4, r"horizon must be finite and > 0, got -1\.0"),
        (1.0, 0, r"need at least one step, got 0"),
        (1.0, -3, r"need at least one step, got -3"),
    ])
    def test_bad_horizon_or_steps_is_named(self, horizon, steps, where):
        with pytest.raises(ValueError, match=where):
            TimeGrid(horizon, steps)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_uniform_names_a_non_finite_horizon(self, horizon):
        # checked before np.linspace, which would warn on a non-finite stop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the horizon must be finite and > 0, "
                                                 r"got (inf|nan)"):
                TimeGrid.uniform(horizon, 4)


class TestGrowthOde:
    def test_upper_affine_closed_form(self):
        grid = TimeGrid.uniform(1.0, 64)
        vals = solve_growth_ode("upper", 1.0, ONE, "1 + abs(x)", grid)
        exact = 2.0 * np.exp(1.0 - grid.nodes) - 1.0
        assert np.max(np.abs(vals - exact)) < 1e-7
        assert vals[0] == pytest.approx(TWO_E_MINUS_1, abs=1e-7)

    def test_lower_mirror(self):
        grid = TimeGrid.uniform(1.0, 64)
        vals = solve_growth_ode("lower", -1.0, ONE, "1 + abs(x)", grid)
        exact = 1.0 - 2.0 * np.exp(1.0 - grid.nodes)
        assert np.max(np.abs(vals - exact)) < 1e-7

    def test_refinement_stability(self):
        coarse = solve_growth_ode("upper", 1.0, ONE, "1 + abs(x)", TimeGrid.uniform(1.0, 32))
        fine = solve_growth_ode("upper", 1.0, ONE, "1 + abs(x)", TimeGrid.uniform(1.0, 64))
        assert np.max(np.abs(fine[::2] - coarse)) < 1e-6

    def test_quadratic_growth_blows_up(self):
        grid = TimeGrid.uniform(math.pi, 64)
        with pytest.raises(BlowUpError) as err:
            solve_growth_ode("upper", 1.0, ONE, "1 + x^2", grid)
        # U = tan(pi/4 + T - t) reaches 1e12 at pi - (atan(1e12) - pi/4) = 3 pi/4 + 1e-12
        exact = math.pi - math.atan(1e12) + math.pi / 4
        assert err.value.time_reached == pytest.approx(exact, rel=0, abs=1e-12)
        assert err.value.value == 1e12
        assert str(err.value).startswith("upper bound left [-1e12, 1e12] at t = ")

    @pytest.mark.parametrize("terminal", [0.5, 1.0, 3.0, 6.0, 10.0])
    def test_growth_that_overflows_below_the_threshold_blows_up(self, terminal):
        # F(1e12) = e^-b - e^-1e12 = e^-b < S(0) = 1, so U crosses 1e12 at the
        # t with S(t) = 1 - t = e^-b; exp(x) overflows on the way, where 1/l
        # is 0; from b = 1 up, a first panel as wide as [b, 1e12] held all of
        # 1/l's mass between its Gauss nodes and put the time near 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                solve_growth_ode("upper", terminal, ONE, "exp(x)", TimeGrid.uniform(1.0, 8))
        assert err.value.time_reached == pytest.approx(1.0 - math.exp(-terminal), rel=0, abs=1e-12)

    def test_growth_outside_its_domain_is_still_a_domain_error(self):
        # the negative control: no overflow, so the checked l's error stands
        with pytest.raises(EvalDomainError) as err:
            solve_growth_ode("upper", 0.5, ONE, "1 + sqrt(x - 2)", TimeGrid.uniform(1.0, 8))
        assert err.value.subexpr == "sqrt(x - 2.0)"

    def test_growth_with_an_overflowing_constant_warns_of_nothing(self):
        # its staged l overflows everywhere, so 1/l is 0 and F stays below S:
        # the bound leaves the threshold at once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                solve_growth_ode("upper", 0.5, ONE, "1e308*10 + abs(x)", TimeGrid.uniform(1.0, 8))
        assert err.value.time_reached == pytest.approx(1.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("terminal", [800.0, 30.0])
    def test_growth_overflowing_at_the_terminal_value_blows_up(self, terminal):
        # exp overflows at 800, and at 30 + e^30, the end of Euler's step from
        # 30; F(inf) = e^-terminal, so U leaves the threshold at t = 1 - e^-terminal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                solve_growth_ode("upper", terminal, ONE, "exp(x)", TimeGrid.uniform(1.0, 8))
        assert err.value.time_reached == pytest.approx(1.0 - math.exp(-terminal), rel=0, abs=1e-12)

    @pytest.mark.parametrize("growth, crossing", [
        ("max(1, 100*abs(x))", 1.0 - math.log(1e12 / 0.7) / 100.0),
        ("1 + 100*max(0, abs(x) - 0.8)", 1.0 - 0.1 - math.log(1.0 + 100.0 * (1e12 - 0.8)) / 100.0),
    ])
    def test_threshold_crossing_claims_no_blow_up(self, growth, crossing):
        # int dx / l diverges, so U stays finite (0.7 e^100 at t = 0 for the
        # first), but it passes 1e12 on the way: the error says only that,
        # at the time S(t) = F(1e12)
        with pytest.raises(BlowUpError) as err:
            sandwich_envelope(0.7, ONE, growth, TimeGrid.uniform(1.0, 7))
        assert str(err.value).startswith("upper bound left [-1e12, 1e12] at t = ")
        assert "outside" not in str(err.value)
        assert err.value.value == 1e12
        assert err.value.time_reached == pytest.approx(crossing, rel=0, abs=1e-12)

    @pytest.mark.parametrize("side, sign", [("upper", 1.0), ("lower", -1.0)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_terminal_is_named(self, side, sign, value):
        # a NaN passes both sign checks, and an infinite terminal used to
        # surface as a domain error blaming l
        with pytest.raises(ValueError, match=r"terminal value must be finite, got (nan|inf|-inf)"):
            solve_growth_ode(side, sign * value, ONE, "1 + abs(x)", TimeGrid.uniform(1.0, 8))

    def test_negative_weight_integral_rejected(self):
        with pytest.raises(ValueError, match=r"integral of u = -1.0 from t = 0 to T is < 0"):
            solve_growth_ode("upper", 1.0, WeightFn.parse("-1"), "1 + abs(x)",
                             TimeGrid.uniform(1.0, 4))

    def test_terminal_sign_preconditions(self):
        grid = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError):
            solve_growth_ode("lower", 0.5, ONE, "1", grid)
        with pytest.raises(ValueError):
            solve_growth_ode("upper", -0.5, ONE, "1", grid)

    def test_non_positive_growth_function(self):
        grid = TimeGrid.uniform(1.0, 8)
        with pytest.raises(NonPositiveError, match="not strictly positive at 1$") as err:
            solve_growth_ode("upper", 1.0, ONE, "1 - x", grid)
        assert err.value.x == 1.0

    @pytest.mark.parametrize("side, sign", [("upper", 1.0), ("lower", -1.0)])
    def test_first_non_positive_sample_is_named(self, side, sign):
        # l = 1 up to |x| = 0.6 and -1 past it: the curve from 0.2 would reach 1.2
        with pytest.raises(NonPositiveError) as err:
            solve_growth_ode(side, sign * 0.2, ONE, "1 - 2*max(0, sign(abs(x) - 0.6))",
                             TimeGrid.uniform(1.0, 4))
        assert err.value.x == pytest.approx(sign * 0.6, abs=1e-12)

    @pytest.mark.parametrize("side, sign", [("upper", 1.0), ("lower", -1.0)])
    def test_newton_steps_past_the_positive_range(self, side, sign):
        # l = 1 - 2|x| is positive only below 1/2, where U = 1/2 - 0.3 e^{-2 S}
        # stays; the first Newton iterates land past it and must come back
        grid = TimeGrid.uniform(1.0, 4)
        vals = solve_growth_ode(side, sign * 0.2, ONE, "1 - 2*abs(x)", grid)
        exact = 0.5 - 0.3 * np.exp(-2.0 * (1.0 - grid.nodes))
        assert np.max(np.abs(vals - sign * exact)) < 1e-9

    def test_unsettled_panels_are_bounded(self, monkeypatch):
        # 1/(2 + sin x) over about [0, 1e11]: its unsettled panels double at
        # every level, so an unbounded quadrature would take all the memory
        panels = ode_bounds._panels

        def bounded(f, lo, hi):
            assert len(lo) <= 3 * 2**17, f"a batch of {len(lo)} panels"
            return panels(f, lo, hi)

        monkeypatch.setattr(ode_bounds, "_panels", bounded)
        with pytest.raises(ValueError, match=r"^the integral of 1/l with l\(x\) = 2.0 \+ sin\(x\) "
                                             r"over \[0, [0-9.e+]+\] does not settle within "
                                             r"131072 panels$"):
            solve_growth_ode("upper", 0.0, WeightFn.parse("1e11"), "2 + sin(x)",
                             TimeGrid.uniform(1.0, 2))


GRIDS = pytest.mark.parametrize(
    "grid", [TimeGrid.uniform(1.0, 1), TimeGrid.uniform(1.0, 7), TimeGrid.uniform(1.0, 64)],
    ids=["n1", "n7", "n64"])
# S(t) = int_t^1 u, and U = F^-1(S) from U(1) = 0.7, in closed form
WEIGHT_INTEGRALS = {
    "1": lambda t: 1.0 - t,
    "2*t + sin(t)": lambda t: 1.0 - t**2 + np.cos(t) - math.cos(1.0),
    "exp(-t)": lambda t: np.exp(-t) - math.exp(-1.0),
}
INVERSES = {
    "1 + abs(x)": lambda s: 1.7 * np.exp(s) - 1.0,
    "max(1, abs(x))": lambda s: np.where(s <= 0.3, 0.7 + s, np.exp(s - 0.3)),
    "exp(abs(x)/10)": lambda s: -10.0 * np.log(math.exp(-0.07) - s / 10.0),
}


class TestTabulatedSweep:
    """Barriers by the time change F(U) = S against closed forms and the
    time-change identity, and the order in which their errors surface."""

    @pytest.mark.parametrize("u", sorted(WEIGHT_INTEGRALS))
    @pytest.mark.parametrize("l", sorted(INVERSES))
    @GRIDS
    def test_matches_closed_form(self, u, l, grid):
        env = sandwich_envelope(0.7, WeightFn.parse(u), l, grid)
        exact = INVERSES[l](WEIGHT_INTEGRALS[u](grid.nodes))
        assert np.max(np.abs(env.upper - exact)) < 1e-9
        assert np.max(np.abs(env.lower + exact)) < 1e-9

    @pytest.mark.parametrize("u", sorted(WEIGHT_INTEGRALS))
    @pytest.mark.parametrize("l", ["1 + x^2/10 + exp(-x^2)", "2 + sin(x)", "1 + abs(x)^1.5",
                                   "1 + sqrt(abs(x))"])
    @GRIDS
    def test_time_change_holds(self, u, l, grid):
        # no closed form: int dx / l between successive node values, by Simpson's
        # rule, must be int u over the interval between the nodes
        env = sandwich_envelope(0.7, WeightFn.parse(u), l, grid)
        l_fn = _as_univariate(l)
        gained = WEIGHT_INTEGRALS[u](grid.nodes[:-1]) - WEIGHT_INTEGRALS[u](grid.nodes[1:])
        for values, sign in ((env.upper, 1.0), (env.lower, -1.0)):
            spent = sign * simpson_integrals(lambda x: 1.0 / l_fn(x), values[1:], values[:-1])
            assert np.max(np.abs(spent - gained)) < 1e-10

    @GRIDS
    def test_squared_kink(self, grid):
        # F(x) = 0.3 + 1 - 1/x past the kink at 1, so U(0) = 10/3
        env = sandwich_envelope(0.7, ONE, "max(1, abs(x))^2", grid)
        s = 1.0 - grid.nodes
        exact = np.where(s <= 0.3, 0.7 + s, 1.0 / (1.3 - s))
        assert env.upper[0] == pytest.approx(10.0 / 3.0, abs=1e-9)
        assert np.max(np.abs(env.upper - exact)) < 1e-9
        assert np.max(np.abs(env.lower + exact)) < 1e-9

    @pytest.mark.parametrize("u, l, xi, grid, error, message", [
        # u has no integral on [0, h]: Gauss-Legendre nodes never sample t = 0
        ("1/t", "1 + x^2", 1.0, TimeGrid.uniform(math.pi, 64), ValueError,
         r"the integral of u = 1.0 / t over \[0, 0.0490874\] does not settle in 60 bisections"),
        ("1/t", "1 + abs(x)", 1.0, TimeGrid.uniform(1.0, 8), ValueError,
         r"the integral of u = 1.0 / t over \[0, 0.125\] does not settle"),
        # bisecting toward the pole at 0.5 samples t = 0.5 itself
        ("4/(t - 0.5)", "1.54 - abs(x)", 1.5, TimeGrid.uniform(1.0, 2), EvalDomainError,
         r"division by zero in sub-expression '4.0 / \(t - 0.5\)'"),
        ("1", "1 - abs(x)", 1.0, TimeGrid.uniform(1.0, 8), NonPositiveError,
         r"growth function is not strictly positive at -?1$"),
    ], ids=["u-fails-before-blow-up", "u-fails", "u-fails-before-l", "l-fails"])
    def test_errors_surface_in_sweep_order(self, u, l, xi, grid, error, message):
        # u is integrated over the whole grid before l is called
        w = WeightFn.parse(u)
        for side, terminal in (("upper", xi), ("lower", -xi)):
            with pytest.raises(error, match=message) as err:
                solve_growth_ode(side, terminal, w, l, grid)
            assert type(err.value) is error
        with pytest.raises(error, match=message):
            sandwich_envelope(xi, w, l, grid)


class TestSandwichEnvelope:
    def test_zero_terminal_symmetric(self):
        grid = TimeGrid.uniform(1.0, 64)
        env = sandwich_envelope(0.0, ONE, "1 + abs(x)", grid)
        exact_u = np.exp(1.0 - grid.nodes) - 1.0
        assert np.max(np.abs(env.upper - exact_u)) < 1e-7
        assert np.max(np.abs(env.lower + exact_u)) < 1e-7

    def test_constant_growth(self):
        grid = TimeGrid.uniform(1.0, 32)
        env = sandwich_envelope(1.0, ONE, "1", grid)
        assert np.allclose(env.upper, 1.0 + (1.0 - grid.nodes), atol=1e-10)
        assert np.allclose(env.lower, -1.0 - (1.0 - grid.nodes), atol=1e-10)

    def test_time_weighted_growth(self):
        grid = TimeGrid.uniform(1.0, 64)
        env = sandwich_envelope(1.0, WeightFn.parse("2*t"), "1", grid)
        assert np.max(np.abs(env.upper - (1.0 + (1.0 - grid.nodes**2)))) < 1e-7

    def test_ordering_invariant(self):
        grid = TimeGrid.uniform(1.0, 32)
        env = sandwich_envelope(0.7, ONE, "1 + abs(x)", grid)
        a, b = env.terminal
        assert env.lower[0] <= np.min(env.lower) + 1e-12
        assert np.all(env.lower <= a + 1e-12)
        assert np.all(b - 1e-12 <= env.upper)
        assert np.all(env.upper <= env.upper[0] + 1e-12)

    @pytest.mark.parametrize("steps", [
        pytest.param(7, marks=pytest.mark.xfail(
            strict=True, reason="the barrier is computed from samples of l: at N = 7 "
                                "the panels between the nodes' values step over the bump")),
        64,
    ])
    def test_barrier_sees_a_narrow_bump(self, steps):
        # l is 1 but for a bump of height 50 on [1.499, 1.501], which U crosses
        # in time ln(51)/25000: from U(1) = 0.7, U(0) = 1.702 - ln(51)/25000
        bump = "1 + 50*max(0, 1 - 1000*abs(x - 1.5))"
        env = sandwich_envelope(0.7, ONE, bump, TimeGrid.uniform(1.0, steps))
        assert env.upper[0] == pytest.approx(1.702 - math.log(51.0) / 25000.0, abs=1e-8)

    def test_envelope_validation(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="terminal"):
            BoundEnvelope(grid, np.full(5, -1.0), np.full(5, 1.0), (-2.0, 2.0))


class TestGronwallCap:
    def test_zero_data(self):
        assert gronwall_cap(0.0, 0.0, ONE, TimeGrid.uniform(1.0, 16)) == 0.0

    def test_unit_data(self):
        cap = gronwall_cap(1.0, 1.0, ONE, TimeGrid.uniform(1.0, 16))
        assert cap == pytest.approx(2.0 * math.e, rel=1e-12)

    def test_short_horizon(self):
        cap = gronwall_cap(1.0, 2.0, ONE, TimeGrid.uniform(0.5, 16))
        assert cap == pytest.approx(2.0 * math.e, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gronwall_cap(-1.0, 0.0, ONE, TimeGrid.uniform(1.0, 4))

    @pytest.mark.parametrize("b1, k, name", [
        (math.nan, 1.0, "b1"), (math.inf, 1.0, "b1"), (1.0, math.nan, "k"), (1.0, math.inf, "k"),
    ])
    def test_non_finite_rejected(self, b1, k, name):
        # NaN < 0 is False, so a NaN b1 used to come back as a NaN cap
        with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0, got (nan|inf)$"):
            gronwall_cap(b1, k, ONE, TimeGrid.uniform(1.0, 4))


class TestBihariSequence:
    def grid(self):
        return TimeGrid.uniform(1.0, 128)

    def test_zero_data_collapses(self):
        res = bihari_sequence("x", 1.0, ONE, [1], [0.0], self.grid())
        assert res.all_converged
        assert float(np.max(res.iterates)) <= 1e-6

    def test_linear_modulus_harmonic_data(self):
        ns = [1, 2, 4, 8]
        res = bihari_sequence("x", 1.0, ONE, ns, [1.0 / n for n in ns], self.grid())
        assert res.all_converged
        # v_n(t) = (1/n) e^{(T - t)} for the linear modulus
        for row, n in zip(res.iterates, ns):
            exact = (1.0 / n) * np.exp(1.0 - self.grid().nodes)
            assert np.max(np.abs(row - exact)) < 1e-4 / n + 1e-8
        assert res.monotone_in_n
        # converged iterates respect the cap; the first transient overshoots
        assert res.cap_excess_converged <= 1e-9
        assert res.cap_excess_transient > 0.0
        assert float(np.max(res.limit_estimate)) <= 1e-6

    def test_osgood_modulus(self):
        ns = [2**k for k in range(0, 11)]
        res = bihari_sequence(
            "sqrt(x) * min(1, x) + x", 2.0, ONE, ns, [1.0 / n for n in ns], self.grid()
        )
        assert res.all_converged
        assert res.monotone_in_n
        assert res.cap_excess_converged <= 1e-9
        assert float(np.max(res.limit_estimate)) <= 1e-6

    def test_non_convergence_reported(self):
        res = bihari_sequence("x", 1.0, ONE, [1], [1.0], self.grid(), j_max=2)
        assert not res.all_converged
        assert res.last_changes[0] > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="non-increasing"):
            bihari_sequence("x", 1.0, ONE, [1, 2], [0.1, 0.2], self.grid())
        with pytest.raises(ValueError, match="increasing"):
            bihari_sequence("x", 1.0, ONE, [2, 1], [0.2, 0.1], self.grid())
        with pytest.raises(ValueError, match="psi"):
            bihari_sequence("x + 1", 1.0, ONE, [1], [0.1], self.grid())

    @pytest.mark.parametrize("k, b_seq, name", [
        (math.nan, [0.5, 0.1], "k"), (math.inf, [0.5, 0.1], "k"),
        (1.0, [math.nan, 0.1], r"b_seq\[0\]"), (1.0, [0.5, math.nan], r"b_seq\[1\]"),
        (1.0, [math.inf, 0.1], r"b_seq\[0\]"),
    ])
    def test_non_finite_rejected(self, k, b_seq, name):
        # these used to fail inside psi's evaluation, and k = inf warned in linspace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0, got (nan|inf)"):
                bihari_sequence("x", k, ONE, [1, 2], b_seq, self.grid())


def sequential_bihari(psi, k, beta, n_values, b_seq, grid, j_max, envelope_grid=None):
    """The iteration of ``bihari_sequence`` one n at a time, each psi_n step
    by the dense envelope oracle on a grid of its own: (iterates, iterations,
    converged, last_changes, worst transient excess over the cap)."""
    psi = _as_univariate(psi)
    nodes = grid.nodes
    cap = gronwall_cap(b_seq[0], k, beta, grid)
    beta_vals = np.asarray(beta(nodes), dtype=float)
    egrid = envelope_grid or EnvelopeGrid(radius=max(2.0 * cap + 1.0, 10.0))
    rows, iterations, converged, changes = [], [], [], []
    transient = 0.0
    for n, b_n in zip(n_values, b_seq):
        v = np.full(len(nodes), cap)
        used, ok, change = j_max, False, math.inf
        for j in range(1, j_max + 1):
            values = beta_vals * lipschitz_envelope_reference(
                psi, n + 2.0 * k, k, np.maximum(v, 0.0), egrid.radius, egrid.nodes)
            seg = 0.5 * (values[1:] + values[:-1]) * np.diff(nodes)
            v_next = np.full(len(nodes), b_n)
            v_next[:-1] += np.cumsum(seg[::-1])[::-1]
            change = float(np.max(np.abs(v_next - v)))
            transient = max(transient, float(np.max(v_next - cap)))
            v = v_next
            if change < 1e-9:
                used, ok = j, True
                break
        rows.append(v)
        iterations.append(used)
        converged.append(ok)
        changes.append(change)
    return np.asarray(rows), tuple(iterations), tuple(converged), tuple(changes), transient


KINKED = "min(10*x, 0.3) + 0.2*x"


class TestStackedBihariRows:
    """All n rows step together; each must match its own sequential run bit for bit."""

    @pytest.mark.parametrize(
        "psi, k, ns, bs, grid, j_max, iterations, egrid",
        [
            # rows converge at different iterations
            ("min(x, 0.3) + 0.2*x", 1.0, [1, 2, 4, 50], [0.5, 0.4, 0.2, 0.01],
             TimeGrid.uniform(1.5, 40), 500, (10, 10, 12, 17), None),
            # the last row runs into j_max
            ("min(x, 0.3) + 0.2*x", 1.0, [1, 2, 4, 50], [0.5, 0.4, 0.2, 0.01],
             TimeGrid.uniform(1.5, 40), 15, (10, 10, 12, 15), None),
            # the first row converges exactly at j_max, the others do not
            ("sqrt(x)*min(1, sqrt(x)) + 0.5*x", 1.5, [1, 2, 3, 5, 8, 13],
             [0.5, 0.4, 0.3, 0.2, 0.1, 0.05], TimeGrid.uniform(1.0, 32), 15, (15,) * 6, None),
            # psi is steeper than the slopes below its kink, so the envelope's
            # value there depends on the search grid; with small base radii the
            # grid follows v, and reused and rebuilt node tables mix, or every
            # step rebuilds them
            (KINKED, 0.3, [1, 2, 4, 8], [0.02, 0.01, 0.005, 0.001], TimeGrid.uniform(0.5, 40),
             500, (7, 8, 10, 16), EnvelopeGrid(1.15, 101)),
            (KINKED, 0.3, [1, 2, 4, 8], [0.02, 0.01, 0.005, 0.001], TimeGrid.uniform(0.5, 40),
             500, (7, 8, 10, 16), EnvelopeGrid(0.05, 101)),
        ],
        ids=["rows-converge-apart", "last-row-hits-j-max", "first-row-converges-at-j-max",
             "some-radii-move", "every-radius-moves"],
    )
    def test_matches_sequential_rows(self, psi, k, ns, bs, grid, j_max, iterations, egrid):
        res = bihari_sequence(psi, k, ONE, ns, bs, grid, j_max=j_max, envelope_grid=egrid)
        rows, its, conv, changes, transient = sequential_bihari(
            psi, k, ONE, ns, bs, grid, j_max, egrid)
        assert res.iterations == its == iterations
        assert res.converged == conv
        assert res.iterates.tobytes() == rows.tobytes()
        assert np.asarray(res.last_changes).tobytes() == np.asarray(changes).tobytes()
        assert res.cap_excess_transient == transient
        assert res.cap_excess_converged == float(np.max(rows - res.cap))

    @pytest.mark.parametrize("radius, builds", [(None, 4), (1.15, 28), (0.05, 41)],
                             ids=["default-radius", "some-radii-move", "every-radius-moves"])
    def test_tables_are_rebuilt_only_when_the_radius_moves(self, monkeypatch, radius, builds):
        # 41 row steps in all; each row table built runs two running-argmax scans
        built = []
        scan = envelopes._prefix_argmax
        monkeypatch.setattr(envelopes, "_prefix_argmax",
                            lambda values, ties: built.append(len(values)) or scan(values, ties))
        res = bihari_sequence(KINKED, 0.3, ONE, [1, 2, 4, 8], [0.02, 0.01, 0.005, 0.001],
                              TimeGrid.uniform(0.5, 40),
                              envelope_grid=radius and EnvelopeGrid(radius, 101))
        assert sum(res.iterations) == 41
        assert sum(built) == 2 * builds

    @pytest.mark.parametrize("ns", [[1], [1, 2], [1, 2, 4], [1, 2, 4, 8, 16, 32, 64]])
    def test_limit_estimate_matches_the_per_node_loop(self, ns):
        res = bihari_sequence("min(x, 0.3) + 0.2*x", 1.0, ONE, ns, [0.5 / n for n in ns],
                              TimeGrid.uniform(1.5, 40))
        expected = [limit_estimate_reference(res.iterates[:, i]) for i in range(41)]
        assert res.limit_estimate.tobytes() == np.asarray(expected).tobytes()

    def test_limit_estimate_flat_and_negative_columns(self):
        # a flat second difference keeps the last term and a negative limit is
        # clamped to 0; near-geometric columns whose limit cancels to about 0
        # show where libm's pow(d, 2) and the product d * d differ
        rng = np.random.default_rng(12)
        c = rng.uniform(1.0, 2.0, 20_000) * 10.0 ** rng.integers(-60, 60, 20_000)
        values = c * rng.uniform(0.1, 0.9, 20_000) ** np.arange(3)[:, None]
        values += rng.standard_normal(values.shape) * c * 1e-3
        values[:, 0] = [1.0, 2.0, 3.0]
        values[:, 1] = [-1.0, -1.5, -1.75]
        expected = [limit_estimate_reference(values[:, i]) for i in range(values.shape[1])]
        assert expected[:2] == [3.0, 0.0]
        assert ode_bounds._limit_estimate(values).tobytes() == np.asarray(expected).tobytes()

    def test_bare_variable_modulus(self):
        # the bare variable "x" hands its input back; "1*x" computes a new array
        ns = [1, 2, 4]
        runs = [bihari_sequence(psi, 1.0, ONE, ns, [1.0 / n for n in ns], TimeGrid.uniform(1.0, 32))
                for psi in ("x", "1*x")]
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].iterates.tobytes() == runs[1].iterates.tobytes()
        assert runs[0].last_changes == runs[1].last_changes


class TestOsgoodDiagnostic:
    def test_affine_growth_likely_divergent(self):
        diag = osgood_diagnostic("1 + abs(x)", upper=1.0)
        assert diag.likely_osgood
        assert diag.outer[10.0] == pytest.approx(math.log(11.0 / 2.0), rel=1e-12)
        assert diag.inner[1e-2] == pytest.approx(math.log(2.0 / 1.01), rel=1e-6)

    def test_quadratic_growth_saturates(self):
        diag = osgood_diagnostic("1 + x^2", upper=1.0)
        assert not diag.likely_osgood
        assert diag.outer[10000.0] == pytest.approx(
            math.atan(10000.0) - math.atan(1.0), rel=1e-6
        )

    def test_constant_growth_diverges_linearly(self):
        diag = osgood_diagnostic("1", upper=1.0)
        assert diag.likely_osgood
        assert diag.outer[100.0] == pytest.approx(99.0, rel=1e-6)

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveError):
            osgood_diagnostic("x - 5", upper=1.0)



class TestFixedOptions:
    """Options no caller set are module constants holding the former defaults."""

    @pytest.mark.parametrize(
        "case",
        [
            ("ode_bounds", "BIHARI_TOL", 1e-9, "bihari_sequence", "tol"),
            ("ode_bounds", "OSGOOD_EPS", (1e-1, 1e-2, 1e-3, 1e-4), "osgood_diagnostic", "eps_seq"),
            ("transforms", "GAMMA_BAND_SAMPLES", 2001, "gamma_for_band", "samples"),
            ("generators", "WEIGHT_SAMPLES", 2049, "WeightFn.validate", "samples"),
        ],
        ids=lambda case: case[1],
    )
    def test_constant_replaces_option(self, case):
        module, constant, value, function, option = case
        mod = importlib.import_module(f"bsdelab.{module}")
        assert getattr(mod, constant) == value
        fn = functools.reduce(getattr, function.split("."), mod)
        assert option not in inspect.signature(fn).parameters
