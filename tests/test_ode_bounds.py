import functools
import importlib
import inspect
import math

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
from tests.oracles import (
    growth_ode_reference,
    limit_estimate_reference,
    lipschitz_envelope_reference,
)

ONE = WeightFn.parse("1")
TWO_E_MINUS_1 = 2.0 * math.e - 1.0


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(2.0, 4)
        assert grid.horizon == 2.0
        assert grid.steps == 4
        assert grid.dt == 0.5

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeGrid(np.asarray([0.1, 1.0]))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.asarray([0.0, 0.5, 0.5, 1.0]))

    def test_finite_horizon(self):
        with pytest.raises(ValueError):
            TimeGrid(np.asarray([0.0, math.inf]))

    def test_refined_keeps_nodes(self):
        grid = TimeGrid.uniform(1.0, 4)
        fine = grid.refined()
        assert fine.steps == 8
        assert np.allclose(fine.nodes[::2], grid.nodes)


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
        # the exact pole sits at T - pi/4
        assert 0.0 < err.value.time_reached < math.pi
        assert err.value.time_reached == pytest.approx(math.pi - math.pi / 4.0, abs=0.2)

    def test_terminal_sign_preconditions(self):
        grid = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError):
            solve_growth_ode("lower", 0.5, ONE, "1", grid)
        with pytest.raises(ValueError):
            solve_growth_ode("upper", -0.5, ONE, "1", grid)

    def test_non_positive_growth_function(self):
        grid = TimeGrid.uniform(1.0, 8)
        with pytest.raises(NonPositiveError):
            solve_growth_ode("upper", 1.0, ONE, "1 - x", grid)


def outcome(fn):
    """The node values as bytes, or the raised error's type, message, side
    and time reached."""
    try:
        return fn().tobytes()
    except (BlowUpError, NonPositiveError, EvalDomainError) as exc:
        return type(exc), str(exc), getattr(exc, "side", None), getattr(exc, "time_reached", None)


NON_UNIFORM = TimeGrid(np.asarray([0.0, 0.05, 0.3, 0.31, 0.7, 1.0]))


class TestTabulatedSweep:
    """The sweep tabulates u at its stage times; values and errors must be
    those of the scalar sweep in ``tests/oracles.py``, bit for bit."""

    @pytest.mark.parametrize("u", ["1", "2*t + sin(t)", "exp(-t)"])
    @pytest.mark.parametrize("l", ["1 + abs(x)", "1 + x^2/10 + exp(-x^2)"])
    @pytest.mark.parametrize("grid", [TimeGrid.uniform(1.0, 1), TimeGrid.uniform(1.0, 7),
                                      TimeGrid.uniform(1.0, 64), NON_UNIFORM],
                             ids=["n1", "n7", "n64", "non-uniform"])
    def test_matches_scalar_sweep(self, u, l, grid):
        w = WeightFn.parse(u)
        env = sandwich_envelope(0.7, w, l, grid)
        assert env.upper.tobytes() == growth_ode_reference("upper", 0.7, w, l, grid).tobytes()
        assert env.lower.tobytes() == growth_ode_reference("lower", -0.7, w, l, grid).tobytes()

    def test_stage_blocks(self, monkeypatch):
        # a sweep longer than one block tabulates u one block of intervals at a time
        monkeypatch.setattr(ode_bounds, "_STAGE_BLOCK", 5)
        w = WeightFn.parse("2*t + sin(t)")
        got = solve_growth_ode("upper", 0.7, w, "1 + abs(x)", TimeGrid.uniform(1.0, 7))
        want = growth_ode_reference("upper", 0.7, w, "1 + abs(x)", TimeGrid.uniform(1.0, 7))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("u, l, xi, grid, error", [
        # u(0) is outside the domain, but the curve blows up at t = 1.374 first
        ("1/t", "1 + x^2", 1.0, TimeGrid.uniform(math.pi, 64), BlowUpError),
        # the sweep reaches u(0) and stops there
        ("1/t", "1 + abs(x)", 1.0, TimeGrid.uniform(1.0, 8), EvalDomainError),
        # l turns non-positive at k2 of the first step, before the k4 stage at t = 0.5
        ("4/(t - 0.5)", "1.54 - abs(x)", 1.5, TimeGrid.uniform(1.0, 2), NonPositiveError),
        ("1", "1 - abs(x)", 1.0, TimeGrid.uniform(1.0, 8), NonPositiveError),
    ], ids=["blow-up-before-u-fails", "u-fails", "l-fails-before-u", "l-fails"])
    @pytest.mark.parametrize("block", [ode_bounds._STAGE_BLOCK, 5], ids=["one-block", "blocks"])
    def test_errors_surface_in_sweep_order(self, monkeypatch, u, l, xi, grid, error, block):
        monkeypatch.setattr(ode_bounds, "_STAGE_BLOCK", block)
        w = WeightFn.parse(u)
        for side, terminal in (("upper", xi), ("lower", -xi)):
            got = outcome(lambda: solve_growth_ode(side, terminal, w, l, grid))
            assert got == outcome(lambda: growth_ode_reference(side, terminal, w, l, grid))
            assert got[0] is error
        with pytest.raises(error) as err:
            sandwich_envelope(xi, w, l, grid)
        if error is BlowUpError:
            assert err.value.side == "upper"
            assert err.value.time_reached == pytest.approx(1.374, abs=1e-3)


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
        assert diag.outer[10.0] == pytest.approx(math.log(11.0 / 2.0), rel=1e-6)
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
            ("ode_bounds", "LOG_QUADRATURE_NODES", 4001, "_log_quadrature", "nodes"),
            ("envelopes", "GOLDEN_ITERS", 64, "_golden_argmax", "iters"),
            ("transforms", "GAMMA_BAND_SAMPLES", 2001, "gamma_for_band", "samples"),
            ("generators", "WEIGHT_SAMPLES", 2049, "WeightFn.validate", "samples"),
            ("norms", "SAMPLE_PATHS", 32768, "estimate_norms", "sample_paths"),
        ],
        ids=lambda case: case[1],
    )
    def test_constant_replaces_option(self, case):
        module, constant, value, function, option = case
        mod = importlib.import_module(f"bsdelab.{module}")
        assert getattr(mod, constant) == value
        fn = functools.reduce(getattr, function.split("."), mod)
        assert option not in inspect.signature(fn).parameters
