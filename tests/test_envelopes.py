import tracemalloc
import warnings

import numpy as np
import pytest

from bsdelab import envelopes
from bsdelab.certificates import MixedSubLinear, OneSidedLinear
from bsdelab.envelopes import (
    EnvelopeError,
    EnvelopeGrid,
    LipschitzEnvelope,
    envelope_family_values,
    linearize_phi,
    sup_convolution_generator,
    sup_convolution_generator_alpha,
)
from bsdelab.generators import Generator, WeightFn
from tests.oracles import (
    _coordinate_max,
    envelope_family_reference,
    lipschitz_envelope_golden_reference,
    lipschitz_envelope_reference,
    separable_supconv_oracle,
    sqrt_envelope_closed_form,
    supconv_descent_reference,
    wedge_supconv_oracle,
)

ONE = WeightFn.parse("1")
ZERO = WeightFn.parse("0")

# frozen from a 4e6-node dense scan plus golden refinement (tests/oracles.py)
WEDGE_VALUE_AT_3 = -6.554377592712286


def growth(f, u, v):
    return OneSidedLinear(f, u, v, side="absolute")


class TestLinearizePhi:
    def test_linear_modulus_no_offset(self):
        value = linearize_phi("x", a=1.0, b=0.0, n=1, x=2.0)
        assert value == 6.0
        assert value >= 2.0

    def test_affine_modulus_offset(self):
        # c = 2, offset phi(2c/(n+2c)) = phi(4/5) = 9/5
        value = linearize_phi("x + 1", a=1.0, b=1.0, n=1, x=0.0)
        assert value == pytest.approx(9.0 / 5.0, abs=1e-12)
        assert value >= 1.0  # phi(0)

    def test_saturating_modulus(self):
        value = linearize_phi("min(1, x)", a=0.0, b=1.0, n=2, x=0.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            linearize_phi("x", 1.0, 0.0, 1, -0.5)

    def test_majorises_certified_moduli(self):
        # the inequality: zero violations over 1000 sampled (x, n) pairs
        rng = np.random.default_rng(42)
        moduli = [
            ("x", 1.0, 0.0),
            ("x + 1", 1.0, 1.0),
            ("min(1, x)", 0.0, 1.0),
            ("2 * x + 0.5", 2.0, 0.5),
            ("sqrt(x) * min(1, sqrt(x)) + x", 2.0, 1.0),
        ]
        from bsdelab.generators import _as_univariate

        for source, a, b in moduli:
            phi = _as_univariate(source)
            xs = rng.uniform(0.0, 50.0, size=200)
            ns = rng.integers(1, 64, size=200)
            for x, n in zip(xs, ns):
                assert linearize_phi(phi, a, b, int(n), float(x)) >= phi(float(x))


class TestLipschitzEnvelope:
    def test_already_lipschitz_is_identity(self):
        env = LipschitzEnvelope("x", slope=3.0, growth_k=1.0)
        xs = np.linspace(0.0, 20.0, 41)
        assert np.allclose(env.batch(xs), xs, rtol=0, atol=1e-12)

    def test_sqrt_below_knee(self):
        env = LipschitzEnvelope("sqrt(x)", slope=1.0, growth_k=0.5)
        assert env(0.0) == pytest.approx(0.25, abs=1e-9)

    def test_sqrt_above_knee(self):
        env = LipschitzEnvelope("sqrt(x)", slope=1.0, growth_k=0.5)
        assert env(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_closed_form_everywhere(self):
        env = LipschitzEnvelope("sqrt(x)", slope=1.0, growth_k=0.5)
        xs = np.concatenate([np.linspace(0, 0.25, 40), np.linspace(0.25, 9, 60)])
        got = env.batch(xs)
        want = sqrt_envelope_closed_form(xs, 1.0)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_dominates_pointwise(self):
        env = LipschitzEnvelope("sqrt(x)", slope=1.0, growth_k=0.5)
        xs = np.random.default_rng(0).uniform(0, 30, size=100)
        assert np.all(env.batch(xs) >= np.sqrt(xs))

    def test_lipschitz_across_adjacent_nodes(self):
        slope = 2.0
        env = LipschitzEnvelope("sqrt(x)", slope=slope, growth_k=0.5)
        xs = np.linspace(0.0, 5.0, 201)
        vals = env.batch(xs)
        dx = xs[1] - xs[0]
        assert np.max(np.abs(np.diff(vals))) <= slope * dx + 1e-9

    def test_slope_must_exceed_growth(self):
        with pytest.raises(EnvelopeError, match="must exceed"):
            LipschitzEnvelope("x", slope=1.0, growth_k=1.0)

    def test_negative_x_rejected(self):
        env = LipschitzEnvelope("x", slope=2.0, growth_k=1.0)
        with pytest.raises(EnvelopeError):
            env(-1.0)

    def test_batch_matches_scalar(self):
        env = LipschitzEnvelope("sqrt(x)", slope=1.0, growth_k=0.5)
        xs = np.random.default_rng(3).uniform(0, 4, size=17)
        batch = env.batch(xs)
        for k, x in enumerate(xs):
            assert batch[k] == pytest.approx(env(float(x)), abs=1e-12)


@pytest.mark.simd_exact
class TestLipschitzScan:
    """The two-sweep scan against the dense (points, nodes) reference."""

    WAVY = "2*sin(3*x) + 0.3*x"  # non-monotone, below 2 (1 + x)

    def assert_reference(self, psi, slope, growth_k, x, grid=None):
        grid = grid or EnvelopeGrid()
        got = LipschitzEnvelope(psi, slope, growth_k, grid).batch(x)
        want = lipschitz_envelope_reference(
            LipschitzEnvelope(psi, slope, growth_k).psi, slope, growth_k, x, grid.radius, grid.nodes)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def random_draws():
        """40 (points, slope) pairs for moduli below 2 (1 + x)."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            x = rng.uniform(0.0, rng.uniform(0.5, 40.0), size=int(rng.integers(1, 80)))
            yield x, 2.0 + rng.uniform(0.01, 6.0)

    def test_random_non_monotone_moduli(self):
        for x, slope in self.random_draws():
            self.assert_reference(self.WAVY, slope, 2.0, x)

    @pytest.mark.parametrize("psi", [WAVY, "sqrt(x)", "min(x, sqrt(x))", "x", "1"])
    def test_never_below_golden_section(self, psi):
        # the slope's sign finds every maximum that 64 golden-section steps find
        for x, slope in self.random_draws():
            got = LipschitzEnvelope(psi, slope, 2.0).batch(x)
            golden = lipschitz_envelope_golden_reference(
                LipschitzEnvelope(psi, slope, 2.0).psi, slope, 2.0, x)
            assert np.min(got - golden) >= -1e-12

    def test_origin_and_grid_nodes(self):
        slope, k = 3.5, 2.0
        radius = max(100.0, (k + slope * 7.0 + 1.0) / (slope - k), 8.0)
        nodes = np.linspace(0.0, radius, 2001)
        x = np.concatenate([[0.0], nodes[[1, 2, 17, 30, 140]], [7.0]])
        assert np.max(x) == 7.0  # so the grid above is the one batch builds
        self.assert_reference(self.WAVY, slope, k, x)
        self.assert_reference(self.WAVY, slope, k, np.zeros(3))

    def test_beyond_the_base_radius(self):
        grid = EnvelopeGrid(radius=5.0, nodes=201)
        self.assert_reference(self.WAVY, 2.5, 2.0, np.asarray([0.0, 4.0, 5.0, 60.0, 250.0]), grid)
        env = LipschitzEnvelope("sqrt(x)", 1.0, 0.5, grid)
        assert env(300.0) == pytest.approx(np.sqrt(300.0), abs=1e-12)

    def test_flat_modulus_ties_everywhere(self):
        x = np.asarray([0.0, 0.5, 1.0, 33.3, 99.0])
        self.assert_reference("1", 1.5, 1.0, x)
        assert np.all(LipschitzEnvelope("1", 1.5, 1.0).batch(x) == 1.0)

    def test_row_slopes_match_row_by_row_calls(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 12.0, size=(5, 23))
        x[2] *= 4.0  # rows with different search radii
        slopes = np.asarray([2.1, 2.5, 3.0, 5.0, 9.0])
        stacked = LipschitzEnvelope(self.WAVY, slopes, 2.0).batch(x)
        for row, slope, got in zip(x, slopes, stacked):
            assert got.tobytes() == LipschitzEnvelope(self.WAVY, slope, 2.0).batch(row).tobytes()

    def test_row_slopes_need_matching_rows(self):
        env = LipschitzEnvelope("x", [2.0, 3.0], 1.0)
        with pytest.raises(EnvelopeError, match="row slopes"):
            env.batch(np.ones(2))
        with pytest.raises(EnvelopeError, match="must exceed"):
            LipschitzEnvelope("x", [2.0, 1.0], 1.0)

    def test_bare_variable_modulus(self):
        # "x" hands its (probe) input back; "1*x" computes a new array
        x = np.random.default_rng(10).uniform(0.0, 9.0, size=(3, 31))
        for slope in (2.0, np.asarray([1.5, 2.0, 7.0])):
            values = [LipschitzEnvelope(psi, slope, 1.0).batch(x) for psi in ("x", "1*x")]
            assert values[0].tobytes() == values[1].tobytes()

    def test_no_points_by_nodes_array(self):
        # the dense scan would hold 2000 x 2001 doubles (32 MB)
        x = np.linspace(0.0, 10.0, 2000)
        env = LipschitzEnvelope(self.WAVY, 3.0, 2.0)
        tracemalloc.start()
        try:
            env.batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestSingularSlopes:
    """Slopes that are infinite or NaN at an end of a point's bracket."""

    @pytest.mark.parametrize("slope", [0.75, 1.0, 2.0, 5.0, 50.0, 1000.0])
    def test_sqrt_below_its_knee(self, slope):
        # the maximiser 1/(4K^2) is interior; from K = 2 on, the bracket of
        # x = 0 starts at the node 0, where psi' = +inf
        knee = 1.0 / (4.0 * slope * slope)
        x = np.append(np.linspace(0.0, knee, 64, endpoint=False), np.nextafter(knee, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = LipschitzEnvelope("sqrt(x)", slope, 0.5).batch(x)
        np.testing.assert_allclose(got, slope * x + 1.0 / (4.0 * slope), rtol=0, atol=1e-12)

    def test_nan_slope_at_zero(self):
        # psi' of min(x, sqrt(x)) is NaN at 0, so a bracket from 0 takes no step there
        psi = LipschitzEnvelope("min(x, sqrt(x))", 3.0, 2.0).psi
        d1 = psi.derivative("x")
        pre, _, d1_at = psi.split("x", d1)
        with np.errstate(all="ignore"):
            assert np.isnan(d1_at(np.zeros(1), *pre())).all()
        small = np.asarray([0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.01, 0.05])
        for x, slope in TestLipschitzScan.random_draws():
            x = np.concatenate([small, x])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = LipschitzEnvelope(psi, slope, 2.0).batch(x)
            assert np.all(got >= lipschitz_envelope_golden_reference(psi, slope, 2.0, x))

    @pytest.mark.xfail(strict=True, reason="psi' of min(x, sqrt(x)) is NaN at 0, so the "
                       "side of the bracket [0, hi] above x = 0 is not searched")
    def test_nan_slope_hides_a_corner_in_a_wide_cell(self):
        # K = 0.51 < psi' = 1 on [0, 1): the maximum for x = 0 is the corner
        # y = 1, inside the first two cells of a 333-node grid over [0, 405]
        env = LipschitzEnvelope("min(x, sqrt(x))", 0.51, 0.5, EnvelopeGrid(nodes=333))
        assert env.batch(np.asarray([0.0, 5.0]))[0] == pytest.approx(0.49, abs=1e-12)


class TestSupConvolution:
    def test_quadratic_outside_touch_region(self):
        g = Generator.parse("-y^2")
        env = sup_convolution_generator(g, 2, ONE, ONE, growth=growth("0", "1", "0"))
        assert env(0.0, 2.0, 0.0) == pytest.approx(-3.0, abs=1e-9)

    def test_quadratic_touches_where_locally_flat(self):
        g = Generator.parse("-y^2")
        env = sup_convolution_generator(g, 2, ONE, ONE, growth=growth("0", "1", "0"))
        assert env(0.0, 0.5, 0.0) == -0.25

    def test_dominated_slope_driver_is_fixed_point(self):
        g = Generator.parse("y")
        env = sup_convolution_generator(g, 2, ONE, ONE, growth=growth("0", "1", "0"))
        for y in np.linspace(-3, 3, 13):
            assert env(0.0, float(y), 0.0) == float(y)

    def test_missing_certificate_is_an_error(self):
        with pytest.raises(EnvelopeError, match="missing growth certificate"):
            sup_convolution_generator(Generator.parse("-y^2"), 2, ONE, ONE)

    def test_certificate_on_generator_is_picked_up(self):
        cert = OneSidedLinear("0", ONE, ZERO, side="absolute")
        g = Generator.parse("-y^2").with_certificate(cert)
        env = sup_convolution_generator(g, 2, ONE, ONE)
        assert env(0.0, 2.0, 0.0) == pytest.approx(-3.0, abs=1e-9)

    def test_sgn_side_certificate_rejected(self):
        cert = OneSidedLinear("0", ONE, ZERO, side="sgn")
        g = Generator.parse("-y^2").with_certificate(cert)
        with pytest.raises(EnvelopeError, match="absolute"):
            sup_convolution_generator(g, 2, ONE, ONE)

    def test_explicit_growth_is_checked_as_the_certificate_is(self):
        g = Generator.parse("-y^2")
        sgn = OneSidedLinear("0", ONE, ZERO, side="sgn")
        with pytest.raises(EnvelopeError, match="one_sided_linear certificate with side='absolute'"):
            sup_convolution_generator(g, 2, ONE, ONE, growth=sgn)
        with pytest.raises(EnvelopeError, match="mixed_sublinear certificate with side='absolute'"):
            sup_convolution_generator_alpha(g, 2, ONE, ONE, ONE, 0.5, growth=growth("0", "0", "0"))

    def test_insufficient_penalty_slope(self):
        g = Generator.parse("y")
        env = sup_convolution_generator(g, 1, ONE, ONE, growth=growth("0", "1", "0"))
        with pytest.raises(EnvelopeError, match="does not exceed"):
            env(0.0, 1.0, 0.0)

    def test_vanishing_weight_is_an_error(self):
        g = Generator.parse("y")
        env = sup_convolution_generator(g, 4, WeightFn.parse("t"), ONE, growth=growth("0", "1", "0"))
        with pytest.raises(EnvelopeError, match="t=0"):
            env(0.0, 1.0, 0.0)


def descent_reference(env, points):
    """values, u and v of the per-point descent at every row of ``points``."""
    out = [supconv_descent_reference(env, *p) for p in points]
    return [np.asarray(col) for col in ([v for v, _ in out], [a[0] for _, a in out],
                                        [a[1] for _, a in out])]


def same_bits(got, want):
    """Bitwise equality, so 0.0 and -0.0 differ."""
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.simd_exact
class TestBatchedDescent:
    """The batched descent against the per-point loop it replaced, bit for bit."""

    DRIVERS = ("-y^2 - z^4 / 4", "2*sin(3*y*z) - 0.1*y^2", "-y^3 + abs(z)^1.5*sin(y)")
    # signed zeros first: reports.csv would print a -0.0 location; y >= -1
    # keeps -y^3 under the growth bounds below
    POINTS = np.concatenate([
        [[0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]],
        np.random.default_rng(12).uniform([0.0, -1.0, -2.5], [1.0, 2.5, 2.5], size=(9, 3)),
    ])

    @staticmethod
    def envelope(source, penalty, u_w, n=3):
        g = Generator.parse(source)
        if penalty == "wedge":
            # alpha = 0.5 would hide a change of pow: |dz|^0.5 and r^2 are exact
            bound = MixedSubLinear("1", ONE, ONE, ONE, 0.37, side="absolute")
            return sup_convolution_generator_alpha(g, n, u_w, ONE, ONE, 0.37, growth=bound)
        return sup_convolution_generator(g, n, u_w, ONE, growth=growth("2", "1", "1"))

    @pytest.mark.parametrize("source", DRIVERS)
    @pytest.mark.parametrize("penalty", ["absolute", "wedge"])
    @pytest.mark.parametrize("u_w", ["1", "1 + t"])
    def test_matches_per_point_loop(self, source, penalty, u_w):
        env = self.envelope(source, penalty, WeightFn.parse(u_w))
        values, (u, v) = env.value_at(*self.POINTS.T)
        for got, want in zip((values, u, v), descent_reference(env, self.POINTS)):
            assert same_bits(got, want)

    def test_roots_on_the_wedges_power_arm(self):
        # at 9 of the points the z-maximum lies past the switch |dz| = 1, where
        # the wedge's slope and curvature are its power arm's; no line of
        # DRIVERS at these points has a root there
        env = self.envelope("-(z - 3)^2 - y^2", "wedge", WeightFn.parse("1 + t"))
        values, (u, v) = env.value_at(*self.POINTS.T)
        for got, want in zip((values, u, v), descent_reference(env, self.POINTS)):
            assert same_bits(got, want)
        assert np.sum(np.abs(v - self.POINTS[:, 2]) > 1.0) == 9

    @pytest.mark.parametrize("penalty", ["absolute", "wedge"])
    def test_family_matches_per_point_loop(self, penalty):
        envs = [self.envelope(self.DRIVERS[2], penalty, WeightFn.parse("1 + t"), n)
                for n in (2, 4, 8)]
        got = envelope_family_values(envs, self.POINTS[3:9])
        assert same_bits(got, envelope_family_reference(envs, self.POINTS[3:9]))

    def test_signed_zero_argmax_is_kept(self):
        # g = y is its own envelope: the descent never moves off (-0.0, -0.0)
        env = sup_convolution_generator(Generator.parse("y"), 2, ONE, ONE,
                                        growth=growth("0", "1", "0"))
        values, (u, v) = env.value_at(0.0, -0.0, -0.0)
        assert np.signbit([values[0], u[0], v[0]]).all()
        assert same_bits(values, descent_reference(env, [(0.0, -0.0, -0.0)])[0])

    def test_a_scalar_call_is_a_batch_of_one(self):
        env = self.envelope(self.DRIVERS[1], "absolute", ONE)
        t, y, z = self.POINTS[4]
        values, (u, v) = env.value_at(t, y, z)
        assert values.shape == u.shape == v.shape == (1,)
        want = descent_reference(env, [(t, y, z)])
        assert all(same_bits(got, w) for got, w in zip((values, u, v), want))
        assert isinstance(env(t, y, z), float) and same_bits(env(t, y, z), want[0])
        assert same_bits(env([t], y, z), want[0])

    def test_points_across_block_boundaries(self, monkeypatch):
        env = self.envelope(self.DRIVERS[2], "wedge", WeightFn.parse("1 + t"))
        whole, (u, v) = env.value_at(*self.POINTS.T)
        monkeypatch.setattr(envelopes, "_BLOCK", 5)  # blocks of 5, 5 and 2 points
        blocked, (bu, bv) = env.value_at(*self.POINTS.T)
        assert same_bits(blocked, whole) and same_bits(bu, u) and same_bits(bv, v)

    def test_a_flat_node_grid_leaves_the_other_points_alone(self):
        # at y = 1e17 the u-grid y +- 2/3 rounds to one value, a zero step;
        # np.linspace given all four rows at once would then build every
        # row's grid by its zero-step formula and move the other three values
        env = sup_convolution_generator(Generator.parse("cos(3*y) - abs(z)"), 3,
                                        WeightFn.parse("1 + t"), WeightFn.parse("1.7"),
                                        growth=growth("1", "0", "0"))
        pts = [(0.0, 1e17, 0.0), (0.25100799948196517, -0.06022269209084774, -1.73938321051957),
               (0.01719887012003518, 1.3934121653738845, -0.33314068469231595),
               (0.19576350958645783, -0.24507355406829134, 0.6464656838661114)]
        values, (u, v) = env.value_at(*np.asarray(pts).T)
        for got, want in zip((values, u, v), descent_reference(env, pts)):
            assert same_bits(got, want)

    def test_broadcasts_numbers_against_arrays(self):
        env = self.envelope(self.DRIVERS[0], "absolute", ONE)
        ys = self.POINTS[:, 1]
        full = np.ones_like(ys)
        assert same_bits(env(0.5, ys, 1.0), env(0.5 * full, ys, full))
        assert env.value_at([], [], [])[0].shape == (0,)
        with pytest.raises(EnvelopeError, match="1-d"):
            env.value_at(np.zeros((2, 2)), 0.0, 0.0)

    def test_error_names_the_first_failing_point(self):
        def env(u_w, v_w):
            return sup_convolution_generator(Generator.parse("y"), 2, WeightFn.parse(u_w),
                                             WeightFn.parse(v_w), growth=growth("0", "1", "0.5"))

        # n u_w(t) = 2 t exceeds the y-slope 1 only for t > 0.5
        with pytest.raises(EnvelopeError, match=r"y-slope 1 at t=0\.3;"):
            env("t", "1").value_at([0.9, 1.0, 0.3, 0.1], 0.0, 0.0)
        # the z-rule breaks at t = 0.2, a point before the y-rule breaks at t = 1.6
        with pytest.raises(EnvelopeError, match=r"z-slope 0\.5 at t=0\.2;"):
            env("2 - t", "t").value_at([0.9, 0.2, 1.6], 0.0, 0.0)
        # where both break at one point, the y-rule is named
        with pytest.raises(EnvelopeError, match=r"y-slope 1 at t=0\.1;"):
            env("t", "t").value_at([0.9, 0.1], 0.0, 0.0)

    @pytest.mark.parametrize("penalty, bound", [("absolute", "6"), ("wedge", "5.29235")])
    def test_driver_above_its_growth_bound_is_an_error(self, penalty, bound):
        # -y^3 = 27 at y = -3 exceeds 1 + |y| + |z| and 1 + |y| + min(|z|, |z|^0.37);
        # the negative box numerator used to give a finite, meaningless value
        g = Generator.parse("-y^3")
        if penalty == "wedge":
            bounds = MixedSubLinear("1", ONE, ONE, ONE, 0.37, side="absolute")
            env = sup_convolution_generator_alpha(g, 3, ONE, ONE, ONE, 0.37, growth=bounds)
        else:
            env = sup_convolution_generator(g, 2, ONE, ONE, growth=growth("1", "1", "1"))
        with pytest.raises(EnvelopeError, match=(
                rf"driver value 27 exceeds its certified growth bound {bound} "
                r"at \(t, y, z\) = \(0\.5, -3, 2\);")):
            env.value_at([0.0, 0.5, 0.2], [-1.0, -3.0, -4.0], 2.0)

    def test_memory_is_bounded_by_the_block(self):
        # a 64-point block peaks near 4.2 MB; all 256 points at once near 16.5 MB
        env = self.envelope(self.DRIVERS[0], "absolute", ONE)
        pts = np.random.default_rng(13).uniform(-2.0, 2.0, size=(256, 3))
        tracemalloc.start()
        try:
            env.value_at(*pts.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


@pytest.mark.simd_exact
class TestSlopeRuleLines:
    """Each line of the descent against 64 golden-section steps on it."""

    DRIVERS = TestBatchedDescent.DRIVERS + (
        "cos(3*y) - abs(z)", "-abs(z)^2", "sin(5*z) - 0.1*z^2")

    def test_no_line_maximum_below_golden_section(self, monkeypatch):
        lines = []

        def recorded(objective, slope, centre, half, nodes, params):
            arg = line_search(objective, slope, centre, half, nodes, params)
            lines.append((objective, centre, half, nodes, params, arg))
            return arg

        line_search = envelopes._line_search
        monkeypatch.setattr(envelopes, "_line_search", recorded)
        pts = np.random.default_rng(21).uniform([0.0, -1.0, -2.5], [1.0, 2.5, 2.5], size=(15, 3))
        for source in self.DRIVERS:
            for penalty in ("absolute", "wedge"):
                env = TestBatchedDescent.envelope(source, penalty, WeightFn.parse("1 + t"))
                env.value_at(*pts.T)
        # u- and v-lines alternate, one call per pass for all 15 points
        assert min(sum(line[1].size for line in lines[side::2]) for side in (0, 1)) >= 500
        for objective, centre, half, nodes, params, arg in lines:
            for i in range(centre.size):
                point = [np.broadcast_to(p, centre.shape)[i] for p in params]

                def f(q, point=point):
                    return objective(q, *point)

                got = float(f(np.asarray([arg[i]]))[0])
                golden = float(f(np.asarray([_coordinate_max(f, centre[i], half[i], nodes)]))[0])
                assert got >= golden - 4e-15 * max(1.0, abs(golden))


class TestLineSearchKink:
    """``_line_search`` on a line whose kink at the centre is no node."""

    CENTRE = np.array([0.3, -1.7, 2.0])
    HALF = np.array([0.5, 1.0, 0.25])

    @staticmethod
    def search(objective, slope):
        # four nodes sit at centre +- half and centre +- half/3, never at the centre
        return envelopes._line_search(objective, slope, TestLineSearchKink.CENTRE,
                                      TestLineSearchKink.HALF, 4, (TestLineSearchKink.CENTRE,))

    def test_a_peak_at_the_kink_is_taken(self):
        # -|q - a| rises to the kink from both sides, so its slope has no root
        arg = self.search(lambda q, a: -np.abs(q - a),
                          lambda q, side, a: (side * np.ones_like(q), np.zeros_like(q)))
        assert np.array_equal(arg, self.CENTRE)

    def test_a_trough_at_the_kink_is_not_taken(self):
        arg = self.search(lambda q, a: np.abs(q - a),
                          lambda q, side, a: (-side * np.ones_like(q), np.zeros_like(q)))
        assert np.all((arg == self.CENTRE - self.HALF) | (arg == self.CENTRE + self.HALF))

    def test_a_root_above_the_kink_beats_it(self):
        # -0.1|d| - (d - 0.2)^2 with d = q - a peaks at d = 0.15 (-0.0175), above
        # the kink's -0.04 and every node's value
        arg = self.search(lambda q, a: -0.1 * np.abs(q - a) - (q - a - 0.2) ** 2,
                          lambda q, side, a: (0.1 * side - 2.0 * (q - a - 0.2),
                                              np.full_like(q, -2.0)))
        np.testing.assert_allclose(arg - self.CENTRE, 0.15, rtol=1e-12)


class TestEnvelopeFamilyProperties:
    def setup_method(self):
        self.g = Generator.parse("-y^2 - z^4 / 4")
        self.growth = growth("0", "0", "0")
        self.points = [
            (float(t), float(y), float(z))
            for t, y, z in np.random.default_rng(11).uniform(-2.5, 2.5, size=(100, 3))
        ]

    def _envelopes(self, ns):
        return [
            sup_convolution_generator(self.g, n, ONE, ONE, growth=self.growth) for n in ns
        ]

    def test_domination_exact(self):
        env = self._envelopes([2])[0]
        t, y, z = np.asarray(self.points).T
        assert np.all(env(t, y, z) >= self.g(t, y, z))

    def test_monotone_in_n(self):
        ns = [2, 3, 4, 8]
        values = envelope_family_values(self._envelopes(ns), self.points[:40])
        assert np.all(values[1:] <= values[:-1] + 1e-12)

    def test_lipschitz_certificate_across_grid(self):
        n = 2
        env = self._envelopes([n])[0]
        ys = np.linspace(-2.0, 2.0, 81)
        vals = env(0.0, ys, 0.5)
        dy = ys[1] - ys[0]
        assert np.max(np.abs(np.diff(vals))) <= n * 1.0 * dy + 1e-9

    def test_convergence_to_driver(self):
        ns = [2, 4, 8, 16, 32]
        pts = self.points[:20]
        values = envelope_family_values(self._envelopes(ns), pts)
        g_vals = np.asarray([float(self.g(*p)) for p in pts])
        gaps = values - g_vals[None, :]
        assert np.all(gaps >= -1e-12)
        assert np.all(np.diff(gaps, axis=0) <= 1e-12)
        oracle_gap = np.asarray(
            [
                separable_supconv_oracle(
                    lambda u: -(u**2), lambda v: -(v**4) / 4.0, 32, 1.0, 1.0, p[1], p[2]
                )
                for p in pts
            ]
        ) - g_vals
        assert np.all(gaps[-1] <= 10.0 * np.maximum(oracle_gap, 1e-12))

    def test_matches_dense_scan_oracle(self):
        env = self._envelopes([2])[0]
        for (t, y, z), got in zip(self.points, env(*np.asarray(self.points).T)):
            want = separable_supconv_oracle(
                lambda u: -(u**2), lambda v: -(v**4) / 4.0, 2, 1.0, 1.0, y, z
            )
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestWedgeEnvelope:
    def wedge_growth(self):
        return MixedSubLinear("0", ZERO, ONE, ONE, 0.5, side="absolute")

    def zero_growth(self):
        return MixedSubLinear("0", ZERO, ZERO, ZERO, 0.5, side="absolute")

    def test_zero_driver_fixed_point(self):
        g = Generator.parse("0")
        for n in (1, 2, 4):
            env = sup_convolution_generator_alpha(
                g, n, ONE, ONE, ONE, 0.5, growth=self.zero_growth()
            )
            for z in (-2.0, 0.0, 3.0):
                assert env(0.1, 0.5, z) == 0.0

    def test_wedge_penalty_arms(self):
        # at |dz| = 1 both arms agree and the penalty is exactly n
        g = Generator.parse("0")
        env = sup_convolution_generator_alpha(
            g, 3, ONE, ONE, ONE, 0.5, growth=self.wedge_growth()
        )
        assert float(env._penalty(env._penalty_weights(0.0), 0.0, np.asarray(1.0))) == 3.0

    def test_quadratic_z_driver_frozen_oracle(self):
        g = Generator.parse("-abs(z)^2")
        env = sup_convolution_generator_alpha(
            g, 4, ONE, ONE, ONE, 0.5, growth=self.wedge_growth()
        )
        assert env(0.0, 0.0, 3.0) == pytest.approx(WEDGE_VALUE_AT_3, abs=1e-8)

    def test_matches_live_oracle(self):
        g = Generator.parse("-abs(z)^2")
        env = sup_convolution_generator_alpha(
            g, 4, ONE, ONE, ONE, 0.5, growth=self.wedge_growth()
        )
        for z in (-2.0, 0.4, 1.7, 3.0):
            want = wedge_supconv_oracle(lambda v: -(v**2), 4, 1.0, 1.0, 0.5, z)
            assert env(0.0, 0.0, float(z)) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_non_increasing_in_n(self):
        g = Generator.parse("-abs(z)^2")
        envs = [
            sup_convolution_generator_alpha(g, n, ONE, ONE, ONE, 0.5, growth=self.wedge_growth())
            for n in (2, 4, 8, 16)
        ]
        pts = [(0.0, 0.0, float(z)) for z in np.linspace(-3, 3, 11)]
        values = envelope_family_values(envs, pts)
        assert np.all(values[1:] <= values[:-1] + 1e-12)

    def test_alpha_domain(self):
        g = Generator.parse("0")
        with pytest.raises(EnvelopeError, match="alpha"):
            sup_convolution_generator_alpha(g, 2, ONE, ONE, ONE, 1.5, growth=self.wedge_growth())

    def test_mixed_certificate_is_picked_up(self):
        cert = MixedSubLinear("0", ZERO, ONE, WeightFn.parse("1", "Lq", 0.5), 0.5, side="absolute")
        g = Generator.parse("-abs(z)^2").with_certificate(cert)
        env = sup_convolution_generator_alpha(g, 4, ONE, ONE, ONE, 0.5)
        assert env(0.0, 0.0, 3.0) == pytest.approx(WEDGE_VALUE_AT_3, abs=1e-8)


class TestEnvelopeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeGrid(nodes=4)
        with pytest.raises(ValueError):
            EnvelopeGrid(radius=-1.0)
        with pytest.raises(ValueError):
            EnvelopeGrid(nodes=1)
        with pytest.raises(ValueError, match="passes must be >= 1"):
            EnvelopeGrid(passes=0)
