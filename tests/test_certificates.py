import inspect
import math

import numpy as np
import pytest

from bsdelab.certificates import (
    SIDES,
    CertificateError,
    ContinuityZ,
    ConvexityZ,
    LocalLipschitzZ,
    MixedSubLinear,
    OneSidedLinear,
    OneSidedOsgoodY,
    OneSidedSuperLinear,
    QuadGrowth,
    SampleGrid,
    SubLinearDiffZ,
    certificate_from_dict,
    check_certificate,
    check_witnesses,
)
from bsdelab.expressions import EvalDomainError
from bsdelab.generators import Generator, WeightFn
from bsdelab.report import at_samples, worst_gap
from tests.oracles import dual_generator

ONE = WeightFn.parse("1")
GRID_50 = SampleGrid(t_count=50, y_count=50, z_count=50, cap=10_000_000)
SMALL = SampleGrid(t_count=7, y_count=25, z_count=25)


class TestSampleGrid:
    def test_cap_thins_uniformly(self):
        grid = SampleGrid(t_count=21, y_count=51, z_count=51, cap=1000)
        t, y1, y2, z = grid.product(grid.t_axis(), grid.y_axis(), grid.y_axis(), grid.z_axis())
        assert len(t) <= 1000
        assert len(t) == len(y1) == len(y2) == len(z)
        # endpoints survive thinning at the front
        assert t[0] == 0.0 and y1[0] == -5.0

    def test_full_product_when_under_cap(self):
        grid = SampleGrid(t_count=3, y_count=4, z_count=5)
        t, y, z = grid.product(grid.t_axis(), grid.y_axis(), grid.z_axis())
        assert len(t) == 3 * 4 * 5

    def test_thinning_keeps_every_last_axis_value(self):
        # 21 * 51^3 points over a cap of 10^6: a stride of 3 would divide 51
        # and keep only 17 of the 51 z values
        grid = SampleGrid()
        t, y1, y2, z = grid.product(grid.t_axis(), grid.y_axis(), grid.y_axis(), grid.z_axis())
        assert len(t) <= grid.cap
        assert np.array_equal(np.unique(z), grid.z_axis())


class TestOsgoodCertificate:
    def test_identity_driver_equality_case(self):
        cert = OneSidedOsgoodY(ONE, "x", 1.0)
        report = check_certificate(Generator.parse("y"), cert, SMALL)
        assert report.passed
        assert report.violation == 0.0

    def test_square_driver_fails_on_positive_range(self):
        cert = OneSidedOsgoodY(ONE, "x", 1.0)
        grid = SampleGrid(t_count=3, y_range=(0.0, 10.0), y_count=51, z_count=3)
        report = check_certificate(Generator.parse("y^2"), cert, grid)
        assert not report.passed
        assert report.violation > 0
        # the quoted witness pair indeed violates: 19 > 1
        g = Generator.parse("y^2")
        lhs = (g(0.0, 10.0, 0.0) - g(0.0, 9.0, 0.0)) * np.sign(10.0 - 9.0)
        assert lhs == 19.0 > 1.0

    def test_thinned_grid_sees_narrow_z_bump(self):
        # negative control: the driver breaks the bound only near z = -4.8,
        # where the gap is |y1 - y2| (5 - 2), so 30 at |y1 - y2| = 10
        g = Generator.parse("-y + 5*y*max(0, 1 - 20*abs(z + 4.8))")
        report = check_certificate(g, OneSidedOsgoodY(ONE, "x", 1.0))
        assert not report.passed
        assert report.violation == pytest.approx(30.0)
        assert report.location["z"] == pytest.approx(-4.8)

    def test_witness_shape_checks(self):
        good = OneSidedOsgoodY(ONE, "x", 1.0)
        assert check_witnesses(good).passed
        decreasing = OneSidedOsgoodY(ONE, "1 - x", 1.0)
        assert not check_witnesses(decreasing).passed


class TestNamedDriversFirstBlock:
    """Bounded-terminal block: one-sided super-linear y growth, quadratic z."""

    def test_exponential_quadratic_driver(self):
        g = Generator.parse("abs(z)^2 * exp(y) + y * cos(y)")
        cert = OneSidedSuperLinear(ONE, "1 + abs(y)", "exp(y)")
        assert check_certificate(g, cert, GRID_50).passed

    def test_cubic_driver(self):
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        cert = OneSidedSuperLinear(ONE, "1 + abs(y)", "1")
        assert check_certificate(g, cert, GRID_50).passed

    def test_l_must_be_strictly_positive(self):
        cert = OneSidedSuperLinear(ONE, "abs(y)", "1")
        assert not check_witnesses(cert).passed


class TestNamedDriversSecondBlock:
    """Integrable-terminal block: one-sided linear growth in (y, z)."""

    def test_saturating_quadratic_driver(self):
        g = Generator.parse("abs(z)^2 * (1 - exp(y)) + abs(z) * sin(abs(z))")
        cert = OneSidedLinear("1", ONE, ONE)
        assert check_certificate(g, cert, GRID_50).passed

    def test_quintic_driver(self):
        g = Generator.parse("-y^5 + cos(y * abs(z))")
        cert = OneSidedLinear("1", ONE, ONE)
        assert check_certificate(g, cert, GRID_50).passed


class TestNamedDriversThirdBlock:
    """L1-terminal block: one-sided growth with the wedge modulus in z."""

    def test_cube_root_driver(self):
        g = Generator.parse("-abs(z)^2 * y^3 + abs(z)^(1/3)")
        cert = MixedSubLinear("1", ONE, ONE, WeightFn.parse("1", "Lq", 1 / 3), 1 / 3)
        assert check_certificate(g, cert, GRID_50).passed

    def test_square_root_driver(self):
        g = Generator.parse("exp(-y) * sqrt(abs(z)) + sqrt(1 + abs(y) + abs(z))")
        cert = MixedSubLinear(
            "4", ONE, WeightFn.parse("2", "L2"), WeightFn.parse("2", "Lq", 0.5), 0.5
        )
        assert check_certificate(g, cert, GRID_50).passed


class TestContinuityZ:
    def test_absolute_value_driver(self):
        g = Generator.parse("abs(z)")
        cert = ContinuityZ(WeightFn.parse("1", "L2"), "x", a=1.0, b=0.0)
        assert check_certificate(g, cert, SMALL).passed

    def test_quadratic_driver_fails_linear_modulus(self):
        g = Generator.parse("z^2")
        cert = ContinuityZ(WeightFn.parse("1", "L2"), "x", a=1.0, b=0.0)
        report = check_certificate(g, cert, SMALL)
        assert not report.passed

    def test_phi_envelope_witness(self):
        cert = ContinuityZ(WeightFn.parse("1", "L2"), "x^2", a=1.0, b=0.0)
        assert not check_witnesses(cert).passed  # x^2 > x for x > 1


class TestSideRestrictedFamilies:
    def test_upper_on_nonpos_ignores_positive_y(self):
        # driver misbehaves only for y > 0, which this side must not see
        g = Generator.parse("exp(y) * abs(z)^2 - 10")
        cert = OneSidedLinear("0", ONE, ONE, side="upper_on_nonpos")
        grid = SampleGrid(t_count=5, y_range=(-5, 5), y_count=21, z_range=(-1, 1), z_count=21)
        assert check_certificate(g, cert, grid).passed

    def test_absolute_side_catches_it(self):
        g = Generator.parse("exp(y) * abs(z)^2 - 10")
        cert = OneSidedLinear("0", ONE, ONE, side="absolute")
        grid = SampleGrid(t_count=5, y_range=(-5, 5), y_count=21, z_range=(-1, 1), z_count=21)
        assert not check_certificate(g, cert, grid).passed

    def test_lower_on_nonneg_ignores_negative_y(self):
        # the dual -g(t, -y, -z) misbehaves only for y < 0, which this side must not see
        g = dual_generator(Generator.parse("exp(y) * abs(z)^2 - 10"))
        cert = OneSidedLinear("0", ONE, ONE, side="lower_on_nonneg")
        grid = SampleGrid(t_count=5, y_range=(-5, 5), y_count=21, z_range=(-1, 1), z_count=21)
        assert check_certificate(g, cert, grid).passed
        assert not check_certificate(g, OneSidedLinear("0", ONE, ONE, side="absolute"),
                                     grid).passed

    def test_lower_on_nonneg_catches_a_driver_below_it(self):
        # -g = 10 - exp(y)|z|^2 exceeds |y| + |z| at y = 0, z = 0
        g = Generator.parse("exp(y) * abs(z)^2 - 10")
        cert = OneSidedLinear("0", ONE, ONE, side="lower_on_nonneg")
        grid = SampleGrid(t_count=5, y_range=(-5, 5), y_count=21, z_range=(-1, 1), z_count=21)
        report = check_certificate(g, cert, grid)
        assert not report.passed and report.location["y"] >= 0.0

    def test_bad_side_rejected(self):
        with pytest.raises(CertificateError):
            OneSidedLinear("0", ONE, ONE, side="sideways")


class TestSubLinearDiffZ:
    def test_exact_power_modulus(self):
        from bsdelab.certificates import SubLinearDiffZ

        # y-free driver: the difference evaluates to exactly |z|^0.5
        g = Generator.parse("abs(z)^0.5")
        cert = SubLinearDiffZ(WeightFn.parse("1", "Lq", 0.5), 0.5)
        report = check_certificate(g, cert, SMALL)
        assert report.passed
        assert report.violation == 0.0

    def test_modulus_with_margin_and_y_term(self):
        from bsdelab.certificates import SubLinearDiffZ

        g = Generator.parse("abs(z)^0.5 / 2 - y")
        cert = SubLinearDiffZ(WeightFn.parse("1", "Lq", 0.5), 0.5)
        assert check_certificate(g, cert, SMALL).passed

    def test_linear_difference_fails(self):
        from bsdelab.certificates import SubLinearDiffZ

        g = Generator.parse("z")
        cert = SubLinearDiffZ(WeightFn.parse("1", "Lq", 0.5), 0.5)
        assert not check_certificate(g, cert, SMALL).passed

    def test_shifted_modulus_with_offset_process(self):
        from bsdelab.certificates import SubLinearDiffZ

        g = Generator.parse("abs(z)^0.5 + y")
        cert = SubLinearDiffZ(WeightFn.parse("1", "Lq", 0.5), 0.5, f="1")
        # (1 + |y| + |z|)^0.5 >= |z|^0.5
        assert check_certificate(g, cert, SMALL).passed

    def test_offset_witness_must_be_nonnegative(self):
        lam = WeightFn.parse("1", "Lq", 0.5)
        assert check_witnesses(SubLinearDiffZ(lam, 0.5, f="1 + t")).passed
        report = check_witnesses(SubLinearDiffZ(lam, 0.5, f="t - 0.5"))
        assert not report.passed and report.violation == 0.5
        assert report.location == {"constraint": "f >= 0"}

    def test_alpha_range(self):
        from bsdelab.certificates import SubLinearDiffZ

        with pytest.raises(CertificateError):
            SubLinearDiffZ(WeightFn.parse("1", "Lq", 0.5), 1.0)


class TestOtherFamilies:
    def test_quad_growth_witnesses_must_be_nonnegative(self):
        assert check_witnesses(QuadGrowth(ONE, "1 + y^2", "abs(y)")).passed
        phi = check_witnesses(QuadGrowth(ONE, "y", "1"))  # -5 at the grid's y = -5
        assert not phi.passed and phi.violation == 5.0
        assert phi.location == {"constraint": "phi_bar nonnegative"}
        h = check_witnesses(QuadGrowth(ONE, "1", "y - 1"))
        assert not h.passed and h.location == {"constraint": "h_bar nonnegative"}

    def test_local_lipschitz_quadratic(self):
        g = Generator.parse("z^2")
        cert = LocalLipschitzZ(WeightFn.parse("1", "L2"))
        assert check_certificate(g, cert, SMALL).passed

    def test_convexity(self):
        assert check_certificate(Generator.parse("z^2"), ConvexityZ(convex=True), SMALL).passed
        assert not check_certificate(
            Generator.parse("-z^2"), ConvexityZ(convex=True), SMALL
        ).passed
        assert check_certificate(
            Generator.parse("-z^2"), ConvexityZ(convex=False), SMALL
        ).passed


L2 = WeightFn.parse("1 + t", "L2")


class TestStringWeights:
    """Weights given as expressions are coerced at construction, tagged as from a dict."""

    @pytest.mark.parametrize(
        "cls, strings, weights",
        [
            (OneSidedOsgoodY, ("1 + t", "x"), (WeightFn.parse("1 + t"), "x")),
            (ContinuityZ, ("1 + t", "x", 1, 0), (L2, "x", 1.0, 0.0)),
            (SubLinearDiffZ, ("1 + t", 0.5), (WeightFn.parse("1 + t", "Lq", 0.5), 0.5)),
            (OneSidedSuperLinear, ("1 + t", "1 + abs(y)", "1"),
             (WeightFn.parse("1 + t"), "1 + abs(y)", "1")),
            (QuadGrowth, ("1 + t", "1 + y^2", "1"), (WeightFn.parse("1 + t"), "1 + y^2", "1")),
            (LocalLipschitzZ, ("1 + t",), (L2,)),
            (OneSidedLinear, ("0", "1 + t", "1 + t", "absolute"),
             ("0", WeightFn.parse("1 + t"), L2, "absolute")),
            (MixedSubLinear, ("1", "1 + t", "1 + t", "1 + t", 0.25),
             ("1", WeightFn.parse("1 + t"), L2, WeightFn.parse("1 + t", "Lq", 0.25), 0.25)),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_same_report_as_weight_functions(self, cls, strings, weights):
        g = Generator.parse("-y + sin(z) * t")
        from_strings, from_weights = cls(*strings), cls(*weights)
        assert from_strings == from_weights
        assert check_certificate(g, from_strings, SMALL) == check_certificate(g, from_weights, SMALL)

    def test_flag_must_be_a_boolean(self):
        with pytest.raises(TypeError, match="'convex' must be true or false"):
            ConvexityZ(convex="false")


class TestFromDict:
    def test_round_trip(self):
        cert = certificate_from_dict(
            {"kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"}
        )
        assert isinstance(cert, OneSidedSuperLinear)
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        assert check_certificate(g, cert, SMALL).passed

    def test_missing_witness(self):
        with pytest.raises(CertificateError, match="lacks witness"):
            certificate_from_dict({"kind": "one_sided_super_linear", "u": "1"})

    def test_unknown_kind(self):
        with pytest.raises(CertificateError, match="unknown certificate kind"):
            certificate_from_dict({"kind": "wishful"})

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (
                {"kind": "one_sided_osgood_y", "u": "1", "rho": "x"},
                OneSidedOsgoodY(WeightFn.parse("1", "L1"), "x", 1.0),
            ),
            (
                {"kind": "continuity_z", "v": "1", "phi": "x", "a": 1, "b": 0},
                ContinuityZ(WeightFn.parse("1", "L2"), "x", 1.0, 0.0),
            ),
            (
                {"kind": "sublinear_diff_z", "lambda": "2", "alpha": 0.5, "f": "1"},
                SubLinearDiffZ(WeightFn.parse("2", "Lq", 0.5), 0.5, "1"),
            ),
            (
                {"kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"},
                OneSidedSuperLinear(WeightFn.parse("1", "L1"), "1 + abs(y)", "1"),
            ),
            (
                {"kind": "quad_growth", "u_bar": "1", "phi_bar": "1 + y^2", "h_bar": "1"},
                QuadGrowth(WeightFn.parse("1", "L1"), "1 + y^2", "1"),
            ),
            (
                {"kind": "local_lipschitz_z", "v": {"expr": "1 + t", "tag": "L1&L2"}},
                LocalLipschitzZ(WeightFn.parse("1 + t", "L1&L2")),
            ),
            ({"kind": "convexity_z", "convex": False}, ConvexityZ(False)),
            (
                {"kind": "one_sided_linear", "f": "1", "u": "1", "v": "1", "side": "absolute"},
                OneSidedLinear(
                    "1", WeightFn.parse("1", "L1"), WeightFn.parse("1", "L2"), "absolute"
                ),
            ),
            (
                {"kind": "mixed_sublinear", "f": "1", "u": "1", "v": "1", "lambda": "1",
                 "alpha": 0.25},
                MixedSubLinear(
                    "1",
                    WeightFn.parse("1", "L1"),
                    WeightFn.parse("1", "L2"),
                    WeightFn.parse("1", "Lq", 0.25),
                    0.25,
                    "sgn",
                ),
            ),
        ],
        ids=lambda v: v["kind"] if isinstance(v, dict) else type(v).__name__,
    )
    def test_every_kind_from_dict(self, raw, expected):
        assert certificate_from_dict(raw) == expected

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"kind": "one_sided_osgood_y", "rho": "x"}, "u"),
            # the missing b is reported before the bad a is converted
            ({"kind": "continuity_z", "v": "1", "phi": "x", "a": "abc"}, "b"),
            ({"kind": "sublinear_diff_z", "alpha": 0.5}, "lambda"),
            ({"kind": "one_sided_super_linear", "u": "1", "h": "1"}, "l"),
            ({"kind": "quad_growth", "u_bar": "1", "phi_bar": "1"}, "h_bar"),
            ({"kind": "local_lipschitz_z"}, "v"),
            ({"kind": "one_sided_linear", "u": "1", "v": "1"}, "f"),
            ({"kind": "mixed_sublinear", "f": "1", "u": "1", "v": "1", "lambda": "1"}, "alpha"),
        ],
        ids=lambda v: v["kind"] if isinstance(v, dict) else v,
    )
    def test_missing_witness_per_kind(self, raw, key):
        with pytest.raises(CertificateError, match=f"lacks witness '{key}'"):
            certificate_from_dict(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "continuity_z", "v": "1", "phi": "x", "a": "abc", "b": 0},
            {"kind": "local_lipschitz_z", "v": {"expr": "1", "tag": "L7"}},
        ],
    )
    def test_bad_value_is_a_certificate_error(self, raw):
        with pytest.raises(CertificateError, match=raw["kind"]):
            certificate_from_dict(raw)

    def test_unknown_key_is_named(self):
        raw = {"kind": "one_sided_linear", "f": "0", "u": "1", "v": "1", "sdie": "absolute"}
        with pytest.raises(CertificateError, match="unknown key 'sdie'"):
            certificate_from_dict(raw)

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_flag_must_be_a_boolean(self, flag):
        with pytest.raises(CertificateError, match="'convex' must be true or false"):
            certificate_from_dict({"kind": "convexity_z", "convex": flag})

    def test_wedge_from_dict(self):
        cert = certificate_from_dict(
            {"kind": "mixed_sublinear", "f": "1", "u": "1", "v": "1", "lambda": "1", "alpha": 0.5}
        )
        assert isinstance(cert, MixedSubLinear)
        assert cert.lam.alpha == 0.5


MESH = SampleGrid(t_count=5, y_count=7, z_count=9)
MESH_CERTS = [
    OneSidedOsgoodY(WeightFn.parse("1 + t"), "sqrt(x)", 1.0),
    ContinuityZ(WeightFn.parse("exp(t)", "L2"), "x^1.5", 1.0, 0.0),
    SubLinearDiffZ(WeightFn.parse("1 + t", "Lq", 0.5), 0.5, "1 + sin(t)"),
    SubLinearDiffZ(WeightFn.parse("2", "Lq", 0.3), 0.3),
    OneSidedSuperLinear(WeightFn.parse("1 + t"), "1 + abs(y)", "exp(y/5)"),
    QuadGrowth(ONE, "1 + y^2", "cos(y)"),
    LocalLipschitzZ(L2),
    ConvexityZ(True),
    ConvexityZ(False),
    *(OneSidedLinear("1 + t", ONE, L2, side) for side in SIDES),
    MixedSubLinear("exp(-t)", ONE, L2, WeightFn.parse("1 + t", "Lq", 0.25), 0.25,
                   "upper_on_nonpos"),
]


def _axes(cert, grid):
    names = tuple(inspect.signature(cert.gap).parameters)[1:]
    return names, [getattr(grid, f"{name[0]}_axis")() for name in names]


def _flat_reference(g, cert, grid):
    """The gap on the flat product and its worst sample, as every check took them
    before checks evaluated the open mesh."""
    names, axes = _axes(cert, grid)
    coords = grid.product(*axes)
    gap = cert.gap(g, *coords)
    return gap, worst_gap([(gap, at_samples(**dict(zip(names, coords))))])


@pytest.mark.simd_exact
class TestOpenMesh:
    """A grid under its cap is evaluated on the open mesh of its axes, with the
    flat product's bits, worst sample and errors."""

    @pytest.mark.parametrize("source", [
        "-y^3 + abs(z)^1.5 * sin(y)",
        "cos(z) * exp(-t) + ln(1 + y^2) - sqrt(abs(y)) * abs(z)^0.7",
        "exp(y / 5) * z^2 / (1 + t) + sqrt(1 + z^2)^1.5",
        "sin(3*t*y) + cos(y - z)",
    ])
    @pytest.mark.parametrize("cert", MESH_CERTS, ids=lambda c: type(c).__name__)
    def test_mesh_keeps_the_flat_products_bits(self, cert, source):
        g = Generator.parse(source)
        names, axes = _axes(cert, MESH)
        mesh_gap = cert.gap(g, *np.ix_(*axes))
        flat_gap, (worst, where) = _flat_reference(g, cert, MESH)
        assert mesh_gap.shape == tuple(map(len, axes))
        assert mesh_gap.tobytes() == flat_gap.tobytes()
        report = check_certificate(g, cert, MESH)
        assert np.float64(report.violation).tobytes() == np.float64(worst).tobytes()
        assert report.location == where

    def test_nan_gap_reports_its_first_nan(self):
        # u_bar phi_bar overflows to inf where t >= 0.25 and y > 0.72, h_bar z^2 to -inf
        # where |z| > 1.35: their sum is NaN there, past the earlier gaps of +inf
        cert = QuadGrowth(WeightFn.parse("10*t"), "1e308 * clamp(y, 0, 1)", "-1e308")
        g = Generator.parse("sin(y) + z")
        report = check_certificate(g, cert, MESH)
        with np.errstate(over="ignore", invalid="ignore"):
            _, (worst, where) = _flat_reference(g, cert, MESH)
        assert math.isnan(report.violation) and math.isnan(worst)
        assert report.location == where == {"t": 0.25, "y": float(MESH.y_axis()[4]), "z": -5.0}

    @pytest.mark.parametrize("source", [
        "ln(y) + z", "z / (y - t)", "sqrt(t - 0.5) + ln(y)", "abs(z)^1.5 * (y*z)^0.5",
    ])
    @pytest.mark.parametrize("cert", MESH_CERTS[:3], ids=lambda c: type(c).__name__)
    def test_driver_off_its_domain_raises_the_flat_products_error(self, cert, source):
        g = Generator.parse(source)
        with pytest.raises(EvalDomainError) as flat:
            _flat_reference(g, cert, MESH)
        with pytest.raises(EvalDomainError) as mesh:
            check_certificate(g, cert, MESH)
        assert str(mesh.value) == str(flat.value)
        assert mesh.value.args == flat.value.args
