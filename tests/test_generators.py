import math
import random

import numpy as np
import pytest

from bsdelab.generators import (
    Generator,
    TerminalCondition,
    WeightFn,
    WeightValidationError,
)
from tests.oracles import dual_generator
from tests.test_expressions import random_ast
from bsdelab.expressions import _FUNCTION_ARITY, Expression


class TestWeightFn:
    def test_constant_weight(self):
        u = WeightFn.parse("1")
        assert u(0.3) == 1.0
        assert u.validate(1.0)

    def test_linear_weight_is_integrable(self):
        u = WeightFn.parse("2*t", tag="L1&L2")
        assert u.validate(1.0)

    def test_negative_weight_rejected(self):
        u = WeightFn.parse("t - 1")
        with pytest.raises(WeightValidationError, match="negative"):
            u.validate(2.0)
        # at the first negative sample, not at the most negative one (t = 1)
        with pytest.raises(WeightValidationError, match=r"^weight is negative at t=0\.250488 "):
            WeightFn.parse("0.25 - t").validate(1.0)

    def test_lq_tag_requires_alpha(self):
        with pytest.raises(WeightValidationError, match="alpha"):
            WeightFn.parse("1", tag="Lq")
        w = WeightFn.parse("1", tag="Lq", alpha=0.5)
        assert w.validate(1.0)

    def test_unknown_tag(self):
        with pytest.raises(WeightValidationError):
            WeightFn.parse("1", tag="L7")

    def test_square_integrability_is_checked(self):
        # 1e200 is integrable, its square overflows
        assert WeightFn.parse("1e200").validate(1.0)
        for tag in ("L2", "L1&L2"):
            with pytest.raises(WeightValidationError,
                               match=r"^integral of power 2.0 is not finite$"):
                WeightFn.parse("1e200", tag=tag).validate(1.0)

    def test_unresolved_integral_rejected(self):
        # |sin(1024 pi t)| vanishes at every other sample, and only there
        u = WeightFn.parse("abs(sin(3216.9908772759483*t))")
        with pytest.raises(WeightValidationError,
                           match=r"^integral of power 1.0 not stable under refinement "
                                 r"\([-0-9.e]+ vs 0.666667\)$"):
            u.validate(1.0)

    @pytest.mark.parametrize("source, message", [
        ("1/t", "weight 1.0 / t is undefined at t=0: division by zero in sub-expression "
                "'1.0 / t'"),
        ("1/(t - 0.5)", "weight 1.0 / (t - 0.5) is undefined at t=0.5: division by zero "
                        "in sub-expression '1.0 / (t - 0.5)'"),
    ])
    def test_undefined_sample_rejected(self, source, message):
        with pytest.raises(WeightValidationError) as err:
            WeightFn.parse(source).validate(1.0)
        assert str(err.value) == message


class TestGenerator:
    def test_only_t_y_z_allowed(self):
        with pytest.raises(Exception, match="unknown identifier"):
            Generator.parse("w + y")

    def test_eval_examples(self):
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        assert g(0.0, 1.0, 0.0) == -1.0
        assert Generator.parse("0")(0.7, -3.0, 9.0) == 0.0
        g1 = Generator.parse("abs(z)^2 * (1 - exp(y)) + abs(z) * sin(abs(z))")
        assert g1(0.0, 0.0, math.pi) == pytest.approx(0.0, abs=1e-14)


class TestDual:
    # one driver per function of the expression language, each flipped node by node
    FUNCTION_DRIVERS = {
        "abs": "abs(1 + y - 2*z)", "sign": "sign(y - z) * t", "sin": "sin(t + y - 2*z)",
        "cos": "cos(1 + y - 3*z)", "exp": "exp(sin(y + z))", "ln": "ln(7 + y - z)",
        "sqrt": "sqrt(7 + y - z)", "min": "min(y, t - z)", "max": "max(y^2, z)",
        "clamp": "clamp(y, -abs(z), 1 + t)",
    }

    def test_every_function_has_a_driver(self):
        assert set(self.FUNCTION_DRIVERS) == set(_FUNCTION_ARITY)

    @pytest.mark.parametrize("name", sorted(FUNCTION_DRIVERS))
    def test_dual_is_the_negated_driver_at_the_negated_state(self, name):
        g = Generator.parse(self.FUNCTION_DRIVERS[name])
        t, y, z = np.random.default_rng(11).uniform([0.0, -3.0, -3.0], [1.0, 3.0, 3.0],
                                                     size=(64, 3)).T
        assert np.array_equal(dual_generator(g).expr(t, y, z), -g.expr(t, -y, -z))

    def test_odd_function_self_dual(self):
        g = Generator.parse("y")
        d = dual_generator(g)
        for y in (-2.0, 0.0, 3.5):
            assert d(0.0, y, 0.0) == g(0.0, y, 0.0)

    def test_constant_flips_sign(self):
        assert dual_generator(Generator.parse("1"))(0.0, 0.0, 0.0) == -1.0

    def test_cubic_driver_value(self):
        g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)")
        value = dual_generator(g)(0.0, 1.0, 1.0)
        assert value == pytest.approx(-1.0 + math.sin(1.0), abs=1e-12)

    def test_involution_exact_on_random_asts(self):
        rng = random.Random(99)
        pts = np.random.default_rng(5).uniform(-4, 4, size=(3, 50))
        for _ in range(100):
            expr = Expression(random_ast(rng, 3), ("t", "y", "z"))
            g = Generator(expr)
            gdd = dual_generator(dual_generator(g))
            assert np.array_equal(g.expr(*pts), gdd.expr(*pts))


class TestTerminalCondition:
    def test_declared_bound_checked_on_samples(self):
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        assert xi.check_bound(np.linspace(-10, 10, 101))
        lying = TerminalCondition.parse("sin(w)", bound=0.1)
        with pytest.raises(ValueError, match="exceeds declared bound"):
            lying.check_bound(np.linspace(-10, 10, 101))

    def test_truncated_above(self):
        xi = TerminalCondition.parse("w^2", bound=None)
        capped = xi.truncated_above(4.0)
        assert capped(10.0) == 4.0
        assert capped(1.0) == 1.0

    def test_only_w_allowed(self):
        with pytest.raises(Exception):
            TerminalCondition.parse("y")
