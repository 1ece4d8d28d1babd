import gc
import json
import math
import random
import re
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bsdelab.expressions import (
    MAX_NESTING,
    MAX_TERMS,
    Bin,
    EvalDomainError,
    Expression,
    Func,
    Neg,
    Num,
    ParseError,
    Var,
    _DOT_MAX,
    _generate,
    _to_source,
    all_finite,
    parse_expression,
    parse_univariate,
)
from bsdelab.solver import _TRAP

from tests.oracles import reference_evaluate


def g2_ast():
    # -y^3 + abs(z)^1.5 * sin(y), built by hand
    return Bin(
        "+",
        Neg(Bin("^", Var("y"), Num(3.0))),
        Bin("*", Bin("^", Func("abs", (Var("z"),)), Num(1.5)), Func("sin", (Var("y"),))),
    )


class TestParsing:
    def test_named_cubic_driver(self):
        e = parse_expression("-y^3 + abs(z)^1.5 * sin(y)")
        assert e.root == g2_ast()

    def test_zero(self):
        e = parse_expression("0")
        for t, y, z in [(0, 0, 0), (0.5, -3.0, 2.0), (1, 100, -7)]:
            assert e(t, y, z) == 0.0

    def test_forced_arithmetic(self):
        e = parse_expression("abs(z)^2 * exp(y) + y*cos(y)")
        assert e(0.0, 0.0, 1.0) == 1.0

    def test_unary_minus_binds_below_power(self):
        assert parse_expression("-y^3")(0, 2, 0) == -8.0
        assert parse_expression("-y^2")(0, 3, 0) == -9.0

    def test_power_right_associative(self):
        assert parse_expression("y^z^2")(0, 2, 3) == 2.0**9

    def test_power_of_negative_exponent(self):
        assert parse_expression("y^-2")(0, 4, 0) == pytest.approx(1 / 16)

    def test_precedence(self):
        assert parse_expression("1 + 2 * 3 ^ 2")(0, 0, 0) == 19.0
        assert parse_expression("2 * -3")(0, 0, 0) == -6.0

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("1 + ")
        assert err.value.position == 4
        assert err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'"):
            parse_expression("q + 1")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expression("tan(y)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="takes 2 argument"):
            parse_expression("min(y)")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_expression("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("1 2")

    def test_unicode_operator_aliases(self):
        e = parse_expression("3 × y − z")
        assert e(0.0, 2.0, 1.0) == 5.0

    def test_terminal_variable_set(self):
        e = parse_expression("min(w^2, 4)", variables=("w",))
        assert e(3.0) == 4.0
        with pytest.raises(ParseError):
            parse_expression("y", variables=("w",))


def nest(kind, depth):
    """A source nested ``depth`` levels deep, and where its last level opens."""
    open_, close = {"group": ("(", ")"), "divide-sqrt": ("x/sqrt(", ")"),
                    "divide-exp": ("x/exp(", ")"), "sin": ("sin(", ")"),
                    "minus": ("-", ""), "power": ("0.5^", "")}[kind]
    source = open_ * depth + "x" + close * depth
    return source, len(open_) * depth - 1


class TestNestingLimit:
    KINDS = ["group", "divide-sqrt", "divide-exp", "sin", "minus", "power"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_deepest_nesting_evaluates(self, kind):
        # x/sqrt( opens three nested calls per level in the generated code
        source, _ = nest(kind, MAX_NESTING)
        expr = parse_univariate(source)
        for x in (0.7, np.asarray([0.3, 1.9])):
            got = np.asarray(expr(x))
            want = np.asarray(reference_evaluate(expr.root, expr.variables, (x,)))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_level_deeper_is_a_parse_error(self, kind):
        source, position = nest(kind, MAX_NESTING + 1)
        with pytest.raises(ParseError, match=rf"nesting depth {MAX_NESTING + 1} exceeds the "
                                             rf"limit of {MAX_NESTING} at position") as err:
            parse_univariate(source)
        assert err.value.position == position

    def test_sums_do_not_nest(self):
        assert parse_univariate(" + ".join(["x"] * (4 * MAX_NESTING)))(1.0) == 4 * MAX_NESTING


class TestEvaluation:
    def test_named_driver_value(self):
        e = parse_expression("-y^3 + abs(z)^1.5 * sin(y)")
        assert e(0.0, 1.0, 0.0) == -1.0

    def test_pi_point(self):
        e = parse_expression("abs(z)^2 * (1 - exp(y)) + abs(z) * sin(abs(z))")
        assert e(0.0, 0.0, math.pi) == pytest.approx(0.0, abs=1e-14)

    def test_sign_zero_is_zero(self):
        assert parse_expression("sign(y)")(0, 0.0, 0) == 0.0
        assert parse_expression("sign(y)")(0, -2.0, 0) == -1.0

    def test_clamp(self):
        e = parse_expression("clamp(y, -2, 2)")
        assert [e(0, v, 0) for v in (-5, -1, 3)] == [-2.0, -1.0, 2.0]

    def test_vectorised_matches_scalar(self):
        e = parse_expression("-y^3 + abs(z)^1.5 * sin(y)")
        rng = np.random.default_rng(1)
        t, y, z = rng.normal(size=(3, 64))
        vec = e(t, y, z)
        for k in range(64):
            assert vec[k] == e(float(t[k]), float(y[k]), float(z[k]))

    def test_ln_domain_error_reports_subexpression(self):
        e = parse_expression("ln(y)")
        with pytest.raises(EvalDomainError, match=r"ln\(y\)"):
            e(0.0, -1.0, 0.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            parse_expression("sqrt(z)")(0.0, 0.0, -4.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalDomainError, match="non-integer exponent"):
            parse_expression("y^1.5")(0.0, -2.0, 0.0)
        # integer-valued exponent on a negative base is fine
        assert parse_expression("y^3")(0.0, -2.0, 0.0) == -8.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            parse_expression("1 / y")(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("source, y, message", [
        ("ln(y)/y", 0.0, "ln of a non-positive value in sub-expression 'ln(y)'"),
        ("sqrt(y)/(y - y)", -1.0, "sqrt of a negative value in sub-expression 'sqrt(y)'"),
        ("1/y", 0.0, "division by zero in sub-expression '1.0 / y'"),
    ])
    def test_quotient_evaluates_left_to_right(self, source, y, message):
        # the numerator's fault is the one reported; the divisor is checked last
        e = parse_expression(source)
        for args in ((0.0, y, 0.0), (0.0, np.array([1.0, y]), 0.0)):
            with pytest.raises(EvalDomainError) as err:
                e(*args)
            assert str(err.value) == message

    def test_overflow_reported_not_inf(self):
        # a scalar call runs under the array call's np.errstate: no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalDomainError, match="exp produced a non-finite value"):
                parse_expression("exp(y)")(0.0, 1e6, 0.0)

    def test_array_overflow_raises_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EvalDomainError, match="exp produced a non-finite value"):
                parse_expression("exp(y)")(0.0, np.array([0.0, 1e6]), 0.0)
        assert caught == []

    def test_array_near_overflow_is_finite_and_silent(self):
        # 1e200 is finite, though its square, the finiteness check's sum, is not
        y = np.array([1e100, -1e100])
        for action in ("always", "error"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                out = parse_expression("y^2")(0.0, y, 0.0)
            assert out.tolist() == [1e200, 1e200] and caught == []


@pytest.mark.simd_exact
class TestScalarCalls:
    """A call with scalars runs the array call's compiled function and returns
    a Python float with the array call's bits."""

    @pytest.mark.parametrize("source", ["min(x, -x)", "max(-x, x)", "clamp(x, -x, 1)", "sign(-x)"])
    @pytest.mark.parametrize("x", [0.0, -0.0], ids=["+0", "-0"])
    def test_signed_zeros_are_the_array_calls(self, source, x):
        # min(0.0, -0.0) is 0.0, but np.minimum(0.0, -0.0) is -0.0
        expr = parse_univariate(source)
        out = expr(x)
        assert type(out) is float and np.array([out]).tobytes() == expr(np.array([x])).tobytes()

    def test_clamp_is_the_same_in_every_call_shape(self):
        # np.clip breaks a tie of signed zeros by whether its bounds are arrays
        expr = parse_expression("clamp(y, -t, 1)")
        zero = np.array([0.0])
        for out in (expr(0.0, 0.0, 0.0), expr(0.0, zero, 0.0), expr(zero, zero, zero)):
            assert np.reshape(out, -1).tobytes() == np.array([-0.0]).tobytes()

    @pytest.mark.parametrize("action", ["always", "error"])
    @pytest.mark.parametrize("source, message", [
        ("x*x", "non-finite result"),
        ("abs(x)*abs(x) + 1", "non-finite result"),
        ("x^2", "power produced a non-finite value"),
    ])
    def test_plain_arithmetic_overflow_raises_without_a_warning(self, action, source, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(EvalDomainError, match=message):
                parse_univariate(source)(1e200)
        assert caught == []


# ---------------------------------------------------------------------------
# Round-trip: print then reparse evaluates identically


def random_ast(rng, depth):
    if depth == 0:
        return rng.choice(
            [Num(round(rng.uniform(0, 4), 3)), Var("t"), Var("y"), Var("z")]
        )
    kind = rng.randrange(8)
    if kind < 3:
        op = rng.choice("+-*^")
        lhs = random_ast(rng, depth - 1)
        rhs = random_ast(rng, depth - 1)
        if op == "^":
            # keep powers safe: nonnegative base, small constant exponent
            lhs = Func("abs", (lhs,))
            rhs = Num(float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])))
        return Bin(op, lhs, rhs)
    if kind == 3:
        return Neg(random_ast(rng, depth - 1))
    if kind == 4:
        return Func(rng.choice(["sin", "cos", "abs"]), (random_ast(rng, depth - 1),))
    if kind == 5:
        return Func("exp", (Func("sin", (random_ast(rng, depth - 1),)),))
    if kind == 6:
        return Func(
            rng.choice(["min", "max"]),
            (random_ast(rng, depth - 1), random_ast(rng, depth - 1)),
        )
    return Func("sqrt", (Func("abs", (random_ast(rng, depth - 1),)),))


def test_round_trip_thousand_random_asts():
    rng = random.Random(20260809)
    pts = np.random.default_rng(3).uniform(-5, 5, size=(3, 100))
    for _ in range(1000):
        ast = random_ast(rng, rng.randrange(1, 4))
        original = Expression(ast, ("t", "y", "z"))
        reparsed = parse_expression(original.to_source())
        a = original(*pts)
        b = reparsed(*pts)
        assert np.array_equal(a, b), original.to_source()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_reproduces_ast(seed):
    # printing is faithful enough to reproduce the AST node for node, which
    # is stronger than evaluation equality
    rng = random.Random(seed)
    ast = random_ast(rng, rng.randrange(1, 5))
    original = Expression(ast, ("t", "y", "z"))
    assert parse_expression(original.to_source()).root == original.root


# ---------------------------------------------------------------------------
# Generated evaluator against the tree-walking reference


def random_signed_ast(rng, depth, literals=(0, 0.5, 1, 2, 3.25)):
    """Random AST reaching every check: signed bases and arguments, zeros,
    integer, non-integer, negative and variable exponents, constant sub-trees."""
    if depth == 0:
        number = Num(float(rng.choice(literals)))
        return rng.choice([number, Var("t"), Var("y"), Var("z")])

    def sub():
        return random_signed_ast(rng, depth - 1, literals)

    kind = rng.randrange(6)
    if kind == 0:
        return Bin(rng.choice("+-*/"), sub(), sub())
    if kind == 1:
        exponents = [Num(float(e)) for e in (0, 1, 2, 3, 4, 5, 0.5, 1.5, -1, -2)]
        exponents += [Neg(Num(0.5)), Bin("-", Num(1.0), Num(3.0)), sub()]
        return Bin("^", sub(), rng.choice(exponents))
    if kind == 2:
        return Neg(sub())
    if kind == 3:
        return Func(rng.choice(["abs", "sign", "sin", "cos", "exp", "ln", "sqrt"]), (sub(),))
    if kind == 4:
        return Func(rng.choice(["min", "max"]), (sub(), sub()))
    return Func("clamp", (sub(), sub(), sub()))


def _outcome(call):
    try:
        out = call()
    except EvalDomainError as err:
        return type(err), str(err)
    return type(out), np.shape(out), np.asarray(out).tobytes()


@pytest.mark.simd_exact
@settings(max_examples=600, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_evaluator_matches_reference(seed):
    # bitwise equal values, or the same domain error with the same message
    rng = random.Random(seed)
    ast = random_signed_ast(rng, rng.randrange(1, 5))
    expr = Expression(ast, ("t", "y", "z"))
    levels = [-800.0, -2.5, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 3.5, 1e160]
    pts = np.array([[rng.choice(levels) for _ in range(6)] for _ in range(3)])
    cases = [tuple(pts), (0.5, pts[1], 2.0)] + [tuple(map(float, pts[:, k])) for k in range(4)]
    with np.errstate(all="ignore"):
        for args in cases:
            expected = _outcome(lambda: reference_evaluate(ast, expr.variables, args))
            assert _outcome(lambda: expr(*args)) == expected, (expr.to_source(), args)


def staged(expr, var, values, *others):
    """``expr``, then each of ``others``, at ``values`` through the split at ``var``."""
    pre, *bodies = expr.split(var, *others)
    rest = [v for name, v in zip(expr.variables, values) if name != var]
    parts = pre(*rest)
    return [body(*values, *parts) for body in bodies]


@pytest.mark.simd_exact
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["t", "y", "z"]))
def test_split_evaluation_is_bit_identical(seed, var):
    # the expression's body, and its derivative's over the same parts
    rng = random.Random(seed)
    expr = Expression(random_ast(rng, rng.randrange(1, 6)), ("t", "y", "z"))
    slope = expr.derivative(var)
    pts = np.random.default_rng(seed % 1000).uniform(-5, 5, size=(3, 50))
    with np.errstate(all="ignore"):
        for args in (tuple(pts), (0.5, pts[1], pts[2]), tuple(map(float, pts[:, 0]))):
            for out, whole in zip(staged(expr, var, args, slope), (expr, slope)):
                try:
                    expected = np.asarray(whole(*args))
                except EvalDomainError:  # the derivative of abs(x)^0.5 at x = 0
                    continue
                out = np.broadcast_to(out, expected.shape)
                assert out.tobytes() == expected.tobytes(), (whole.to_source(), var)


@pytest.mark.simd_exact
@settings(max_examples=600, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unchecked_split_traps_or_gives_the_checked_bits(seed):
    # from finite numpy values under the trap, the split raises
    # FloatingPointError, or returns the whole checked expression's bits where
    # that raises nothing; it never returns where the expression fails
    rng = random.Random(seed)
    literals = (0, 0.5, 1, 2, 3.25, 1e-300, 1e154, 1e300, 1e308)
    expr = Expression(random_signed_ast(rng, rng.randrange(1, 5), literals), ("t", "y", "z"))
    # and so does its derivative in y, staged over the expression's parts
    slope = expr.derivative("y")
    levels = [-1e300, -2.5, -1.0, -1e-300, 0.0, 1e-300, 0.25, 1.0, 3.5, 1e300]
    y, z = (np.array([rng.choice(levels) for _ in range(6)]) for _ in range(2))
    t = rng.choice(levels)
    pre, *bodies = expr.split("y", slope)
    for whole, body in zip((expr, slope), bodies):
        for args in ((t, y, z), (t, np.float64(y[0]), np.float64(z[0]))):
            with np.errstate(all="ignore"):
                try:
                    expected = np.asarray(whole(*args))
                except EvalDomainError:
                    expected = None
            # t as the sweep passes it: a numpy float, whose arithmetic raises flags
            at, ay, az = np.float64(args[0]), args[1], args[2]
            with np.errstate(**_TRAP):  # the sweep's
                try:
                    out = body(at, ay, az, *pre(at, az))
                except FloatingPointError:
                    continue
            assert expected is not None, whole.to_source()
            out = np.broadcast_to(out, expected.shape)
            assert out.tobytes() == expected.tobytes(), whole.to_source()


@pytest.mark.simd_exact
@pytest.mark.parametrize("source", ["y^0*1e308*10", "min(exp(z^0*1e308*10), 1) + y", "y^0/0"])
def test_unchecked_zeroth_power_raises_flags(source):
    # x^0 is a numpy 1.0 in the split: Python float arithmetic on it would
    # overflow to inf, or divide by zero, without a flag
    expr = parse_expression(source)
    pre, body = expr.split("y")
    t, y, z = np.float64(0.5), np.array([1.0, 2.0]), np.array([3.0, -1.0])
    with pytest.raises(EvalDomainError):
        expr(t, y, z)
    with np.errstate(**_TRAP), pytest.raises(FloatingPointError):
        body(t, y, z, *pre(t, z))


def test_split_hoists_the_largest_y_free_parts():
    expr = parse_expression("-y^3 + abs(z)^1.5*sin(y) + t*y + sin(t)*z^2 + 2^3")
    pre, body = expr.split("y")
    assert [float(v) for v in pre(0.5, 2.0)] == [2.0**1.5, math.sin(0.5) * 4.0]
    assert expr.split("y") == (pre, body)  # built once
    slope = expr.derivative("y")
    assert expr.derivative("y") is slope
    pre, body, slope_body = expr.split("y", slope)  # the same parts
    assert slope_body(0.5, 1.0, 2.0, *pre(0.5, 2.0)) == slope(0.5, 1.0, 2.0)
    assert body(0.5, 1.0, 2.0, *pre(0.5, 2.0)) == expr(0.5, 1.0, 2.0)
    assert parse_expression("y*t + z").split("y")[0](1.0, 2.0) == ()  # bare variables stay
    # a driver without y is one part, and the body hands back a new array
    pre, body = parse_expression("z^2/2").split("y")
    z = np.array([1.0, -3.0])
    (part,) = pre(1.0, z)
    out = body(1.0, z, z, part)
    assert np.array_equal(out, [0.5, 4.5]) and out is not part


# ---------------------------------------------------------------------------
# Symbolic derivative against central differences of the reference evaluator


def derivative_checks(root, var, points, h=1e-4):
    """(checked, failures) of ``Expression(root).derivative(var)`` against
    central differences of ``reference_evaluate`` at steps h and h/2, at each
    point where both differences agree (no kink or domain edge within h) and
    the derivative is defined."""
    variables = ("t", "y", "z")
    slope = Expression(root, variables).derivative(var)
    k = variables.index(var)
    checked, failures = 0, []
    for point in points:
        def f(x):
            values = list(map(float, point))
            values[k] = x
            return reference_evaluate(root, variables, values)

        x = float(point[k])
        try:
            wide, narrow = ((f(x + s) - f(x - s)) / (2.0 * s) for s in (h, h / 2.0))
            exact = slope(*map(float, point))
        except EvalDomainError:
            continue
        scale = 1.0 + abs(narrow)
        if not abs(wide - narrow) <= 1e-6 * scale:
            continue
        checked += 1
        if not abs(exact - narrow) <= 1e-5 * scale:
            failures.append((tuple(point), exact, narrow))
    return checked, failures


@pytest.mark.simd_exact
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["t", "y", "z"]))
def test_derivative_matches_central_differences(seed, var):
    rng = random.Random(seed)
    root = random_ast(rng, rng.randrange(1, 5))
    points = np.random.default_rng(seed % 1000).uniform(-3, 3, size=(20, 3))
    _, failures = derivative_checks(root, var, points)
    assert not failures, (_to_source(root), var, failures[:3])


def test_derivative_checks_are_not_vacuous():
    # the filter skips points near kinks and domain edges, not most points
    rng = random.Random(20261020)
    points = np.random.default_rng(5).uniform(-3, 3, size=(10, 3))
    checked = sum(derivative_checks(random_ast(rng, rng.randrange(1, 5)), "y", points)[0]
                  for _ in range(200))
    assert checked >= 0.8 * 200 * 10


@pytest.mark.simd_exact
@pytest.mark.parametrize("source, y, expected", [
    ("abs(y)", 0.0, 0.0),  # sign(0) = 0
    ("abs(y - 1)", 1.0, 0.0),
    ("min(y, 2*y - 1)", 1.0, 1.0),  # a tie takes the first argument's derivative
    ("min(2*y - 1, y)", 1.0, 2.0),
    ("max(y, 2*y - 1)", 1.0, 1.0),
    ("max(2*y - 1, y)", 1.0, 2.0),
    ("min(y, 2*y - 1)", 2.0, 1.0),
    ("max(y, 2*y - 1)", 2.0, 2.0),
    ("clamp(y, -1, 2)", -1.0, 1.0),  # at its bounds, the derivative from inside
    ("clamp(y, -1, 2)", 2.0, 1.0),
    ("clamp(y, -1, 2)", -1.5, 0.0),
    ("clamp(y, -1, 2)", 2.5, 0.0),
    ("clamp(1, y, 3)", 1.0, 0.0),  # x at a tie with the lower bound
    ("clamp(1, y, 3)", 2.0, 1.0),
    ("clamp(3*y, 0, y + 1)", 0.75, 1.0),  # past the upper bound, its derivative
    ("clamp(3*y, 0, y + 1)", 0.5, 3.0),  # x at a tie with the upper bound
    ("sign(y)", 0.5, 0.0),
    ("y^y", 2.0, 4.0 * (math.log(2.0) + 1.0)),  # a y-dependent exponent
    ("2^y", 3.0, 8.0 * math.log(2.0)),
    ("y^z", 2.0, 0.75 * 2.0 ** -0.25),
])
def test_derivative_at_kinks_and_exponents(source, y, expected):
    slope = parse_expression(source).derivative("y")
    assert slope(0.5, y, 0.75) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.simd_exact
def test_derivative_rules_fold_and_drop():
    cases = {
        "-y^3 + abs(z)^1.5*sin(y)": "-(3.0 * y^2.0) + abs(z)^1.5 * cos(y)",
        "-y": "(-1.0)",
        "z^2/2": "0.0",
        "sign(y) + t": "0.0",
        "3*y*y": "3.0 * y + 3.0 * y",
        "exp(-2*y)": "exp((-2.0) * y) * (-2.0)",
        "y^(1/2)": "0.5 * y^(-0.5)",
        "ln(y) - sqrt(y)": "1.0 / y - 1.0 / (2.0 * sqrt(y))",
        "cos(y)/y": "(-sin(y) - cos(y) / y) / y",
    }
    for source, derivative in cases.items():
        assert parse_expression(source).derivative("y").to_source() == derivative


def test_suite_drivers_derivatives_have_no_unit_factors_or_zero_terms():
    config = json.loads((resources.files("bsdelab") / "configs" / "acceptance_suite.json")
                        .read_text())
    sections = [config] + config["checks"]
    drivers = {section[key]["expr"] for section in sections
               for key in ("generator", "generator_prime") if key in section}
    assert "-y^3 + abs(z)^1.5 * sin(y)" in drivers
    unit_or_zero = re.compile(r"(?<![\w.])(?:1\.0 [*/]|0\.0 [*+-])|[*/] 1\.0(?![\w.])"
                              r"|[*+-] 0\.0(?![\w.])")
    for driver in drivers:
        expr = parse_expression(driver)
        for var in expr.variables:
            source = _generate(expr.derivative(var).root, expr.variables)
            assert not unit_or_zero.search(source), (driver, var, source)


def test_compiling_leaves_no_reference_cycle():
    # the emitter once re-emitted a node through its own closure cell, so each
    # compile was garbage until a full collection; the overflowing literal
    # takes that re-emission path
    config = json.loads((resources.files("bsdelab") / "configs" / "acceptance_suite.json")
                        .read_text())
    drivers = {section[key]["expr"] for section in [config] + config["checks"]
               for key in ("generator", "generator_prime") if key in section}
    drivers |= {"-y^3 + abs(z)^1.5*sin(y) + y/t", "min(y, 1e400) - y^3"}
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for driver in drivers:
            expr = parse_expression(driver)
            slope = expr.derivative("y")
            expr(0.5, 0.25, 0.75), slope(0.5, 0.25, 0.75)
            expr.split("y", slope)
        del expr, slope
        gc.collect()
        assert not gc.garbage, sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_warnings_as_errors_still_give_the_domain_error():
    # python -W error: numpy's overflow warning is raised inside the evaluation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match=r"exp produced a non-finite value"):
            parse_univariate("exp(x)")(1000.0)
        with pytest.raises(EvalDomainError, match=r"non-finite value in sub-expression 'x\^2.0'"):
            parse_univariate("x^2")(np.array([1.0, 1e200]))
        assert parse_univariate("min(x*x, 1)")(1e200) == 1.0
        # folding a constant that overflows, while compiling, warns of nothing
        with pytest.raises(EvalDomainError, match=r"exp produced a non-finite value"):
            parse_univariate("x + exp(1000)")(np.array([1.0, 2.0]))


def deep_stack(depth, fn):
    return fn() if depth == 0 else deep_stack(depth - 1, fn)


class TestLongFlatExpressions:
    """A flat sum of n terms is a chain n nodes deep; no walk may recurse on it."""

    def test_thousand_terms(self):
        expr = parse_univariate(" + ".join(["x"] * 1000))
        assert expr(1.0) == 1000.0
        assert len(expr.to_source()) == 4 * 1000 - 3

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_at_the_limit(self, op):
        # compiled from 300 frames down, as from inside a caller's stack
        expr = parse_univariate(f" {op} ".join(["x"] * MAX_TERMS))
        expected = {"+": MAX_TERMS, "-": 2 - MAX_TERMS, "*": 1.0}[op]
        assert deep_stack(300, lambda: expr(np.array([1.0])))[0] == expected

    def test_limit_counts_every_operator_in_every_group(self):
        terms = ["(x*x + x)"] * (MAX_TERMS // 3) + ["x"] * (MAX_TERMS % 3)
        expr = parse_expression(" - ".join(terms), variables=("x",))
        assert expr(1.0) == 2.0 - (MAX_TERMS // 3 - 1) * 2.0 - MAX_TERMS % 3
        with pytest.raises(ParseError, match=f"{MAX_TERMS + 1} terms exceed the limit of {MAX_TERMS}"):
            parse_expression(" - ".join(terms + ["x"]), variables=("x",))

    def test_division_chain(self):
        # each quotient would nest its numerator one call deeper
        expr = parse_univariate("/".join(["x"] * 250))
        x = np.array([1.1, -1.0, 0.9])
        assert np.array_equal(expr(x), reference_evaluate(expr.root, ("x",), (x,)))
        with pytest.raises(EvalDomainError, match="division by zero"):
            expr(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("joiner", ["/", "/x*"])
    def test_quotient_chain_at_the_limit(self, joiner):
        # compiled from 300 frames down, as from inside a caller's stack
        expr = parse_univariate(joiner.join(["x"] * (MAX_TERMS // len(joiner))))
        want = {"/": 1.25 ** (2 - MAX_TERMS), "/x*": 1.25}[joiner]
        got = deep_stack(300, lambda: expr(np.array([1.25])))[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_long_sum_hashes_and_compares(self):
        source = " + ".join(["x"] * MAX_TERMS)
        expr = parse_univariate(source)
        assert hash(expr) == hash(parse_univariate(source))
        assert expr == parse_univariate(source)
        assert expr != parse_univariate(source[:-1] + "2")
        assert expr != parse_univariate(source.replace("x", "y"))

    @pytest.mark.parametrize("terms", [MAX_TERMS + 1, 5000, 100_000])
    def test_past_the_limit_is_a_parse_error(self, terms):
        source = " + ".join(["x"] * terms)
        with pytest.raises(ParseError) as err:
            parse_univariate(source)
        assert f"{MAX_TERMS + 1} terms exceed the limit of {MAX_TERMS}" in str(err.value)
        assert err.value.position == source.index("+") + 4 * (MAX_TERMS - 1)


def test_small_integer_power_is_a_product():
    y = np.random.default_rng(4).uniform(-3, 3, 1000)
    assert np.array_equal(parse_univariate("y^3")(y), y * y * y)
    assert np.array_equal(parse_univariate("y^(1 + 3)")(y), y * y * y * y)
    assert np.array_equal(parse_univariate("y^5")(y), np.power(y, 5.0))



@pytest.mark.parametrize("source", ["w", "w^1", "(w^1)^1"])
def test_result_is_never_the_argument(source):
    # a caller that writes into the result must not write into its input
    a = np.array([1.0, -2.0, -0.0])
    before = a.copy()
    out = parse_expression(source, variables=("w",))(a)
    assert out is not a and not np.shares_memory(out, a)
    assert np.array_equal(out, before) and math.copysign(1.0, out[2]) == -1.0
    out[:] = 7.0
    assert np.array_equal(a, before)
    assert np.array_equal(parse_expression(source, variables=("w",))(a[::-1]), before[::-1])

class TestUnivariate:
    def test_any_single_variable_name(self):
        for source in ("x", "1 + abs(y)", "1 + abs(x)"):
            f = parse_univariate(source)
            assert f(3.0) == pytest.approx(eval(source.replace("y", "x"), {"abs": abs, "x": 3.0}))

    def test_constant(self):
        assert parse_univariate("2.5")(100.0) == 2.5

    def test_two_variables_rejected(self):
        with pytest.raises(Exception, match="one free variable"):
            parse_univariate("x + y")


# ---------------------------------------------------------------------------
# The finiteness check: a sum of squares, exact where the sum overflows

FINITENESS_EDGES = [math.nan, math.inf, -math.inf, 1e200, -1e200, 1.3e154, 5e-324, -5e-324,
                    0.0, -0.0, 1.0]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9),
                  elements=st.sampled_from(FINITENESS_EDGES) | st.floats()))
def test_all_finite_is_the_elementwise_verdict(arr):
    views = [arr]
    if arr.ndim:
        views += [arr[::2], arr[::-1], arr.T]
    if arr.ndim == 2:
        views.append(arr[:, 1::2])
    with np.errstate(all="ignore"):
        for view in views:
            assert all_finite(view) is bool(np.isfinite(view).all()), view
        if arr.size:
            first = arr.reshape(-1)[0]
            assert all_finite(float(first)) == all_finite(first) == math.isfinite(first)


@pytest.mark.parametrize("size", [_DOT_MAX, _DOT_MAX + 1])
def test_all_finite_on_either_side_of_the_dot_limit(size):
    for last, expected in ((1e200, True), (math.inf, False), (-math.inf, False), (math.nan, False)):
        arr = np.ones(size)
        arr[-1] = last
        with np.errstate(all="ignore"):
            assert all_finite(arr) is all_finite(arr[::-1].reshape(1, -1)) is expected
