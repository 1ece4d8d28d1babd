"""Acceptance gate: every criterion asserted at its stated tolerance.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Expected values come from closed forms or from independent
quadrature/dense-scan oracles in tests/oracles.py; none are taken from the
code paths under test.
"""

import json
import math
import time

import numpy as np

from bsdelab.certificates import OneSidedLinear, OneSidedSuperLinear
from bsdelab.cli import EXIT_OK, main as cli_main
from bsdelab.envelopes import (
    LipschitzEnvelope,
    envelope_family_values,
    linearize_phi,
    sup_convolution_generator,
)
from bsdelab.generators import Generator, TerminalCondition, WeightFn, _as_univariate
from bsdelab.ode_bounds import BlowUpError, TimeGrid, bihari_sequence, sandwich_envelope
from bsdelab.solver import solve_tree
from bsdelab.transforms import exp_transform_generator
from bsdelab.verify import (
    comparison_check,
    monotone_family_check,
    sandwich_check,
)
from tests.oracles import (
    normal_expectation,
    separable_supconv_oracle,
    sqrt_envelope_closed_form,
)

ONE = WeightFn.parse("1")
ZERO_G = Generator.parse("0")


def report(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_solver_oracles():
    sol_a = solve_tree(ZERO_G, TerminalCondition.parse("w^2"), 200)
    err_a = abs(sol_a.y0 - 1.0)

    sol_b = solve_tree(
        Generator.parse("-y"), TerminalCondition.parse("1"), 200, scheme="implicit"
    )
    err_b = abs(sol_b.y0 - math.exp(-1.0))

    sol_c = solve_tree(Generator.parse("z"), TerminalCondition.parse("w"), 200)
    err_c = abs(sol_c.y0 - 1.0)

    # convergence order on the instance with nonzero error; the other two are
    # exact on the tree at every resolution (stronger than halving)
    errors = [
        abs(
            solve_tree(
                Generator.parse("-y"), TerminalCondition.parse("1"), n, scheme="implicit"
            ).y0
            - math.exp(-1.0)
        )
        for n in (50, 100, 200, 400)
    ]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    exact_ac = max(
        abs(solve_tree(ZERO_G, TerminalCondition.parse("w^2"), n).y0 - 1.0)
        for n in (50, 100, 200, 400)
    ) + max(
        abs(solve_tree(Generator.parse("z"), TerminalCondition.parse("w"), n).y0 - 1.0)
        for n in (50, 100, 200, 400)
    )
    ok = (
        err_a <= 0.02
        and err_b <= 3e-3
        and err_c <= 2e-2
        and all(0.375 <= r <= 0.625 for r in ratios)
        and exact_ac < 1e-12
    )
    report(
        1,
        ok,
        f"errors a={err_a:.2e} b={err_b:.2e} c={err_c:.2e}; halving ratios "
        f"{[round(r, 3) for r in ratios]}",
    )


def test_criterion_02_exponential_transform_identity():
    xi = TerminalCondition.parse("min(w^2, 4)")
    direct = solve_tree(Generator.parse("z^2 / 2"), xi, 400, scheme="implicit")
    oracle = math.log(
        normal_expectation(lambda x: np.exp(np.minimum(x * x, 4.0)), 1.0, nodes=2_000_001)
    )
    gap = abs(direct.y0 - oracle)

    G = exp_transform_generator(Generator.parse("z^2 / 2"), 1.0)
    rng = np.random.default_rng(2)
    Y = rng.uniform(0.1, 10.0, size=10_000)
    Z = rng.uniform(-10.0, 10.0, size=10_000)
    cancel = np.max(np.abs(np.asarray(G(0.5, Y, Z))) / (1.0 + Z * Z / Y))
    ok = gap <= 5e-3 and cancel <= 1e-10
    report(2, ok, f"|y0 - ln E| = {gap:.2e} (oracle {oracle:.6f}); cancellation {cancel:.2e}")


def test_criterion_03_two_sided_envelope_sandwich():
    cert = OneSidedSuperLinear(ONE, "1 + abs(y)", "1")
    g = Generator.parse("-y^3 + abs(z)^1.5 * sin(y)").with_certificate(cert)
    xi = TerminalCondition.parse("sin(w)", bound=1.0)
    sol = solve_tree(g, xi, 400, scheme="implicit")
    env = sandwich_envelope(1.0, ONE, "1 + abs(y)", sol.grid)
    closed_form_gap = float(
        np.max(np.abs(env.upper - (2.0 * np.exp(1.0 - sol.grid.nodes) - 1.0)))
    )
    good = sandwich_check(sol, env, tol=1e-3)
    wrong_env = sandwich_envelope(0.1, ONE, "1 + abs(y)", sol.grid)
    control = sandwich_check(sol, wrong_env, tol=1e-3)
    ok = good.passed and not control.passed and closed_form_gap < 1e-6
    report(
        3,
        ok,
        f"sandwich violation {good.violation:.2e}; wrong-bound control "
        f"violation {control.violation:.2e}; envelope vs closed form {closed_form_gap:.1e}",
    )


def test_criterion_04_backward_ode_bounds():
    values = []
    for steps in (64, 128, 256):
        grid = TimeGrid.uniform(1.0, steps)
        env = sandwich_envelope(1.0, ONE, "1 + abs(x)", grid)
        values.append(float(env.upper[0]))
    exact = 2.0 * math.e - 1.0
    stable = max(abs(v - exact) for v in values)

    blew_up = False
    blowup_time = None
    try:
        sandwich_envelope(1.0, ONE, "1 + x^2", TimeGrid.uniform(math.pi, 64))
    except BlowUpError as err:
        blew_up = True
        blowup_time = err.time_reached
    ok = stable <= 1e-5 and blew_up and 0.0 < blowup_time < math.pi
    report(
        4,
        ok,
        f"U0 within {stable:.1e} of 2e-1 over two refinements; quadratic growth "
        f"blow-up reported at t = {blowup_time}",
    )


def test_criterion_05_iterated_modulus_bounds():
    grid = TimeGrid.uniform(1.0, 128)
    ns = [2**k for k in range(0, 11)]  # 1 .. 1024
    res = bihari_sequence("x", 1.0, ONE, ns, [1.0 / n for n in ns], grid)
    # log-space form of v_n(0) <= (1/n) exp(slope * T): slope exp overflows floats
    log_bound_ok = all(
        math.log(max(res.iterates[k][0], 1e-300)) <= math.log(1.0 / n) + (n + 2.0) * 1.0
        for k, n in enumerate(ns)
    )
    limit = float(np.max(res.limit_estimate))
    ok = (
        res.all_converged
        and log_bound_ok
        and res.monotone_in_n
        and limit <= 1e-6
        and res.cap_excess_converged <= 1e-9
    )
    report(
        5,
        ok,
        f"monotone={res.monotone_in_n}, limit estimate {limit:.1e}, converged "
        f"iterates within {res.cap_excess_converged:.1e} of the Gronwall cap "
        f"{res.cap:.4f}",
    )


def test_criterion_06_envelope_properties():
    g = Generator.parse("-y^2 - z^4 / 4")
    growth = OneSidedLinear("0", "0", "0", side="absolute")
    ns = [2, 3, 4]
    envs = [sup_convolution_generator(g, n, ONE, ONE, growth=growth) for n in ns]
    pts = [
        (float(t), float(y), float(z))
        for t, y, z in np.random.default_rng(6).uniform(-2.5, 2.5, size=(100, 3))
    ]
    values = envelope_family_values(envs, pts)
    g_vals = np.asarray([float(g(*p)) for p in pts])
    dominated = bool(np.all(values >= g_vals[None, :]))
    monotone = bool(np.all(values[1:] <= values[:-1] + 1e-12))

    ys = np.linspace(-2.0, 2.0, 81)
    grid_vals = envs[0](0.0, ys, 0.0)
    dy = ys[1] - ys[0]
    lipschitz_ok = float(np.max(np.abs(np.diff(grid_vals)))) <= 2.0 * dy + 1e-9

    worst_rel = 0.0
    for (t, y, z), got in zip(pts, envs[0](*np.asarray(pts).T)):
        want = separable_supconv_oracle(
            lambda u: -(u**2), lambda v: -(v**4) / 4.0, 2, 1.0, 1.0, y, z
        )
        worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1e-9))

    env_sqrt = LipschitzEnvelope("sqrt(x)", 1.0, 0.5)
    xs = np.linspace(0.0, 4.0, 101)
    sqrt_gap = float(np.max(np.abs(env_sqrt.batch(xs) - sqrt_envelope_closed_form(xs, 1.0))))

    ok = dominated and monotone and lipschitz_ok and worst_rel <= 1e-6 and sqrt_gap <= 1e-6
    report(
        6,
        ok,
        f"domination={dominated}, monotone={monotone}, lipschitz={lipschitz_ok}, "
        f"oracle rel err {worst_rel:.1e}, sqrt closed form gap {sqrt_gap:.1e}",
    )


def test_criterion_07_comparison_suite():
    start = time.time()
    rng = np.random.default_rng(2026)
    passed = 0
    for _ in range(50):
        b1 = rng.uniform(-0.5, 0.5)
        b2 = rng.uniform(-0.5, 0.5)
        b3 = rng.uniform(-1.0, 1.0)
        c0 = rng.uniform(-0.5, 0.5)
        delta_g = rng.uniform(0.0, 0.5)
        delta_xi = rng.uniform(0.0, 0.5)
        base = f"({b1!r}) * sin(y) + ({b2!r}) * cos(z) + ({b3!r}) * z + ({c0!r})"
        g = Generator.parse(base)
        g_hi = Generator.parse(f"{base} + {delta_g!r}")
        xi = TerminalCondition.parse("cos(w) / 2")
        xi_hi = TerminalCondition.parse(f"cos(w) / 2 + {delta_xi!r}")
        # dt * Lip_y = |b1| / 200 <= 0.0025 < 1: contraction regime
        lo = solve_tree(g, xi, 200, scheme="implicit")
        hi = solve_tree(g_hi, xi_hi, 200, scheme="implicit")
        if comparison_check(lo, hi, tol=1e-6).passed:
            passed += 1

    flipped_xi = comparison_check(
        solve_tree(ZERO_G, TerminalCondition.parse("1"), 200, scheme="implicit"),
        solve_tree(ZERO_G, TerminalCondition.parse("0"), 200, scheme="implicit"),
        tol=1e-6,
    )
    flipped_g = comparison_check(
        solve_tree(ZERO_G, TerminalCondition.parse("w"), 200, scheme="implicit"),
        solve_tree(Generator.parse("-1"), TerminalCondition.parse("w"), 200, scheme="implicit"),
        tol=1e-6,
    )
    elapsed = time.time() - start
    ok = passed == 50 and not flipped_xi.passed and not flipped_g.passed and elapsed <= 120.0
    report(
        7,
        ok,
        f"{passed}/50 ordered pairs, both negative controls detected, {elapsed:.1f}s",
    )


def test_criterion_08_monotone_terminal_caps():
    caps = [1, 2, 4, 8]
    xi = TerminalCondition.parse("w^2")
    sols = [solve_tree(ZERO_G, xi.truncated_above(n), 200) for n in caps]
    rep = monotone_family_check(sols, caps)
    values = [s.y0 for s in sols]
    oracle = [
        normal_expectation(lambda x, n=n: np.minimum(x * x, float(n)), 1.0, nodes=400_001)
        for n in caps
    ]
    gaps = [abs(v - o) for v, o in zip(values, oracle)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    ok = rep.passed and increasing and all(gap <= 2e-2 for gap in gaps)
    report(
        8,
        ok,
        f"nodewise monotone={rep.passed}, strictly increasing={increasing}, "
        f"max oracle gap {max(gaps):.2e}",
    )


def test_criterion_09_modulus_majorant():
    rng = np.random.default_rng(99)
    moduli = [
        ("x", 1.0, 0.0),
        ("x + 1", 1.0, 1.0),
        ("min(1, x)", 0.0, 1.0),
        ("2 * x + 0.5", 2.0, 0.5),
    ]
    violations = 0
    samples = 0
    for source, a, b in moduli:
        phi = _as_univariate(source)
        xs = rng.uniform(0.0, 100.0, size=250)
        ns = rng.integers(1, 128, size=250)
        for x, n in zip(xs, ns):
            samples += 1
            if linearize_phi(phi, a, b, int(n), float(x)) < phi(float(x)):
                violations += 1
    ok = violations == 0 and samples == 1000
    report(9, ok, f"{samples} sampled (x, n) pairs, {violations} violations")


def test_criterion_10_bitwise_determinism(tmp_path):
    config = {
        "model": {
            "T": 1.0,
            "N": 25,
            "backend": "mc-regression",
            "paths": 60000,
            "basis_degree": 2,
            "seed": 31,
        },
        "generator": {"expr": "-y + z / 2"},
        "terminal": {"expr": "w^2"},
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(config))
    outputs = {}
    for threads in (1, 8):
        for attempt in ("first", "second"):
            out = tmp_path / f"t{threads}_{attempt}"
            code = cli_main(
                [
                    "solve",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                    "--quiet",
                ]
            )
            assert code == EXIT_OK
            outputs[(threads, attempt)] = (out / "solution.csv").read_bytes()
    identical = len(set(outputs.values())) == 1
    report(10, identical, "all four runs (1 and 8 threads, repeated) byte-identical")
