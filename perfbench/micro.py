"""Baseline-table rows: one layer each, runnable alone by name.

``python3 perfbench/run.py --micro <row>`` runs one row, ``--micro all`` runs
every row.  Each row reports the median over repeated timings and, where the
ROADMAP baseline table has the row, its value there.
"""

import math
import statistics
import time

import numpy as np

DRIVER = "-y^3 + abs(z)^1.5*sin(y)"


def _driver_numpy(t, y, z):
    # written as a person would: the cube as two multiplications, not np.power
    return -y * y * y + np.abs(z) ** 1.5 * np.sin(y)


def per_call(fn, reps, inner=1):
    """Median seconds per call of ``fn()`` over ``reps`` batches of ``inner`` calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def _arrays(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, size), rng.uniform(-0.5, 0.5, size)


def driver_vs_numpy(mods, size, reps, inner):
    """(evaluator, hand-written numpy) seconds per call of the driver on ``size`` elements."""
    expr = mods.expressions.parse_expression(DRIVER)
    y, z = _arrays(size)
    return (per_call(lambda: expr(0.5, y, z), reps, inner),
            per_call(lambda: _driver_numpy(0.5, y, z), reps, inner))


def row_expr_call_200(mods):
    ev, ref = driver_vs_numpy(mods, 200, 15, 200)
    return {"value": ev * 1e6, "unit": "us", "numpy": ref * 1e6, "roadmap": 77.0,
            "roadmap_numpy": 7.5}


def row_expr_scalar(mods):
    expr = mods.expressions.parse_expression(DRIVER)
    return {"value": per_call(lambda: expr(0.5, 0.25, -0.3), 15, 200) * 1e6, "unit": "us",
            "roadmap": 48.0}


def row_expr_throughput_1m(mods):
    ev, ref = driver_vs_numpy(mods, 1_000_000, 7, 1)
    return {"value": ev * 1e3, "unit": "ms", "numpy": ref * 1e3, "roadmap": 129.0,
            "roadmap_numpy": 34.0}


def row_power_vs_mult(mods):
    b, _ = _arrays(1_000_000)
    power = per_call(lambda: np.power(b, 3.0), 7)
    mult = per_call(lambda: b * b * b, 7)
    return {"value": power * 1e3, "unit": "ms", "mult": mult * 1e3, "roadmap": 85.0,
            "roadmap_mult": 2.0}


def row_envelope_point(mods):
    en, gen = mods.envelopes, mods.generators
    growth = en.LinearGrowthBound.from_parts("0", "0", "0")
    one = gen.WeightFn.parse("1")
    env = en.sup_convolution_generator(gen.Generator.parse("-y^2 - z^4 / 4"), 2, one, one,
                                       growth=growth)
    pts = np.random.default_rng(6).uniform(-2.5, 2.5, size=(9, 3))
    times = []
    for t, y, z in pts:
        start = time.perf_counter()
        env(float(t), float(y), float(z))
        times.append(time.perf_counter() - start)
    return {"value": statistics.median(times) * 1e3, "unit": "ms", "roadmap": 35.0}


def row_ode_sweep(mods):
    od = mods.ode_bounds
    one = mods.generators.WeightFn.parse("1")
    grid = od.TimeGrid.uniform(1.0, 400)
    sweep = per_call(lambda: od.solve_growth_ode("upper", 1.0, one, "1 + abs(x)", grid), 5)
    both = per_call(lambda: od.sandwich_envelope(1.0, one, "1 + abs(x)", grid), 5)
    return {"value": sweep * 1e3, "unit": "ms", "sandwich": both * 1e3, "roadmap_sandwich": 50.0}


def row_certificate_grid(mods):
    cert_mod = mods.certificates
    one = mods.generators.WeightFn.parse("1")
    cert = cert_mod.OneSidedSuperLinear(one, "1 + abs(y)", "1")
    g = mods.generators.Generator.parse(DRIVER).with_certificate(cert)
    grid = cert_mod.SampleGrid(y_count=101, z_count=101)
    return {"value": per_call(lambda: cert_mod.check_certificate(g, cert, grid), 5) * 1e3,
            "unit": "ms"}


def _tree(scheme, roadmap):
    def row(mods):
        gen = mods.generators
        g, xi = gen.Generator.parse(DRIVER), gen.TerminalCondition.parse("sin(w)")
        seconds = per_call(lambda: mods.solver.solve_tree(g, xi, 2000, scheme=scheme), 3)
        return {"value": seconds, "unit": "s", "roadmap": roadmap}
    return row


def row_mc_solve(mods):
    gen = mods.generators
    g, xi = gen.Generator.parse(DRIVER), gen.TerminalCondition.parse("sin(w)")
    solve = mods.solver.solve_mc_regression
    one = per_call(lambda: solve(g, xi, 50, 100_000, 3, 1), 3)
    two = per_call(lambda: solve(g, xi, 50, 100_000, 3, 1, threads=2), 3)
    return {"value": one, "unit": "s", "threads_2": two, "roadmap": 1.77,
            "roadmap_threads_4": 2.17}


ROWS = {
    "expr_call_200": row_expr_call_200,
    "expr_scalar": row_expr_scalar,
    "expr_throughput_1m": row_expr_throughput_1m,
    "power_vs_mult": row_power_vs_mult,
    "envelope_point": row_envelope_point,
    "ode_sweep": row_ode_sweep,
    "certificate_grid": row_certificate_grid,
    "tree_explicit": _tree("explicit", 0.43),
    "tree_implicit": _tree("implicit", 1.51),
    "mc_solve": row_mc_solve,
}


def numpy_ratios(mods):
    """Evaluator over hand-written numpy on 200 and on 1M elements, for the traced run."""
    small = driver_vs_numpy(mods, 200, 5, 100)
    large = driver_vs_numpy(mods, 1_000_000, 3, 1)
    return {"expressions.numpy_ratio_small": small[0] / small[1],
            "expressions.numpy_ratio_large": large[0] / large[1]}


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) and math.isfinite(value) else str(value)
