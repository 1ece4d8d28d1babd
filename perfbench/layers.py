"""Per-layer metrics from the spans of the traced passes.

Counts and self times are per traced pass (total over traced passes divided
by their number); ratios are taken over all traced passes.  A metric of a
layer the workload never calls reads 0.
"""

from collections import defaultdict

from tracer import nearest, self_seconds

LAYERS = ("expressions", "solver", "envelopes", "ode_bounds", "certificates",
          "verify", "transforms", "config", "cli")
LARGE_CALL = 10_000  # elements; calls at or above this size measure throughput

# name -> unit, in the order they are printed
METRICS = {
    "expressions.calls": "count",
    "expressions.scalar_calls": "count",
    "expressions.elements": "count",
    "expressions.us_per_call": "us",
    "expressions.ns_per_element": "ns",
    "expressions.numpy_ratio_small": "ratio",
    "expressions.numpy_ratio_large": "ratio",
    "expressions.parse_s": "s",
    "solver.tree.explicit_us_per_level": "us",
    "solver.tree.implicit_us_per_level": "us",
    "solver.picard_max_iterations": "count",
    "solver.mc.ms_per_step": "ms",
    "solver.mc.ensemble_s": "s",
    "solver.mc.threads_ratio": "ratio",
    "solver.mc.cond_max": "ratio",
    "envelopes.supconv.points": "count",
    "envelopes.supconv.ms_per_point": "ms",
    "envelopes.supconv.expr_calls_per_point": "count",
    "envelopes.lipschitz.batch_calls": "count",
    "envelopes.lipschitz.ms_per_batch": "ms",
    "ode_bounds.sweeps": "count",
    "ode_bounds.ms_per_sweep": "ms",
    "ode_bounds.expr_calls_per_sweep": "count",
    "ode_bounds.bihari_iterations": "count",
    "certificates.checks": "count",
    "certificates.ms_per_check": "ms",
    "certificates.elements_per_check": "count",
    "config.load_ms": "ms",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.self_s": "s",
    "trace.overhead_frac": "ratio",
}

_CONTAINERS = ("envelopes.supconv.value_at", "ode_bounds.solve_growth_ode",
               "certificates.check_certificate")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(pass_spans, setup_spans, main_thread, extra):
    """``pass_spans``: one span list per traced pass; ``extra`` holds values measured outside spans."""
    passes = max(1, len(pass_spans))
    spans = [s for group in pass_spans for s in group]
    own = self_seconds(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    calls = by_name["expressions.call"]
    small = [s for s in calls if s.elements < LARGE_CALL]
    large = [s for s in calls if s.elements >= LARGE_CALL]
    inside = defaultdict(lambda: [0, 0])  # container name -> [expression calls, elements]
    for s in calls:
        box = nearest(s.parent, _CONTAINERS)
        if box is not None:
            inside[box.name][0] += 1
            inside[box.name][1] += max(1, s.elements)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def levels(scheme):
        solves = [s for s in by_name["solver.solve_tree"] if s.info and s.info["scheme"] == scheme]
        return sum(s.seconds for s in solves), sum(s.info["steps"] for s in solves)

    mc = [s for s in by_name["solver.solve_mc_regression"] if s.info]
    ensembles = by_name["solver.ensemble"]
    mc_steps = sum(s.info["steps"] for s in mc)
    paired = {s.info["paths"] for s in mc if s.info["threads"] == 2}
    by_threads = defaultdict(float)
    for s in mc:
        if s.info["paths"] in paired:
            by_threads[s.info["threads"]] += s.seconds
    solves = by_name["solver.solve_tree"] + mc
    parse = [s for s in setup_spans if s.name == "expressions.parse"]

    m = {
        "expressions.calls": len(calls) / passes,
        "expressions.scalar_calls": sum(1 for s in calls if s.elements == 0) / passes,
        "expressions.elements": sum(max(1, s.elements) for s in calls) / passes,
        "expressions.us_per_call": _ratio(sum(s.seconds for s in small), len(small)) * 1e6,
        "expressions.ns_per_element": _ratio(sum(s.seconds for s in large),
                                             sum(s.elements for s in large)) * 1e9,
        "expressions.parse_s": sum(s.seconds for s in parse) + total("expressions.parse") / passes,
        "solver.tree.explicit_us_per_level": _ratio(*levels("explicit")) * 1e6,
        "solver.tree.implicit_us_per_level": _ratio(*levels("implicit")) * 1e6,
        "solver.picard_max_iterations": max(
            [s.info.get("picard", 0) for s in solves if s.info] or [0]),
        "solver.mc.ms_per_step": _ratio(sum(s.seconds for s in mc) - total("solver.ensemble"),
                                        mc_steps) * 1e3,
        "solver.mc.ensemble_s": sum(s.seconds for s in ensembles) / passes,
        "solver.mc.threads_ratio": _ratio(by_threads[2], by_threads[1]),
        "solver.mc.cond_max": max([s.info.get("cond_max", 0.0) for s in mc] or [0.0]),
        "envelopes.supconv.points": len(by_name["envelopes.supconv.value_at"]) / passes,
        "envelopes.supconv.ms_per_point": _ratio(total("envelopes.supconv.value_at"),
                                                 len(by_name["envelopes.supconv.value_at"])) * 1e3,
        "envelopes.supconv.expr_calls_per_point": _ratio(
            inside["envelopes.supconv.value_at"][0], len(by_name["envelopes.supconv.value_at"])),
        "envelopes.lipschitz.batch_calls": len(by_name["envelopes.lipschitz.batch"]) / passes,
        "envelopes.lipschitz.ms_per_batch": _ratio(total("envelopes.lipschitz.batch"),
                                                   len(by_name["envelopes.lipschitz.batch"])) * 1e3,
        "ode_bounds.sweeps": len(by_name["ode_bounds.solve_growth_ode"]) / passes,
        "ode_bounds.ms_per_sweep": _ratio(total("ode_bounds.solve_growth_ode"),
                                          len(by_name["ode_bounds.solve_growth_ode"])) * 1e3,
        "ode_bounds.expr_calls_per_sweep": _ratio(inside["ode_bounds.solve_growth_ode"][0],
                                                  len(by_name["ode_bounds.solve_growth_ode"])),
        "ode_bounds.bihari_iterations": sum(
            s.info["iterations"] for s in by_name["ode_bounds.bihari_sequence"] if s.info) / passes,
        "certificates.checks": len(by_name["certificates.check_certificate"]) / passes,
        "certificates.ms_per_check": _ratio(total("certificates.check_certificate"),
                                            len(by_name["certificates.check_certificate"])) * 1e3,
        "certificates.elements_per_check": _ratio(inside["certificates.check_certificate"][1],
                                                  len(by_name["certificates.check_certificate"])),
        "config.load_ms": _ratio(total("config.load_config"),
                                 len(by_name["config.load_config"])) * 1e3,
    }
    self_by_layer = defaultdict(float)
    for s in spans:
        if s.thread == main_thread:
            self_by_layer[s.layer] += own[id(s)]
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = self_by_layer[layer] / passes
    m.update(extra)
    return {name: {"value": float(m.get(name, 0.0)), "unit": unit}
            for name, unit in METRICS.items()}


def job_accounting(spans, main_thread):
    """Per job: traced wall (its ``bench.job`` span) and the self times on its thread."""
    own = self_seconds(spans)
    out = {}
    for s in spans:
        if s.name == "bench.job":
            out.setdefault(s.job, [0.0, 0.0])[0] += s.seconds
        if s.thread == main_thread:
            out.setdefault(s.job, [0.0, 0.0])[1] += own[id(s)]
    return out
