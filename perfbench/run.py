#!/usr/bin/env python3
"""bsdelab benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --micro expr_call_200      # or --micro all

One client runs a workload's jobs back to back (a closed loop), pass after
pass, for ``--seconds``.  The seed sets every random input.  Every job's
result is checked against a closed form or an expected outcome.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics.  See README.md for every metric.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
import micro
from speed import SpeedProbe
from tracer import Tracer, dump
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
MIN_PASSES = 3
MODULES = ("expressions", "generators", "solver", "envelopes", "ode_bounds", "certificates",
           "verify", "transforms", "config", "cli")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "ok_frac": "ratio",
    "oracle_err": "abs",
    "peak_rss_mb": "MB",
}


def import_fresh():
    """Import bsdelab from this checkout's ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "bsdelab" or n.startswith("bsdelab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(package=importlib.import_module("bsdelab"),
                           **{m: importlib.import_module(f"bsdelab.{m}") for m in MODULES})
    where = Path(mods.package.__file__).resolve().parent
    if where != SRC / "bsdelab":
        raise ImportError(f"bsdelab imported from {where}, not from {SRC}")
    return mods


def build(name, mods, seed):
    return WORKLOADS[name](mods, np.random.default_rng(seed), OUT)


def setup(name, seed):
    """Import, parse and generate inputs.

    Returns the modules, the workload, and the seconds it took as measured
    and at the reference speed (see speed.py).
    """
    with SpeedProbe() as probe:
        mods = import_fresh()
        wl = build(name, mods, seed)
    return mods, wl, probe.seconds, probe.scaled


def setup_sample(name, seed):
    """(seconds, scaled seconds) of one more set-up, leaving the running modules in place."""
    live = {n: m for n, m in sys.modules.items() if n == "bsdelab" or n.startswith("bsdelab.")}
    try:
        return setup(name, seed)[2:]
    finally:
        sys.modules.update(live)


def run_pass(wl, index, tracer=None):
    """One pass over the jobs.

    Each job runs under a speed probe.  Returns (seconds at the reference
    speed, per-job seconds at that speed, outcomes, seconds as measured);
    see speed.py.
    """
    wl.before_pass(index)
    outcomes, job_seconds, raw = [], {}, 0.0
    try:
        for job in wl.jobs:
            exc = result = None
            probe = SpeedProbe()
            try:
                with probe:
                    if tracer is None:
                        result = job.call()
                    else:
                        tracer.job = job.name
                        with tracer.span("bench.job"):
                            result = job.call()
            except Exception as err:  # noqa: BLE001 - every failure is counted, not raised
                exc = err
            raw += probe.seconds
            job_seconds[job.name] = probe.scaled
            if exc is None:
                try:
                    got = job.check(result, wl.state)
                except Exception as err:  # noqa: BLE001
                    got = Outcome(job.name, False, detail=f"check raised {err!r}")
                outcomes.extend(got if isinstance(got, list) else [got])
            else:
                known = bool(job.known) and isinstance(exc, job.known)
                detail = f"{type(exc).__name__}: {exc}"
                outcomes.extend(Outcome(job.name, False, 0, None, known, detail)
                                for _ in range(job.units))
    finally:
        wl.after_pass()
    return sum(job_seconds.values()), job_seconds, outcomes, raw


def measure(mods, wl, seconds, tracer, setup_times, name, seed):
    """Passes until ``seconds`` would be exceeded; with a tracer, every other pass is traced.

    After each pass one more set-up is timed, so that set-up samples spread
    over the run like the passes do.
    """
    plain, traced, pass_spans = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        use = tracer if tracer is not None and index % 2 == 1 else None
        if use is not None:
            tracer.spans = []
            tracer.patch(mods)
            # the cyclic collector would walk the growing span list again and again
            gc.disable()
        try:
            record = run_pass(wl, index, use)
        finally:
            if use is not None:
                tracer.unpatch()
                gc.enable()
        (traced if use is not None else plain).append(record)
        if use is not None:
            pass_spans.append(tracer.spans)
        setup_times.append(setup_sample(name, seed))
        index += 1
        elapsed = time.perf_counter() - start
        typical = (statistics.median(r[3] for r in plain + traced)
                   + statistics.median(t[0] for t in setup_times))
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= 2)
        if enough and elapsed + typical > seconds:
            return plain, traced, pass_spans


def summarize(plain, traced):
    outcomes = [o for rec in plain + traced for o in rec[2]]
    failed = [o for o in outcomes if not o.ok]
    errs = [o.err for rec in plain for o in rec[2] if o.err is not None]
    return outcomes, failed, {
        "wall_s": statistics.median(r[0] for r in plain),
        "work_per_s": statistics.median(sum(o.work for o in r[2]) / r[0] for r in plain),
        "ok_frac": sum(o.ok for r in plain for o in r[2]) / sum(len(r[2]) for r in plain),
        "oracle_err": max(errs) if errs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "bsdelab").glob("*.py")))


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(),
    }


def run_workload(args):
    OUT.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPS):
        mods, wl, *seconds = setup(args.workload, args.seed)
        setup_times.append(seconds)
    tracer = setup_spans = None
    if args.trace:
        tracer = Tracer()
        tracer.job = "setup"
        tracer.patch(mods)
        try:
            wl = build(args.workload, mods, args.seed)
        finally:
            tracer.unpatch()
        setup_spans = tracer.spans
    plain, traced, pass_spans = measure(mods, wl, args.seconds, tracer, setup_times,
                                        args.workload, args.seed)
    outcomes, failed, e2e = summarize(plain, traced)
    e2e["setup_s"] = statistics.median(t[1] for t in setup_times)
    unexpected = [o for o in failed if not o.known]
    report = {
        "meta": metadata(args),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "work_unit": wl.work_unit,
        "pass_seconds": [r[0] for r in plain],
        "pass_seconds_measured": [r[3] for r in plain],
        "setup_seconds": [t[1] for t in setup_times],
        "setup_seconds_measured": [t[0] for t in setup_times],
        "job_seconds": {name: [r[1][name] for r in plain] for name in plain[0][1]},
        "failed": sorted({f"{o.name}: {o.detail}" + (" (known defect)" if o.known else "")
                          for o in failed}),
        "end_to_end": e2e,
    }
    if args.trace:
        extra = micro.numpy_ratios(mods)
        extra["cli.bytes_written"] = wl.state.get("bytes_written", 0)
        extra["trace.overhead_frac"] = (statistics.median(r[0] for r in traced)
                                        / statistics.median(r[0] for r in plain) - 1.0)
        metrics = layers.layer_metrics(pass_spans, setup_spans, tracer.main_thread, extra)
        spans = [s for group in pass_spans for s in group]
        accounting = layers.job_accounting(spans, tracer.main_thread)
        report["accounting"] = {job: {"traced_s": w, "self_sum_s": s}
                                for job, (w, s) in accounting.items()}
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        dump(setup_spans + pass_spans[-1], span_file)
        report["spans_file"] = f"{span_file.relative_to(ROOT)} (set-up and last traced pass)"
        report["per_layer"] = metrics
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"meta": report["meta"], "failed_jobs": report["failed"]}))
    return {"correct": not unexpected, "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics}


def run_all(args):
    """Each workload in a child process of its own, so that peak memory is its alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name} {json.dumps(result)}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def run_micro(name):
    mods = import_fresh()
    names = list(micro.ROWS) if name == "all" else [name]
    for row in names:
        values = micro.ROWS[row](mods)
        print(row, " ".join(f"{k}={micro.fmt(v)}" for k, v in values.items()), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--micro", choices=[*micro.ROWS, "all"],
                        help="run baseline-table rows instead of a workload")
    args = parser.parse_args(argv)
    if (args.micro is None) == (args.workload is None):
        parser.error("give exactly one of --workload and --micro")
    try:
        if args.micro is not None:
            run_micro(args.micro)
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except ImportError as exc:
        print(f"cannot import bsdelab from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
