"""Tests of the benchmark itself: correctness gates, negative controls, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.import_fresh()


def only(wl, *names):
    wl.jobs = [job for job in wl.jobs if job.name in names]
    assert len(wl.jobs) == len(names)
    return wl


def one_pass(wl, index=0, tracer=None):
    return run.run_pass(wl, index, tracer)[2]


def test_closed_form_gate_passes(mods):
    (out,) = one_pass(only(run.build("bounds", mods, 3), "sandwich-n64"))
    assert out.ok and out.work == 1 and out.err < 1e-5


def test_perturbed_expected_value_is_a_failure(mods, monkeypatch):
    monkeypatch.setattr(workloads, "SANDWICH_U0", workloads.SANDWICH_U0 + 1e-3)
    (out,) = one_pass(only(run.build("bounds", mods, 3), "sandwich-n64"))
    assert not out.ok and not out.known and out.work == 0


def test_perturbed_tree_oracle_is_a_failure(mods, monkeypatch):
    monkeypatch.setattr(workloads, "TREE_STEPS", 400)
    assert one_pass(only(run.build("tree", mods, 3), "quadratic-implicit"))[0].ok
    monkeypatch.setattr(workloads, "QUADRATIC_ORACLE", workloads.QUADRATIC_ORACLE + 0.01)
    (out,) = one_pass(only(run.build("tree", mods, 3), "quadratic-implicit"))
    assert not out.ok and not out.known


def test_wrong_expected_outcome_is_a_failure(mods, monkeypatch):
    wl = only(run.build("bounds", mods, 3), "certificate-fail")
    job = wl.jobs[0]
    # the driver that must fail the certificate is swapped for the one that passes it
    passing = mods.generators.Generator.parse(workloads.SUPER_LINEAR)
    cert = mods.certificates.OneSidedSuperLinear(
        mods.generators.WeightFn.parse("1"), "1 + abs(y)", "1")
    grid = mods.certificates.SampleGrid(y_count=101, z_count=101)
    job.call = lambda: mods.certificates.check_certificate(passing, cert, grid)
    (out,) = one_pass(wl)
    assert not out.ok and not out.known


def test_known_defect_is_failed_but_known(mods):
    (out,) = one_pass(only(run.build("tree", mods, 3), "picard-cubic-n10"))
    assert not out.ok and out.known and "PicardDivergenceError" in out.detail


def test_unlisted_exception_is_not_known(mods):
    wl = workloads.Workload("x", [workloads.Job("boom", lambda: 1 / 0, None)], "jobs")
    (out,) = one_pass(wl)
    assert not out.ok and not out.known


def test_thread_mismatch_is_a_failure(mods, monkeypatch):
    monkeypatch.setattr(workloads, "MC_BIG_PATHS", 2000)
    wl = run.build("mc", mods, 3)
    t1, t2 = wl.jobs[0], wl.jobs[1]
    sol = t1.call()
    assert t1.check(sol, wl.state).ok and t2.check(t2.call(), wl.state).ok
    other = mods.solver.solve_mc_regression(
        mods.generators.Generator.parse(workloads.SUPER_LINEAR),
        mods.generators.TerminalCondition.parse("sin(w)"), 50, 2000, 3, 12345)
    t1.check(sol, wl.state)
    assert not t2.check(other, wl.state).ok


def test_suite_rows_and_reproducibility(mods):
    wl = run.build("suite", mods, 3)
    first = one_pass(wl, 0)
    assert len(first) == len(wl.checks) == 15
    assert all(o.ok or o.known for o in first)
    assert sum(o.known for o in first) == 9  # rows with unquoted commas
    run.setup_sample("suite", 3)  # a set-up sample between passes must not disturb the run
    second = one_pass(wl, 1)  # --threads 2, compared byte for byte with the first
    assert [o.ok for o in second] == [o.ok for o in first]
    wl.state["reference"]["reports.csv"] += b"x"
    third = one_pass(wl, 0)
    assert not any(o.ok or o.known for o in third)


def test_traced_pass_accounts_for_wall_time(mods):
    wl = only(run.build("bounds", mods, 3), "sandwich-n64", "certificate-pass", "lipschitz-sqrt")
    tracer = Tracer()
    tracer.patch(mods)
    try:
        outs = one_pass(wl, 1, tracer)
    finally:
        tracer.unpatch()
    assert all(o.ok for o in outs)
    names = {s.name for s in tracer.spans}
    assert {"expressions.call", "ode_bounds.solve_growth_ode",
            "certificates.check_certificate", "envelopes.lipschitz.batch"} <= names
    accounting = layers.job_accounting(tracer.spans, tracer.main_thread)
    assert set(accounting) == {job.name for job in wl.jobs}
    for traced, self_sum in accounting.values():
        assert self_sum == pytest.approx(traced, rel=1e-9)
    metrics = layers.layer_metrics([tracer.spans], [], tracer.main_thread, {})
    assert set(metrics) == set(layers.METRICS)
    assert metrics["ode_bounds.sweeps"]["value"] == 2
    assert metrics["certificates.checks"]["value"] == 1


def test_unpatch_restores_every_callable(mods):
    before = (mods.solver.solve_tree, mods.cli.solve_tree, mods.verify.solve_tree,
              mods.expressions.Expression.__call__, mods.solver.PathEnsemble.generate,
              mods.envelopes.LipschitzEnvelope.batch)
    tracer = Tracer()
    tracer.patch(mods)
    assert mods.cli.solve_tree is not before[1]
    tracer.unpatch()
    after = (mods.solver.solve_tree, mods.cli.solve_tree, mods.verify.solve_tree,
             mods.expressions.Expression.__call__, mods.solver.PathEnsemble.generate,
             mods.envelopes.LipschitzEnvelope.batch)
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_its_region():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert probe.seconds >= 0.1 and len(probe.samples) >= 5
    assert 0.0 < probe.overhead_s < 0.1 * probe.seconds
    assert probe.scaled == pytest.approx((probe.seconds - probe.overhead_s) / probe.slowdown)
    with speed.SpeedProbe() as short:  # too short for a tick: sampled after it ends
        pass
    assert short.overhead_s == 0.0 and len(short.samples) == speed.MIN_SAMPLES
