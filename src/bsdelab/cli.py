"""Config-driven experiment runner.

Subcommands::

    bsdelab solve    --config cfg.json --out DIR    backward solve, CSV of t, y_mean, y_min, y_max, z_mean
    bsdelab bounds   --config cfg.json --out DIR    backward ODE bounds, CSV of t, L, U
    bsdelab envelope --config cfg.json --out DIR    driver regularisation sweep, CSV of y, g, envelope
    bsdelab verify   --config cfg.json --out DIR    run the config's checks, reports.csv
    bsdelab suite    [--config cfg.json] --out DIR  run a check suite (default: shipped), one CSV per check

Every run writes a ``run_manifest.json`` embedding the full config, its
SHA-256, the effective seed and library versions; re-running the manifest's
config with the same seed reproduces all CSV artifacts byte for byte.  Exit
codes: 0 all requested checks pass, 1 check failure, 2 config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .certificates import SampleGrid, check_certificate
from .config import (
    CheckConfig,
    ConfigError,
    ModelConfig,
    RunConfig,
    load_config,
    number,
    numbers,
    parse_generator,
    parse_terminal,
)
from .envelopes import EnvelopeGrid, LinearGrowthBound, sup_convolution_generator
from .generators import WeightFn
from .ode_bounds import BlowUpError, TimeGrid, sandwich_envelope
from .report import VerificationReport
from .solver import TreeModel, solve_mc_regression, solve_tree
from .verify import (
    comparison_check,
    indicator_premise_check,
    monotone_family_check,
    one_sided_dominance_check,
    sandwich_check,
    transform_residual_check,
    uniqueness_smoke_check,
)

OUT_DIR_ENV = "BSDELAB_OUT"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, text.getvalue())


def _write_manifest(out_dir, cfg_raw, seed, outputs, command):
    canonical = json.dumps(cfg_raw, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config": cfg_raw,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "versions": {
            "bsdelab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": sorted(outputs),
    }
    _atomic_write(
        os.path.join(out_dir, "run_manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def _solve_with(model: ModelConfig, generator, terminal):
    if model.backend == "tree":
        return solve_tree(
            generator,
            terminal,
            model.steps,
            model.horizon,
            model.scheme,
            z_clamp=model.z_clamp,
            threads=model.threads,
        )
    return solve_mc_regression(
        generator,
        terminal,
        model.steps,
        model.paths,
        model.basis_degree,
        model.seed,
        model.horizon,
        model.scheme,
        z_clamp=model.z_clamp,
        threads=model.threads,
    )


def _solver(model: ModelConfig):
    """``solve(g, xi, scheme)`` on the configured backend, as the verify checks take it."""
    return lambda g, xi, scheme: _solve_with(replace(model, scheme=scheme), g, xi)


def _solution_rows(sol):
    tree = TreeModel(sol.grid) if sol.backend == "tree" else None

    def mean(i, values):
        if tree is None:
            return float(np.mean(values))
        return float(np.sum(tree.level_probabilities(i) * np.asarray(values)))

    rows = []
    for i, t in enumerate(sol.grid.nodes):
        row = np.asarray(sol.y[i])
        z_mean = mean(i, sol.z[i]) if i < sol.grid.steps else None
        rows.append((float(t), mean(i, row), float(np.min(row)), float(np.max(row)), z_mean))
    return rows


def _bounds_envelope(section, model, path):
    """Backward-ODE sandwich from a section with u, l, xi_bound and optional T, N."""
    needed = [k for k in ("u", "l", "xi_bound") if k not in section]
    if needed:
        raise ConfigError(path, f"missing keys {needed}")
    grid = TimeGrid.uniform(
        number(section, "T", path, float, model.horizon),
        number(section, "N", path, int, model.steps),
    )
    return sandwich_envelope(
        number(section, "xi_bound", path), WeightFn.parse(section["u"]), section["l"], grid
    )


def _driver_envelope(generator, section, path, grid=None):
    """Sup-convolution majorant; without a growth section the driver's certificate sizes it."""
    growth_section = section.get("growth")
    growth = None
    if growth_section:
        growth = LinearGrowthBound.from_parts(
            growth_section.get("f", "0"), growth_section.get("u", "1"), growth_section.get("v", "1")
        )
    return sup_convolution_generator(
        generator,
        number(section, "n", path, int, 2),
        WeightFn.parse(section.get("u_w", "1")),
        WeightFn.parse(section.get("v_w", "1")),
        grid,
        growth=growth,
    )


# ---------------------------------------------------------------------------
# Check registry


def _check_solver_oracle(cfg, check, tol):
    expected = number(check.params, "expected", "")
    sol = _solve_with(cfg.model, cfg.generator, cfg.terminal)
    gap = abs(sol.y0 - expected)
    return VerificationReport.from_violation(
        name=check.params.get("name", "solver-oracle"),
        claim=f"y_0 matches the closed-form value {expected}",
        violation=gap - tol,
        location={"y0": sol.y0},
        tolerance=0.0,
    )


def _check_comparison(cfg, check, tol):
    sol = _solve_with(cfg.model, cfg.generator, cfg.terminal)
    sol_p = _solve_with(
        cfg.model,
        parse_generator(check.params.get("generator_prime"), "generator_prime"),
        parse_terminal(check.params.get("terminal_prime"), "terminal_prime"),
    )
    return comparison_check(sol, sol_p, tol, name=check.params.get("name", "comparison"))


def _check_premise(cfg, check, tol):
    g_p = parse_generator(check.params.get("generator_prime"), "generator_prime")
    sol = _solve_with(cfg.model, cfg.generator, cfg.terminal)
    sol_p = _solve_with(
        cfg.model, g_p, parse_terminal(check.params.get("terminal_prime"), "terminal_prime")
    )
    return indicator_premise_check(
        sol, sol_p, cfg.generator, g_p, check.params.get("which", "along_prime"), tol
    )


def _check_dominance(cfg, check, tol):
    g_p = parse_generator(check.params.get("generator_prime"), "generator_prime")
    return one_sided_dominance_check(
        cfg.generator,
        g_p,
        number(check.params, "level", "", float, 0.0),
        check.params.get("side", "below"),
        tol=tol,
    )


def _check_sandwich(cfg, check, tol):
    from .certificates import OneSidedSuperLinear

    cert = cfg.generator.certificate if cfg.generator is not None else None
    if not isinstance(cert, OneSidedSuperLinear):
        raise ConfigError(
            "generator.certificate", "sandwich needs a one_sided_super_linear certificate"
        )
    xi_bound = number(check.params, "xi_bound", "", float, cfg.terminal and cfg.terminal.bound)
    if xi_bound is None:
        raise ConfigError("xi_bound", "missing, and the terminal section has no bound")
    grid = TimeGrid.uniform(cfg.model.horizon, cfg.model.steps)
    env = sandwich_envelope(xi_bound, cert.u, cert.l, grid)
    sol = _solve_with(cfg.model, cfg.generator, cfg.terminal)
    return sandwich_check(sol, env, tol)


def _check_monotone_family(cfg, check, tol):
    return monotone_family_check(
        cfg.generator,
        cfg.terminal,
        numbers(check.params, "n_list", "", float, [1, 2, 4, 8]),
        cfg.model.steps,
        cfg.model.horizon,
        cfg.model.scheme,
        tol=tol,
        solve=_solver(cfg.model),
    )


def _check_transform_residual(cfg, check, tol):
    sol = _solve_with(cfg.model, cfg.generator, cfg.terminal)
    return transform_residual_check(
        sol,
        cfg.generator,
        number(check.params, "gamma", "", float, 1.0),
        residual_coefficient=number(check.params, "coefficient", "", float, 0.05),
    )


def _check_bounds_oracle(cfg, check, tol):
    section = {**(cfg.bounds or {}), **check.params}
    expected = number(section, "expected_U0", "")
    env = _bounds_envelope(section, cfg.model, "")
    gap = abs(float(env.upper[0]) - expected)
    return VerificationReport.from_violation(
        name=check.params.get("name", "bounds-oracle"),
        claim=f"U_0 matches the closed-form value {expected}",
        violation=gap - tol,
        location={"U0": float(env.upper[0])},
        tolerance=0.0,
    )


def _check_certificate(cfg, check, tol):
    if cfg.generator is None or cfg.generator.certificate is None:
        raise ConfigError("generator.certificate", "missing; the certificate check needs one")
    grid_params = check.params.get("grid", {})
    grid = SampleGrid(
        t_range=(0.0, number(grid_params, "T", "grid", float, cfg.model.horizon)),
        t_count=number(grid_params, "t_count", "grid", int, 21),
        y_range=tuple(numbers(grid_params, "y_range", "grid", float, (-5.0, 5.0), 2)),
        y_count=number(grid_params, "y_count", "grid", int, 51),
        z_range=tuple(numbers(grid_params, "z_range", "grid", float, (-5.0, 5.0), 2)),
        z_count=number(grid_params, "z_count", "grid", int, 51),
    )
    return check_certificate(cfg.generator, cfg.generator.certificate, grid)


def _check_uniqueness(cfg, check, tol):
    return uniqueness_smoke_check(
        cfg.generator, cfg.terminal, cfg.model.steps, cfg.model.horizon, tol, _solver(cfg.model)
    )


def _check_envelope_domination(cfg, check, tol):
    env = _driver_envelope(cfg.generator, check.params, "")
    rng = np.random.default_rng(cfg.model.seed)
    pts = rng.uniform(-3, 3, size=(number(check.params, "points", "", int, 25), 3))
    pts[:, 0] = np.abs(pts[:, 0]) / 3.0 * cfg.model.horizon
    worst = -np.inf
    where = {}
    for t, y, z in pts:
        gap = float(cfg.generator(t, y, z)) - env(t, y, z)
        if gap > worst:
            worst = gap
            where = {"t": float(t), "y": float(y), "z": float(z)}
    return VerificationReport.from_violation(
        name="envelope-domination",
        claim="the regularised driver dominates the driver pointwise",
        violation=worst,
        location=where,
        tolerance=tol,
    )


CHECKS = {
    "solver_oracle": (_check_solver_oracle, 1e-2),
    "comparison": (_check_comparison, 1e-6),
    "premise": (_check_premise, 0.0),
    "dominance": (_check_dominance, 0.0),
    "sandwich": (_check_sandwich, 1e-3),
    "monotone_family": (_check_monotone_family, 1e-9),
    "transform_residual": (_check_transform_residual, 0.0),
    "bounds_oracle": (_check_bounds_oracle, 1e-5),
    "certificate": (_check_certificate, 0.0),
    "uniqueness_smoke": (_check_uniqueness, 5e-3),
    "envelope_domination": (_check_envelope_domination, 0.0),
}


def _effective_config(cfg: RunConfig, check: CheckConfig) -> RunConfig:
    """Per-check generator/terminal/model sections override the top level."""
    p = check.params
    if not any(k in p for k in ("generator", "terminal", "model")):
        return cfg
    raw = dict(cfg.raw)
    if "generator" in p:
        raw["generator"] = p["generator"]
    if "terminal" in p:
        raw["terminal"] = p["terminal"]
    if "model" in p:
        raw["model"] = {**cfg.raw.get("model", {}), **p["model"]}
    eff = RunConfig.from_dict(raw)
    # keep CLI-applied seed/threads authoritative unless the check pins them
    pinned = p.get("model", {})
    kept = {k: getattr(cfg.model, k) for k in ("seed", "threads") if k not in pinned}
    return replace(eff, model=replace(eff.model, **kept), checks=(), raw=cfg.raw)


def _report_row(check, report):
    matched = report.status == check.expect
    return (
        check.params.get("name", report.name),
        check.kind,
        report.claim,
        report.status,
        check.expect,
        "ok" if matched else "MISMATCH",
        report.violation,
        report.tolerance,
        json.dumps(report.location, sort_keys=True),
        "; ".join(report.notes),
    )


_REPORT_HEADER = (
    "name",
    "kind",
    "claim",
    "status",
    "expect",
    "outcome",
    "violation",
    "tolerance",
    "location",
    "notes",
)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    model = cfg.model
    if args.seed is not None:
        model = replace(model, seed=int(args.seed))
    if args.threads is not None:
        model = replace(model, threads=int(args.threads))
    checks = cfg.checks
    if args.tol is not None:
        checks = tuple(replace(c, tol=float(args.tol)) for c in checks)
    return replace(cfg, model=model, checks=checks)


def _cmd_solve(cfg, out_dir, quiet):
    if cfg.generator is None or cfg.terminal is None:
        raise ConfigError("generator/terminal", "solve needs both sections")
    sol = _solve_with(cfg.model, cfg.generator, cfg.terminal)
    path = os.path.join(out_dir, "solution.csv")
    _write_csv(path, ("t", "y_mean", "y_min", "y_max", "z_mean"), _solution_rows(sol))
    if not quiet:
        print(f"y0 = {sol.y0!r}")
        print(f"wrote {path}")
    return EXIT_OK, ["solution.csv"]


def _cmd_bounds(cfg, out_dir, quiet):
    env = _bounds_envelope(cfg.bounds or {}, cfg.model, "bounds")
    rows = [
        (float(t), float(L), float(U))
        for t, L, U in zip(env.grid.nodes, env.lower, env.upper)
    ]
    path = os.path.join(out_dir, "bounds.csv")
    _write_csv(path, ("t", "L", "U"), rows)
    if not quiet:
        print(f"U0 = {env.upper[0]!r}, L0 = {env.lower[0]!r}")
        print(f"wrote {path}")
    return EXIT_OK, ["bounds.csv"]


def _cmd_envelope(cfg, out_dir, quiet):
    section = cfg.envelope or {}
    if cfg.generator is None:
        raise ConfigError("generator", "envelope needs a generator section")
    env = _driver_envelope(
        cfg.generator,
        section,
        "envelope",
        EnvelopeGrid(
            radius=number(section, "radius", "envelope", float, 100.0),
            nodes=number(section, "nodes", "envelope", int, 2001),
            passes=number(section, "passes", "envelope", int, 3),
        ),
    )
    t0 = number(section, "t", "envelope", float, 0.0)
    z0 = number(section, "z", "envelope", float, 0.0)
    ys = np.linspace(
        number(section, "y_min", "envelope", float, -3.0),
        number(section, "y_max", "envelope", float, 3.0),
        number(section, "points", "envelope", int, 61),
    )
    rows = [
        (float(y), float(cfg.generator(t0, y, z0)), env(t0, float(y), z0)) for y in ys
    ]
    path = os.path.join(out_dir, "envelope.csv")
    _write_csv(path, ("y", "g", "envelope"), rows)
    if not quiet:
        print(f"wrote {path}")
    return EXIT_OK, ["envelope.csv"]


def _cmd_verify(cfg, out_dir, quiet, per_check_files=False):
    if not cfg.checks:
        raise ConfigError("checks", "verify needs a non-empty checks list")
    rows = []
    outputs = []
    all_matched = True
    for idx, check in enumerate(cfg.checks):
        if check.kind not in CHECKS:
            raise ConfigError(f"checks[{idx}].check", f"unknown kind; know {sorted(CHECKS)}")
        fn, default_tol = CHECKS[check.kind]
        tol = check.tol if check.tol is not None else default_tol
        try:
            report = fn(_effective_config(cfg, check), check, tol)
        except ConfigError as exc:
            path = ".".join(filter(None, (f"checks[{idx}]", exc.path)))
            raise ConfigError(path, exc.message) from exc
        row = _report_row(check, report)
        rows.append(row)
        matched = report.status == check.expect
        all_matched = all_matched and matched
        if per_check_files:
            label = check.params.get("name", report.name)
            stem = f"check_{idx:02d}_{label.replace(':', '_').replace('/', '_')}.csv"
            _write_csv(os.path.join(out_dir, stem), _REPORT_HEADER, [row])
            outputs.append(stem)
        if not quiet:
            mark = "ok " if matched else "FAIL"
            print(
                f"[{mark}] {check.params.get('name', report.name)}: status={report.status} "
                f"expected={check.expect} violation={report.violation:.3g}"
            )
    _write_csv(os.path.join(out_dir, "reports.csv"), _REPORT_HEADER, rows)
    outputs.append("reports.csv")
    return (EXIT_OK if all_matched else EXIT_CHECK_FAILED), outputs


SUBCOMMANDS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "envelope": _cmd_envelope,
    "verify": _cmd_verify,
    "suite": partial(_cmd_verify, per_check_files=True),
}


def default_suite_path():
    return resources.files("bsdelab").joinpath("configs/acceptance_suite.json")


def build_parser():
    parser = argparse.ArgumentParser(prog="bsdelab", description=__doc__.split("\n")[0])
    parser.add_argument("subcommand", choices=tuple(SUBCOMMANDS))
    parser.add_argument("--config", help="path to the JSON run config")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override model.seed")
    parser.add_argument("--threads", type=int, default=None, help="override model.threads")
    parser.add_argument("--tol", type=float, default=None, help="override every check tolerance")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.subcommand == "suite":
            with resources.as_file(default_suite_path()) as path:
                cfg = load_config(path)
        else:
            raise ConfigError("--config", "required for this subcommand")
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    os.makedirs(out_dir, exist_ok=True)
    try:
        code, outputs = SUBCOMMANDS[args.subcommand](cfg, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BlowUpError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except Exception as exc:  # noqa: BLE001 - map to the documented exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    _write_manifest(out_dir, cfg.raw, cfg.model.seed, outputs, args.subcommand)
    return code


if __name__ == "__main__":
    sys.exit(main())
