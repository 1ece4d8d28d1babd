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
import itertools
import json
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from importlib import resources
from typing import Literal

import numpy as np

from . import __version__
from .certificates import OneSidedSuperLinear, SampleGrid, check_certificate
from .config import (
    CheckConfig,
    ConfigError,
    ModelConfig,
    RunConfig,
    bind,
    load_config,
    parse_generator,
    parse_terminal,
    require,
)
from .envelopes import EnvelopeGrid, LinearGrowthBound, sup_convolution_generator
from .expressions import Expression
from .generators import Generator, TerminalCondition, WeightFn
from .ode_bounds import BlowUpError, TimeGrid, sandwich_envelope
from .report import VerificationReport, at_samples, worst_gap
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


def _solution_rows(sol):
    tree = sol.backend == "tree"
    weights = TreeModel(sol.grid).level_weights() if tree else itertools.repeat(None)

    def mean(w, values):
        return float(np.sum(w * np.asarray(values)) if tree else np.mean(values))

    rows = []
    for t, row, z, w in zip(sol.grid.nodes, map(np.asarray, sol.y), sol.z + (None,), weights):
        z_mean = None if z is None else mean(w, z)
        rows.append((float(t), mean(w, row), float(np.min(row)), float(np.max(row)), z_mean))
    return rows


def _bounds_envelope(model, path, *, u: Expression = None, l: Expression = None,
                     xi_bound: float = None, T: float = None, N: int = None):
    """The keys of a bounds section; returns a function that builds the ODE sandwich."""
    missing = [k for k, v in (("u", u), ("l", l), ("xi_bound", xi_bound)) if v is None]
    if missing:
        raise ConfigError(path, f"missing keys {missing}")
    T, N = model.horizon if T is None else T, model.steps if N is None else N
    require(path, ("xi_bound", np.isfinite(xi_bound) and xi_bound >= 0, "must be finite and >= 0"),
            ("T", T > 0, "must be > 0"), ("N", N >= 1, "must be >= 1"))
    return partial(sandwich_envelope, xi_bound, WeightFn.parse(u), l, TimeGrid.uniform(T, N))


def _growth_bound(*, f: Expression = "0", u: Expression = "1", v: Expression = "1"):
    """The keys of a growth section: the driver is at most f(t) + u(t)|y| + v(t)|z|."""
    return LinearGrowthBound.from_parts(f, u, v)


def _driver_envelope(generator, path, grid=None, *, growth: _growth_bound = None, n: int = 2,
                     u_w: Expression = "1", v_w: Expression = "1"):
    """Sup-convolution majorant; without a growth section the driver's certificate sizes it."""
    require(path, ("n", n >= 1, "must be >= 1"))
    return sup_convolution_generator(
        generator, n, WeightFn.parse(u_w), WeightFn.parse(v_w), grid, growth=growth
    )


def _envelope_rows(g, path, *, radius: float = 100.0, nodes: int = 2001, passes: int = 3,
                   t: float = 0.0, z: float = 0.0, y_min: float = -3.0, y_max: float = 3.0,
                   points: int = 61, **driver: _driver_envelope):
    """The keys of an envelope section; returns the sweep's rows (y, g, envelope)."""
    require(path, ("radius", 0 < radius < np.inf, "must be positive and finite"),
            ("nodes", nodes >= 3 and nodes % 2 == 1, "must be odd and >= 3"),
            ("passes", passes >= 0, "must be >= 0"), ("points", points >= 1, "must be >= 1"))
    env = _driver_envelope(g, path, EnvelopeGrid(radius, nodes, passes), **driver)
    ys = np.linspace(y_min, y_max, points)
    return list(zip(ys.tolist(), g(t, ys, z).tolist(), env(t, ys, z).tolist()))


# ---------------------------------------------------------------------------
# Check kinds
#
# Each kind is one function: its keyword-only parameters are the check's keys,
# with their types and defaults, and ``tol``'s default is the kind's default
# tolerance.  Called with the effective config, it rejects what that config
# cannot run and returns the check, which solves only when it is called.


def _solve(run):
    return _solve_with(run.model, run.generator, run.terminal)


def _closed_form(name, symbol, value, expected, tol):
    return VerificationReport.from_violation(
        name=name,
        claim=f"{symbol} matches the closed-form value {expected}",
        violation=abs(value - expected) - tol,
        location={symbol.replace("_", ""): value},
        tolerance=0.0,
    )


def _check_solver_oracle(run, *, expected: float, tol: float = 1e-2):
    return lambda: _closed_form("solver-oracle", "y_0", _solve(run).y0, expected, tol)


def _check_comparison(run, *, generator_prime: Generator, terminal_prime: TerminalCondition,
                      tol: float = 1e-6):
    return lambda: comparison_check(
        _solve(run), _solve_with(run.model, generator_prime, terminal_prime), tol
    )


def _check_premise(run, *, generator_prime: Generator, terminal_prime: TerminalCondition,
                   which: Literal["along_prime", "along_unprimed"] = "along_prime",
                   tol: float = 0.0):
    return lambda: indicator_premise_check(
        _solve(run), _solve_with(run.model, generator_prime, terminal_prime),
        run.generator, generator_prime, which, tol,
    )


def _check_dominance(run, *, generator_prime: Generator, level: float = 0.0,
                     side: Literal["below", "above"] = "below", tol: float = 0.0):
    return lambda: one_sided_dominance_check(run.generator, generator_prime, level, side, tol=tol)


def _check_sandwich(run, *, xi_bound: float = None, tol: float = 1e-3):
    cert = run.generator.certificate if run.generator is not None else None
    if not isinstance(cert, OneSidedSuperLinear):
        raise ConfigError(
            "generator.certificate", "sandwich needs a one_sided_super_linear certificate"
        )
    if xi_bound is None:
        xi_bound = run.terminal and run.terminal.bound
    if xi_bound is None:
        raise ConfigError("xi_bound", "missing, and the terminal section has no bound")
    require("", ("xi_bound", np.isfinite(xi_bound) and xi_bound >= 0, "must be finite and >= 0"))
    grid = TimeGrid.uniform(run.model.horizon, run.model.steps)
    return lambda: sandwich_check(
        _solve(run), sandwich_envelope(xi_bound, cert.u, cert.l, grid), tol
    )


def _check_monotone_family(run, *, n_list: list[float] = (1, 2, 4, 8), tol: float = 1e-9):
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list", "must be nonempty and strictly increasing")
    return lambda: monotone_family_check(
        [_solve_with(run.model, run.generator, run.terminal.truncated_above(n)) for n in n_list],
        n_list, tol,
    )


def _check_transform_residual(run, *, gamma: float = 1.0, coefficient: float = 0.05):
    if run.model.backend != "tree":
        raise ConfigError("model.backend", "transform_residual runs on tree solutions only")
    return lambda: transform_residual_check(_solve(run), run.generator, gamma, coefficient)


def _check_bounds_oracle(run, *, expected_U0: float, tol: float = 1e-5,
                         **bounds: _bounds_envelope):
    build = _bounds_envelope(run.model, "", **bounds)
    return lambda: _closed_form("bounds-oracle", "U_0", float(build().upper[0]), expected_U0, tol)


def _sample_grid(horizon, path, *, T: float = None, t_count: int = 21,
                 y_range: tuple[float, float] = (-5.0, 5.0), y_count: int = 51,
                 z_range: tuple[float, float] = (-5.0, 5.0), z_count: int = 51):
    counts = {"t_count": t_count, "y_count": y_count, "z_count": z_count}
    require(path, *((key, count >= 1, "must be >= 1") for key, count in counts.items()))
    t_range = (0.0, horizon if T is None else T)
    return SampleGrid(t_range, t_count, y_range, y_count, z_range, z_count)


def _check_certificate(run, *, grid: dict = None):
    if run.generator is None or run.generator.certificate is None:
        raise ConfigError("generator.certificate", "missing; the certificate check needs one")
    sample = _sample_grid(run.model.horizon, "grid", **bind(_sample_grid, grid or {}, "grid"))
    return lambda: check_certificate(run.generator, run.generator.certificate, sample)


def _check_uniqueness_smoke(run, *, tol: float = 5e-3):
    models = [replace(run.model, scheme=s) for s in ("explicit", "implicit")]
    return lambda: uniqueness_smoke_check(
        *(_solve_with(m, run.generator, run.terminal) for m in models), tol)


def _check_envelope_domination(run, *, points: int = 25, tol: float = 0.0,
                               **driver: _driver_envelope):
    require("", ("points", points >= 1, "must be >= 1"))
    env = _driver_envelope(run.generator, "", **driver)

    def check():
        rng = np.random.default_rng(run.model.seed)
        t, y, z = rng.uniform(-3, 3, size=(points, 3)).T
        t = np.abs(t) / 3.0 * run.model.horizon
        worst, where = worst_gap([(run.generator(t, y, z) - env(t, y, z),
                                   at_samples(t=t, y=y, z=z))])
        return VerificationReport.from_violation(
            name="envelope-domination",
            claim="the regularised driver dominates the driver pointwise",
            violation=worst,
            location=where,
            tolerance=tol,
        )

    return check


CHECKS = {
    "solver_oracle": _check_solver_oracle,
    "comparison": _check_comparison,
    "premise": _check_premise,
    "dominance": _check_dominance,
    "sandwich": _check_sandwich,
    "monotone_family": _check_monotone_family,
    "transform_residual": _check_transform_residual,
    "bounds_oracle": _check_bounds_oracle,
    "certificate": _check_certificate,
    "uniqueness_smoke": _check_uniqueness_smoke,
    "envelope_domination": _check_envelope_domination,
}

# keys every check takes besides its own: a report name and the override sections
_COMMON_KEYS = ("name", "generator", "terminal", "model")


def _effective_config(cfg: RunConfig, check: CheckConfig) -> RunConfig:
    """Per-check generator/terminal/model sections override the top level."""
    p = check.params
    model = cfg.model
    if "model" in p:
        model = ModelConfig.from_dict(p["model"], base=cfg.raw.get("model"))
        # keep CLI-applied seed/threads authoritative unless the check pins them
        kept = {k: getattr(cfg.model, k) for k in ("seed", "threads") if k not in p["model"]}
        model = replace(model, **kept)
    parsers = {"generator": parse_generator, "terminal": parse_terminal}
    sections = {key: parse(p[key], key) for key, parse in parsers.items() if key in p}
    return replace(cfg, model=model, **sections)


def _parse_check(cfg, check, tol):
    """The check ready to run: its keys parsed, its sections applied; ``tol`` overrides."""
    if check.kind not in CHECKS:
        raise ConfigError("check", f"unknown kind; know {sorted(CHECKS)}")
    fn = CHECKS[check.kind]
    params = check.params
    if check.kind == "bounds_oracle":  # keys it lacks come from the top-level bounds section
        params = {**(cfg.bounds or {}), **params}
    kwargs = bind(fn, params, "", _COMMON_KEYS)
    if tol is not None and "tol" in kwargs:
        kwargs["tol"] = tol
    return fn(_effective_config(cfg, check), **kwargs)


_REPORT_HEADER = (
    "name", "kind", "claim", "status", "expect", "outcome", "violation", "tolerance", "location",
    "notes",
)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    given = {k: getattr(args, k) for k in ("seed", "threads") if getattr(args, k) is not None}
    return replace(cfg, model=replace(cfg.model, **given))


def _cmd_solve(cfg, out_dir, args):
    if cfg.generator is None or cfg.terminal is None:
        raise ConfigError("generator/terminal", "solve needs both sections")
    sol = _solve(cfg)
    path = os.path.join(out_dir, "solution.csv")
    _write_csv(path, ("t", "y_mean", "y_min", "y_max", "z_mean"), _solution_rows(sol))
    if not args.quiet:
        print(f"y0 = {sol.y0!r}")
        print(f"wrote {path}")
    return EXIT_OK, ["solution.csv"]


def _cmd_bounds(cfg, out_dir, args):
    # a bounds oracle may keep its expected value in this section
    keys = bind(_bounds_envelope, cfg.bounds or {}, "bounds", ("expected_U0",))
    env = _bounds_envelope(cfg.model, "bounds", **keys)()
    rows = [
        (float(t), float(L), float(U))
        for t, L, U in zip(env.grid.nodes, env.lower, env.upper)
    ]
    path = os.path.join(out_dir, "bounds.csv")
    _write_csv(path, ("t", "L", "U"), rows)
    if not args.quiet:
        print(f"U0 = {env.upper[0]!r}, L0 = {env.lower[0]!r}")
        print(f"wrote {path}")
    return EXIT_OK, ["bounds.csv"]


def _cmd_envelope(cfg, out_dir, args):
    if cfg.generator is None:
        raise ConfigError("generator", "envelope needs a generator section")
    keys = bind(_envelope_rows, cfg.envelope or {}, "envelope")
    rows = _envelope_rows(cfg.generator, "envelope", **keys)
    path = os.path.join(out_dir, "envelope.csv")
    _write_csv(path, ("y", "g", "envelope"), rows)
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK, ["envelope.csv"]


def _cmd_verify(cfg, out_dir, args, per_check_files=False):
    if not cfg.checks:
        raise ConfigError("checks", "verify needs a non-empty checks list")
    runs = []  # every check is parsed before the first one runs
    for idx, check in enumerate(cfg.checks):
        try:
            runs.append(_parse_check(cfg, check, args.tol))
        except ConfigError as exc:
            path = ".".join(filter(None, (f"checks[{idx}]", exc.path)))
            raise ConfigError(path, exc.message) from exc
    rows = []
    outputs = []
    all_matched = True
    for idx, (check, run) in enumerate(zip(cfg.checks, runs)):
        report = run()
        name = check.params.get("name", report.name)
        matched = report.status == check.expect
        all_matched = all_matched and matched
        row = (name, check.kind, report.claim, report.status, check.expect,
               "ok" if matched else "MISMATCH", report.violation, report.tolerance,
               json.dumps(report.location, sort_keys=True), "; ".join(report.notes))
        rows.append(row)
        if per_check_files:
            stem = f"check_{idx:02d}_{name.replace(':', '_').replace('/', '_')}.csv"
            _write_csv(os.path.join(out_dir, stem), _REPORT_HEADER, [row])
            outputs.append(stem)
        if not args.quiet:
            mark = "ok " if matched else "FAIL"
            print(
                f"[{mark}] {name}: status={report.status} "
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
        code, outputs = SUBCOMMANDS[args.subcommand](cfg, out_dir, args)
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
