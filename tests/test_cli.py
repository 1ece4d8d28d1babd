import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from bsdelab import cli
from bsdelab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    OUT_DIR_ENV,
    _solve_with,
    default_suite_path,
    main,
)
from bsdelab.config import load_config
from bsdelab.solver import solve_tree_stack
from tests.oracles import solution_rows_reference


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR

    def test_bad_expression_reports_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"model": {"N": 10}, "generator": {"expr": "1 +"}, "terminal": {"expr": "w"}},
        )
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "generator.expr" in capsys.readouterr().err

    def test_bad_backend(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"backend": "abacus"}})
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert "model.backend" in capsys.readouterr().err

    def test_config_required(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"model": {"N": "abc"}}, "model.N"),
            ({"terminal": {"expr": "w", "bound": "abc"}}, "terminal.bound"),
            ({"terminal": {"expr": "w", "bound": -1}}, "terminal.bound"),
            # an integer key takes no fraction and no boolean; a float key no boolean
            ({"model": {"N": 2.7}}, "model.N: expected int, got 2.7"),
            ({"model": {"N": True}}, "model.N: expected int, got True"),
            ({"model": {"seed": 3.9}}, "model.seed: expected int, got 3.9"),
            ({"model": {"backend": "mc-regression", "paths": 20000.5}},
             "model.paths: expected int, got 20000.5"),
            ({"model": {"backend": "mc-regression", "basis_degree": 3.7}},
             "model.basis_degree: expected int, got 3.7"),
            ({"model": {"T": False}}, "model.T: expected float, got False"),
            ({"model": {"N": math.inf}}, "model.N: expected int, got inf"),
            ({"checks": [{"check": "monotone_family", "n_list": [1, True]}]},
             "checks[0].n_list[1]: expected float, got True"),
            # a NaN compares false with every bound, so it would pass every check
            ({"checks": [{"check": "solver_oracle", "expected": 5.0, "tol": math.nan}]},
             "checks[0].tol: must not be NaN"),
            ({"checks": [{"check": "solver_oracle", "expected": math.nan}]},
             "checks[0].expected: must not be NaN"),
            ({"checks": [{"check": "monotone_family", "n_list": [1, math.nan]}]},
             "checks[0].n_list[1]: must not be NaN"),
            ({"model": {"T": math.nan}}, "model.T: must not be NaN"),
            ({"model": {"N": math.nan}}, "model.N: expected int, got nan"),
            ({"terminal": {"expr": "w", "bound": 1e309}},
             "terminal.bound: must be finite and >= 0"),
            # an integer too large for a float once escaped main as a traceback
            ({"model": {"T": 10**400}}, "model.T: expected float, got 1000"),
        ],
    )
    def test_bad_number_reports_path(self, tmp_path, capsys, payload, where):
        cfg = write_config(
            tmp_path, {"generator": {"expr": "0"}, "terminal": {"expr": "w"}, **payload}
        )
        command = "verify" if "checks" in payload else "solve"  # solve reads no checks
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("payload, where", [
        ({"checks": {"check": "solver_oracle"}}, "checks: must be a list"),
        ({"checks": [3]}, "checks[0]: must be an object"),
        ({"checks": [{"check": "solver_oracle", "expected": 0.0, "expect": "maybe"}]},
         "checks[0].expect: must be 'pass' or 'fail'"),
        ({"bounds": 3}, "bounds: must be an object"),
        *(({"generator": {"expr": "0", "certificate": cert}},
           "generator.certificate: must be an object")
          for cert in ("kind", 5, ["kind"])),
        ({"generator": {"expr": "0", "certificate": {"kind": [1]}}},
         "generator.certificate.kind: must be one of ('one_sided_osgood_y', "),
        ({"generator": {"expr": 5}}, "generator.expr: must be a string"),
        ({"generator": {"expr": None}}, "generator.expr: missing"),
        ({"checks": [{"check": 5}]}, "checks[0].check: must be a string"),
        ({"checks": [{"check": "solver_oracle", "expected": 0.0, "name": None}]},
         "checks[0].name: must be a string"),
    ])
    def test_malformed_structure_reports_path(self, tmp_path, capsys, payload, where):
        cfg = write_config(tmp_path, {"generator": {"expr": "0"}, **payload})
        command = "verify" if "checks" in payload else "bounds"
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert f"config error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [1e309, -1])
    @pytest.mark.parametrize("command", ["solve", "bounds", "envelope", "verify", "suite"])
    def test_terminal_bound_is_read_by_every_command(self, tmp_path, capsys, command, bound):
        # an infinite bound was once accepted, and sandwich blamed checks[0].xi_bound for it
        cfg = write_config(tmp_path, {
            "generator": {"expr": "-y^3", "certificate": {
                "kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"}},
            "terminal": {"expr": "sin(w)", "bound": bound},
            "bounds": {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0},
            "envelope": {"growth": {"f": "0", "u": "1", "v": "0"}},
            "checks": [{"check": "sandwich"}],
        })
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == "config error: terminal.bound: must be finite and >= 0\n", err

    @pytest.mark.parametrize("certificate, where", [
        ({"kind": "one_sided_osgood_y", "u": "1", "rho": "x", "rho_growth_k": 1.0},
         "rho_growth_k: unknown key; expected one of ['u', 'rho']"),
        ({"kind": "continuity_z", "v": "1", "phi": "x", "a": 1.0, "b": 0.0},
         "a: unknown key; expected one of ['v', 'phi']"),
        ({"kind": "local_lipschitz_z", "v": {"expr": "1", "tagg": "L2"}},
         "v: cannot interpret {'expr': '1', 'tagg': 'L2'} as a one-variable function"),
        ({"kind": "sublinear_diff_z", "lambda": "1", "alpha": "abc"},
         "alpha: expected float, got 'abc'"),
        ({"kind": "sublinear_diff_z", "lambda": "1", "alpha": True},
         "alpha: expected float, got True"),
        ({"kind": "sublinear_diff_z", "lambda": "1", "alpha": None}, "alpha: missing"),
        ({"kind": "one_sided_linear", "f": "0", "u": "1", "v": "1", "side": 5},
         "side: must be one of ('sgn', 'upper_on_nonpos', 'lower_on_nonneg', 'absolute')"),
        ({"kind": "local_lipschitz_z", "v": {"tag": "L2"}}, "v: cannot interpret"),
        ({"kind": "wishful"}, "kind: must be one of ('one_sided_osgood_y', "),
        # a witness that does not parse was once reported at generator.expr
        ({"kind": "one_sided_osgood_y", "u": "1", "rho": "1 +"}, "rho: syntax error"),
    ])
    def test_bad_certificate_key_is_named(self, tmp_path, capsys, certificate, where):
        cfg = write_config(tmp_path, {"generator": {"expr": "0", "certificate": certificate},
                                      "checks": [{"check": "certificate"}]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: generator.certificate.{where}"), err

    @pytest.mark.parametrize("command, via", [
        ("suite", "--out"), ("solve", "--out"), ("suite", OUT_DIR_ENV)])
    def test_out_that_cannot_be_a_directory_is_named(self, tmp_path, capsys, monkeypatch,
                                                     command, via):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_config(tmp_path, {"generator": {"expr": "0"}, "terminal": {"expr": "w"}})
        for out in (taken, taken / "below"):
            args = [command, *(["--config", cfg] if command == "solve" else [])]
            if via == "--out":
                args += ["--out", str(out)]
            else:
                monkeypatch.setenv(OUT_DIR_ENV, str(out))
            assert main(args) == EXIT_CONFIG_ERROR
            assert f"config error: {via}: cannot be a directory" in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_manifest_that_cannot_be_written_is_a_runtime_error(self, tmp_path, capsys,
                                                                monkeypatch):
        def unwritable(*args):
            raise PermissionError("run_manifest.json: permission denied")

        monkeypatch.setattr(cli, "_write_manifest", unwritable)
        cfg = write_config(tmp_path, {"generator": {"expr": "0"}, "terminal": {"expr": "w"}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_RUNTIME_ERROR
        assert "runtime error: PermissionError: run_manifest.json" in capsys.readouterr().err

    def test_integral_floats_still_load(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"N": 1e1, "paths": 1e5, "seed": 3.0}})
        model = load_config(cfg).model
        assert (model.steps, model.paths, model.seed) == (10, 100000, 3)
        assert all(type(v) is int for v in (model.steps, model.paths, model.seed))

    @pytest.mark.parametrize(
        "command, section, key",
        [("bounds", {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0}, key)
         for key in ("T", "N", "xi_bound")]
        + [("envelope", {"growth": {"f": "0", "u": "1", "v": "0"}}, key)
           for key in ("n", "radius", "nodes", "passes", "t", "z", "y_min", "y_max", "points")],
    )
    def test_bad_section_number_reports_path(self, tmp_path, capsys, command, section, key):
        cfg = write_config(
            tmp_path, {"generator": {"expr": "-y^2"}, command: {**section, key: "abc"}}
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert f"{command}.{key}: expected" in capsys.readouterr().err


# each kind that takes a tol, with the keys it needs besides
TOL_KINDS = {
    "solver_oracle": {"expected": 0.0},
    "comparison": {"generator_prime": {"expr": "0"}, "terminal_prime": {"expr": "w"}},
    "premise": {"generator_prime": {"expr": "0"}, "terminal_prime": {"expr": "w"}},
    "dominance": {"generator_prime": {"expr": "0"}},
    "sandwich": {"xi_bound": 1.0},
    "monotone_family": {},
    "bounds_oracle": {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0, "expected_U0": 4.4},
    "uniqueness_smoke": {},
    "envelope_domination": {"growth": {"f": "0", "u": "1", "v": "0"}},
}


class TestCheckConfigErrors:
    """Malformed check-level sections exit 2 and name the check and the key."""

    @pytest.mark.parametrize(
        "check, where",
        [
            (
                {"check": "comparison", "generator_prime": {"expr": "1 +"},
                 "terminal_prime": {"expr": "w"}},
                "checks[0].generator_prime.expr",
            ),
            ({"check": "comparison", "terminal_prime": {"expr": "w"}}, "checks[0].generator_prime"),
            (
                {"check": "bounds_oracle", "u": "1", "l": "1 + abs(x)", "expected_U0": 4.4},
                "checks[0]: missing keys ['xi_bound']",
            ),
            (
                {"check": "sandwich", "generator": {"expr": "-y^3", "certificate": {
                    "kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"}}},
                "checks[0].xi_bound",
            ),
            (
                {"check": "solver_oracle", "expected": 0.0, "generator": {"expr": "1 +"}},
                "checks[0].generator.expr",
            ),
            ({"check": "solver_oracle"}, "checks[0].expected: missing"),
            (
                {"check": "bounds_oracle", "u": "1", "l": "1 + abs(x)", "xi_bound": 1.0},
                "checks[0].expected_U0: missing",
            ),
            ({"check": "solver_oracle", "expected": 0.0, "tol": "abc"}, "checks[0].tol"),
            (
                {"check": "bounds_oracle", "u": "1", "l": "1 + abs(x)", "xi_bound": "abc",
                 "expected_U0": 4.4},
                "checks[0].xi_bound",
            ),
            (
                {"check": "bounds_oracle", "u": "1", "l": "1 + abs(x)", "xi_bound": 1.0,
                 "expected_U0": 4.4, "N": "abc"},
                "checks[0].N",
            ),
            ({"check": "certificate"}, "checks[0].generator.certificate"),
            (
                {"check": "bounds_oracle", "u": "t - 0.5", "l": "1 + abs(x)", "xi_bound": 1.0,
                 "expected_U0": 4.4},
                "checks[0].u: weight is negative at t=0 (value -0.5)",
            ),
            # the first negative sample, not the most negative one (t = 1)
            (
                {"check": "sandwich", "xi_bound": 1.0, "generator": {"expr": "-y", "certificate": {
                    "kind": "one_sided_super_linear", "u": "0.25 - t", "l": "1 + abs(y)",
                    "h": "1"}}},
                "checks[0].generator.certificate.u: weight is negative at t=0.250488 ",
            ),
            (
                {"check": "sandwich", "xi_bound": 1.0, "generator": {"expr": "-y", "certificate": {
                    "kind": "one_sided_linear", "f": "0", "u": "1", "v": "1",
                    "side": "absolute"}}},
                "checks[0].generator.certificate: sandwich needs a one_sided_super_linear "
                "certificate",
            ),
            (
                {"check": "certificate", "grid": {"y_count": "abc"}, "generator": {
                    "expr": "-y", "certificate": {"kind": "convexity_z"}}},
                "checks[0].grid.y_count",
            ),
            (
                {"check": "certificate", "grid": {"z_range": [1.0]}, "generator": {
                    "expr": "-y", "certificate": {"kind": "convexity_z"}}},
                "checks[0].grid.z_range",
            ),
            (
                {"check": "certificate", "generator": {"expr": "-y", "certificate": {
                    "kind": "one_sided_linear", "f": "0", "u": "1", "v": "1",
                    "sdie": "absolute"}}},
                "checks[0].generator.certificate.sdie: unknown key; expected one of ['f', 'u', "
                "'v', 'side']",
            ),
            (
                {"check": "certificate", "generator": {"expr": "-y", "certificate": {
                    "kind": "convexity_z", "convex": "false"}}},
                "checks[0].generator.certificate.convex: must be true or false",
            ),
            ({"check": "monotone_family", "n_list": [1, "abc"]}, "checks[0].n_list[1]"),
            ({"check": "transform_residual", "gamma": "abc"}, "checks[0].gamma"),
            ({"check": "transform_residual", "coefficient": "abc"}, "checks[0].coefficient"),
            # gamma was checked only after the solve, and 1e309 was blamed on the solver
            *(({"check": "transform_residual", "gamma": gamma},
               "checks[0].gamma: must be finite and > 0") for gamma in (0, -1, 1e309)),
            *(({"check": "certificate", "grid": {key: bad}, "generator": {
                "expr": "-y", "certificate": {"kind": "convexity_z"}}},
               f"checks[0].grid.{key}: must be finite")
              for key in ("y_range", "z_range") for bad in ([-1e309, 0], [0, 1e309])),
            (
                {"check": "dominance", "generator_prime": {"expr": "0"}, "level": "abc"},
                "checks[0].level",
            ),
            (
                {"check": "envelope_domination", "growth": {"f": "0", "u": "0", "v": "0"},
                 "points": "abc"},
                "checks[0].points",
            ),
            (
                {"check": "envelope_domination", "growth": {"f": "0", "u": "0", "v": "0"},
                 "n": "abc"},
                "checks[0].n",
            ),
            # an infinite tolerance passed a check vacuously; a negative one failed one that holds
            *(({"check": kind, **keys, "tol": tol}, "checks[0].tol: must be finite and >= 0")
              for kind, keys in TOL_KINDS.items() for tol in (1e309, -1)),
            *(({"check": "transform_residual", "coefficient": coefficient},
               "checks[0].coefficient: must be finite and >= 0") for coefficient in (1e309, -1)),
            ({"check": "sandwich", "terminal": {"expr": "w", "bound": 1e309}},
             "checks[0].terminal.bound: must be finite and >= 0"),
        ],
    )
    def test_exit_code_and_path(self, tmp_path, capsys, check, where):
        cfg = write_config(
            tmp_path,
            {
                "model": {"N": 20, "scheme": "implicit"},
                "generator": {"expr": "-1"},
                "terminal": {"expr": "w"},
                "checks": [check],
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error" in err and where in err, err



@pytest.fixture
def solve_counts(monkeypatch):
    """Tree sweeps, as (steps, horizon, problems) in call order, and Monte-Carlo
    solves, wherever ``cli`` or ``verify`` call them; a tree solve is a sweep of one."""
    import bsdelab.cli as cli
    import bsdelab.verify as verify

    counts = {"sweeps": [], "mc-regression": 0}

    def stack(real):
        def counted(problems, steps, horizon=1.0):
            counts["sweeps"].append((steps, horizon, len(problems)))
            return real(problems, steps, horizon)
        return counted

    def tree(real):
        def counted(g, xi, steps, horizon=1.0, *args, **kwargs):
            counts["sweeps"].append((steps, horizon, 1))
            return real(g, xi, steps, horizon, *args, **kwargs)
        return counted

    def monte_carlo(real):
        def counted(*args, **kwargs):
            counts["mc-regression"] += 1
            return real(*args, **kwargs)
        return counted

    for module in (cli, verify):
        for name, wrap in (("solve_tree_stack", stack), ("solve_tree", tree),
                           ("solve_mc_regression", monte_carlo)):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, wrap(real))
    return counts


def run_checks(tmp_path, checks, model=None, *flags):
    cfg = write_config(
        tmp_path,
        {
            "model": model or {"N": 20, "scheme": "implicit"},
            "generator": {"expr": "-1"},
            "terminal": {"expr": "w"},
            "checks": checks,
        },
    )
    return main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet", *flags])


GROWTH = {"f": "0", "u": "1", "v": "0"}


class TestCheckKeys:
    """Each kind's keys are declared once; anything else is a config error before any solve."""

    ORACLE = {"check": "solver_oracle", "expected": 0.0, "tol": 10.0}

    def test_typo_in_last_check_stops_before_the_first_solve(
        self, tmp_path, capsys, solve_counts
    ):
        checks = [self.ORACLE, {"check": "uniqueness_smoke"}, {"check": "comparison",
                  "generator_prime": {"expr": "0"}, "terminal_prime": {"expr": "w"}},
                  {"check": "monotone_family", "n_lsit": [1, 2]}]
        assert run_checks(tmp_path, checks) == EXIT_CONFIG_ERROR
        assert "config error: checks[3].n_lsit: unknown key" in capsys.readouterr().err
        assert solve_counts == {"sweeps": [], "mc-regression": 0}
        assert not (tmp_path / "reports.csv").exists()

    @pytest.mark.parametrize(
        "check, where",
        [
            ({"check": "solver_oracle", "expected": 0.0, "tolerance": 1}, "checks[1].tolerance"),
            ({"check": "premise", "generator_prime": {"expr": "0"},
              "terminal_prime": {"expr": "w"}, "which": "along_primed"}, "checks[1].which"),
            ({"check": "dominance", "generator_prime": {"expr": "0"}, "side": "left"},
             "checks[1].side"),
            ({"check": "certificate", "grid": [1, 2], "generator": {
                "expr": "-y", "certificate": {"kind": "convexity_z"}}}, "checks[1].grid"),
            ({"check": "certificate", "grid": {"y_cuont": 3}, "generator": {
                "expr": "-y", "certificate": {"kind": "convexity_z"}}}, "checks[1].grid.y_cuont"),
            ({"check": "envelope_domination", "growth": "linear"}, "checks[1].growth"),
            ({"check": "certificate", "tol": 0.1, "generator": {
                "expr": "-y", "certificate": {"kind": "convexity_z"}}}, "checks[1].tol"),
            ({"check": "uniqueness_smoke", "model": {"step": 10}}, "checks[1].model.step"),
            ({"check": "uniqueness_smoke", "model": 10}, "checks[1].model: must be an object"),
            ({"check": "bounds_oracle", "expected_U0": 4.4, "u": "1", "l": "1 + abs(x)",
              "xi_bound": 1.0, "n": 64}, "checks[1].n"),
            ({"check": "checkerboard"}, "checks[1].check: unknown kind"),
            ({"check": "monotone_family", "n_list": [2, 1]}, "checks[1].n_list"),
            ({"check": "envelope_domination", "growth": GROWTH, "points": 0},
             "checks[1].points: must be >= 1"),
            ({"check": "uniqueness_smoke", "name": 5}, "checks[1].name: must be a string"),
            ({"check": "envelope_domination", "growth": GROWTH, "u_w": "1 +"}, "checks[1].u_w"),
            ({"check": "envelope_domination", "growth": GROWTH, "v_w": ""}, "checks[1].v_w"),
            ({"check": "envelope_domination", "growth": {**GROWTH, "f": "1 +"}},
             "checks[1].growth.f"),
            ({"check": "envelope_domination", "growth": {**GROWTH, "v": "y + t"}},
             "checks[1].growth.v"),
            ({"check": "envelope_domination", "growth": {**GROWTH, "w": "1"}},
             "checks[1].growth.w: unknown key"),
            ({"check": "bounds_oracle", "expected_U0": 4.4, "u": "abs(", "l": "1 + abs(x)",
              "xi_bound": 1.0}, "checks[1].u"),
            ({"check": "bounds_oracle", "expected_U0": 4.4, "u": "1", "l": "1 +",
              "xi_bound": 1.0}, "checks[1].l"),
            ({"check": "certificate", "grid": {"t_count": 0}, "generator": {
                "expr": "-y", "certificate": {"kind": "convexity_z"}}},
             "checks[1].grid.t_count: must be >= 1"),
            ({"check": "certificate", "grid": {"T": math.inf}, "generator": {
                "expr": "-y", "certificate": {"kind": "convexity_z"}}},
             "checks[1].grid.T: must be finite and > 0"),
            ({"check": "bounds_oracle", "expected_U0": 4.4, "u": "1", "l": "1 + abs(x)",
              "xi_bound": 1.0, "T": math.inf}, "checks[1].T: must be finite and > 0"),
            ({"check": "bounds_oracle", "expected_U0": 4.4, "u": "1", "l": "1 + abs(x)",
              "xi_bound": 1.0, "N": 0}, "checks[1].N: must be >= 1"),
            ({"check": "bounds_oracle", "expected_U0": 4.4, "u": "1", "l": "1 + abs(x)",
              "xi_bound": -1}, "checks[1].xi_bound: must be finite and >= 0"),
            ({"check": "sandwich", "xi_bound": -1, "generator": {"expr": "-y^3", "certificate": {
                "kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"}}},
             "checks[1].xi_bound: must be finite and >= 0"),
            ({"check": "envelope_domination", "growth": GROWTH, "n": 0},
             "checks[1].n: must be >= 1"),
            ({"check": "monotone_family", "n_list": []}, "checks[1].n_list: must be nonempty"),
            ({"check": "transform_residual", "gamma": 0},
             "checks[1].gamma: must be finite and > 0"),
            ({"check": "uniqueness_smoke", "generator": {"expr": "-y", "bund": 2}},
             "checks[1].generator.bund: unknown key; expected one of ['expr', 'certificate']"),
            ({"check": "uniqueness_smoke", "terminal": {"expr": "w", "bonud": 2}},
             "checks[1].terminal.bonud: unknown key; expected one of ['expr', 'bound']"),
            ({"check": "comparison", "generator_prime": {"expr": "0", "certifcate": {}},
              "terminal_prime": {"expr": "w"}},
             "checks[1].generator_prime.certifcate: unknown key"),
            ({"check": "comparison", "generator_prime": {"expr": "0"},
              "terminal_prime": {"expr": "w", "bund": 1}},
             "checks[1].terminal_prime.bund: unknown key"),
            # an infinite expected value once ran its solve, and an infinite cap failed in it
            ({"check": "solver_oracle", "expected": 1e309}, "checks[1].expected: must be finite"),
            ({"check": "bounds_oracle", "expected_U0": -1e309, "u": "1", "l": "1 + abs(x)",
              "xi_bound": 1.0}, "checks[1].expected_U0: must be finite"),
            *(({"check": "dominance", "generator_prime": {"expr": "0"}, "level": level},
               "checks[1].level: must be finite") for level in (-1e309, 1e309)),
            ({"check": "monotone_family", "n_list": [-1e309, 1]},
             "checks[1].n_list[0]: must be finite"),
            ({"check": "monotone_family", "n_list": [1, 1e309]},
             "checks[1].n_list[1]: must be finite"),
        ],
    )
    def test_bad_key_names_its_path(self, tmp_path, capsys, solve_counts, check, where):
        assert run_checks(tmp_path, [self.ORACLE, check]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"config error: {where}" in err, err
        assert solve_counts == {"sweeps": [], "mc-regression": 0}

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("sections, where", [
        ({"modle": {"N": 7, "backend": "mc-regression"}}, "modle"),
        ({"generator": {"expr": "-y", "certifcate": {"kind": "convexity_z"}}},
         "generator.certifcate"),
        ({"terminal": {"expr": "w", "bund": 2}}, "terminal.bund"),
    ])
    def test_unknown_section_key_names_its_path(self, tmp_path, capsys, solve_counts, command,
                                                sections, where):
        # a misspelt key once ran silently: the default model's 200-step solve
        cfg = write_config(tmp_path, {"generator": {"expr": "-y"}, "terminal": {"expr": "1"},
                                      "checks": [self.ORACLE], **sections})
        code = main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_CONFIG_ERROR
        assert f"config error: {where}: unknown key; expected one of [" in capsys.readouterr().err
        assert solve_counts == {"sweeps": [], "mc-regression": 0}

    @pytest.mark.parametrize("missing", ["generator", "terminal"])
    @pytest.mark.parametrize(
        "check",
        [
            {"check": "solver_oracle", "expected": 0.0},
            {"check": "comparison", "generator_prime": {"expr": "0"},
             "terminal_prime": {"expr": "w"}},
            {"check": "premise", "generator_prime": {"expr": "0"},
             "terminal_prime": {"expr": "w"}},
            {"check": "sandwich", "xi_bound": 1.0},
            {"check": "monotone_family"},
            {"check": "transform_residual"},
            {"check": "uniqueness_smoke"},
        ],
        ids=lambda c: c["check"],
    )
    def test_check_that_solves_needs_both_sections(
        self, tmp_path, capsys, solve_counts, check, missing
    ):
        sections = {"generator": {"expr": "-y"}, "terminal": {"expr": "w", "bound": 1.0}}
        del sections[missing]
        cfg = write_config(tmp_path, {"model": {"N": 20}, "checks": [
            {**self.ORACLE, "generator": {"expr": "0"}, "terminal": {"expr": "w"}},
            {**check, **sections},
        ]})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_CONFIG_ERROR
        assert f"config error: checks[1].{missing}: missing" in capsys.readouterr().err
        assert solve_counts == {"sweeps": [], "mc-regression": 0}

    def test_transform_residual_needs_the_tree(self, tmp_path, capsys, solve_counts):
        checks = [self.ORACLE, {"check": "transform_residual"}]
        model = {"N": 10, "backend": "mc-regression", "paths": 2000, "basis_degree": 2}
        assert run_checks(tmp_path, checks, model) == EXIT_CONFIG_ERROR
        assert "config error: checks[1].model.backend" in capsys.readouterr().err
        assert solve_counts == {"sweeps": [], "mc-regression": 0}

    def test_tol_override_skips_kinds_without_a_tolerance(self, tmp_path):
        checks = [self.ORACLE, {"check": "certificate", "generator": {
            "expr": "-y", "certificate": {"kind": "convexity_z"}}}]
        assert run_checks(tmp_path, checks, None, "--tol", "1e-12") == EXIT_CHECK_FAILED
        rows = read_csv(tmp_path / "reports.csv")
        assert [r["status"] for r in rows] == ["fail", "pass"]

    def test_bounds_oracle_reads_the_bounds_section(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"T": 1.0, "N": 64},
            "bounds": {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0, "expected_U0": 2 * math.e - 1},
            "checks": [{"check": "bounds_oracle"}],
        })
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK


class TestModelKeys:
    @pytest.mark.parametrize(
        "model, where",
        [
            ({"step": 100}, "model.step"),
            ({"z_clamp": 0}, "model.z_clamp"),
            ({"z_clamp": -1.0}, "model.z_clamp"),
            ({"scheme": "crank-nicolson"}, "model.scheme"),
            ({"backend": "mc-regression", "paths": 5}, "model.paths"),
            ({"backend": "mc-regression", "basis_degree": 2, "paths": 29}, "model.paths"),
            ({"backend": "mc-regression", "basis_degree": 0}, "model.basis_degree"),
            ({"T": math.inf}, "model.T: must be finite and > 0"),
            ({"T": 0}, "model.T: must be finite and > 0"),
            ({"seed": -3}, "model.seed: must be an integer in [0, 2^64)"),
            ({"backend": "mc-regression", "seed": -3}, "model.seed"),
            ({"seed": 2**64}, "model.seed"),
        ],
    )
    def test_top_level_and_per_check(self, tmp_path, capsys, model, where):
        cfg = write_config(
            tmp_path, {"model": model, "generator": {"expr": "0"}, "terminal": {"expr": "w"}}
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert f"config error: {where}" in capsys.readouterr().err
        check = {"check": "uniqueness_smoke", "model": model}
        assert run_checks(tmp_path, [check]) == EXIT_CONFIG_ERROR
        assert f"config error: checks[0].{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-5", "must be an integer in [0, 2^64)"),
        ("--seed", str(2**64), "must be an integer in [0, 2^64)"),
        ("--threads", "0", "must be >= 1"),
        ("--tol", "nan", "must not be NaN"),
        ("--tol", "inf", "must be finite and >= 0"),
        ("--tol", "-1", "must be finite and >= 0"),
    ])
    def test_command_line_override_is_checked(self, tmp_path, capsys, flag, value, message):
        # a negative seed used to fail in numpy, after the checks before it had run
        assert main(["suite", flag, value, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert f"config error: {flag}: {message}" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_threads_stays_a_known_key(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"N": 10, "threads": 4}, "generator": {"expr": "0"}, "terminal": {"expr": "w"}
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK


class TestSectionKeys:
    @pytest.mark.parametrize(
        "command, section, key",
        [("bounds", {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0}, "xi_bonud"),
         ("envelope", {"growth": {"f": "0", "u": "1", "v": "0"}}, "ponits")],
    )
    def test_unknown_key(self, tmp_path, capsys, command, section, key):
        cfg = write_config(tmp_path, {"generator": {"expr": "-y^2"}, command: {**section, key: 1}})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert f"config error: {command}.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, where",
        [("bounds", {"u": "1", "l": "1 +", "xi_bound": 1.0}, "bounds.l"),
         ("bounds", {"u": "(1", "l": "1 + abs(x)", "xi_bound": 1.0}, "bounds.u"),
         ("envelope", {"growth": GROWTH, "u_w": "1 +"}, "envelope.u_w"),
         ("envelope", {"growth": {**GROWTH, "u": "1 +"}}, "envelope.growth.u"),
         ("envelope", {"growth": "linear"}, "envelope.growth: must be an object")]
        + [("envelope", {"growth": GROWTH, key: value}, f"envelope.{key}: must be")
           for key, value in (("points", -1), ("points", 0), ("nodes", 4), ("nodes", 1),
                              ("radius", -1), ("passes", -1), ("passes", 0), ("n", 0))]
        + [("envelope", {"growth": GROWTH, key: value}, f"envelope.{key}: must be finite")
           for key in ("t", "z", "y_min", "y_max") for value in (-1e309, 1e309)]
        + [("bounds", {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0, key: value},
            f"bounds.{key}: must be")
           for key, value in (("xi_bound", -1), ("N", 0), ("T", -1), ("T", math.inf))]
        # the bounds command once took an expected value that verify rejects
        + [("bounds", {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0, "expected_U0": value},
            f"bounds.expected_U0: {message}")
           for value, message in (("abc", "expected float"), (1e309, "must be finite"))],
    )
    def test_bad_expression(self, tmp_path, capsys, command, section, where):
        cfg = write_config(tmp_path, {"generator": {"expr": "-y^2"}, command: section})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert f"config error: {where}" in capsys.readouterr().err

class TestSolveCommand:
    def test_zero_driver_martingale(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"T": 1.0, "N": 100},
                "generator": {"expr": "0"},
                "terminal": {"expr": "w"},
            },
        )
        code = main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 101
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert float(first["y_mean"]) == 0.0
        # terminal row has no z column value
        assert rows[-1]["z_mean"] == ""

    @pytest.mark.parametrize("config", ["shipped-suite", "mc-verify", "super-linear"])
    def test_solution_means_match_the_reference(self, tmp_path, config):
        # binomial level weights on the tree, the path average on Monte Carlo, bit for bit
        path = {
            "shipped-suite": str(default_suite_path()),
            "mc-verify": str(MC_VERIFY),
            "super-linear": write_config(tmp_path, {
                "model": {"N": 50, "scheme": "implicit"},
                "generator": {"expr": "-y^3 + abs(z)^1.5 * sin(y)"},
                "terminal": {"expr": "sin(w)"},
            }),
        }[config]
        cfg = load_config(path)
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [("t", "y_mean", "y_min", "y_max", "z_mean")]
            + solution_rows_reference(_solve_with(cfg.model, cfg.generator, cfg.terminal)))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out / "solution.csv").read_text() == want.getvalue()

    def test_manifest_written(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"T": 1.0, "N": 20, "seed": 5},
                "generator": {"expr": "0"},
                "terminal": {"expr": "w"},
            },
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["model"]["N"] == 20
        assert "config_sha256" in manifest
        assert "solution.csv" in manifest["outputs"]
        assert manifest["versions"]["bsdelab"]


class TestBoundsCommand:
    def test_closed_form_value(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"T": 1.0, "N": 64},
                "bounds": {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0},
            },
        )
        code = main(["bounds", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "bounds.csv")
        assert abs(float(rows[0]["U"]) - (2.0 * math.e - 1.0)) < 1e-5
        assert abs(float(rows[0]["L"]) + (2.0 * math.e - 1.0)) < 1e-5

    def test_missing_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bounds": {"u": "1"}})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_negative_weight_is_a_config_error(self, tmp_path, capsys):
        # u < 0 on [0, 1) once broke the barrier's ordering at run time (exit 3)
        cfg = write_config(tmp_path, {"bounds": {"u": "t - 1", "l": "1 + abs(x)",
                                                 "xi_bound": 1.0, "T": 2.0, "N": 8}})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == "config error: bounds.u: weight is negative at t=0 (value -1)\n", err
        assert not (tmp_path / "bounds.csv").exists()

    def test_blow_up_is_a_runtime_error(self, tmp_path, capsys):
        # U = tan(pi/4 + T - t) leaves [-1e12, 1e12] at t = 3 pi/4
        cfg = write_config(tmp_path, {"bounds": {"u": "1", "l": "1 + x^2", "xi_bound": 1.0,
                                                 "T": math.pi, "N": 64}})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith("runtime error: upper bound left [-1e12, 1e12] at t = 2.35619"), err
        assert not (tmp_path / "bounds.csv").exists()


class TestEnvelopeCommand:
    def test_sweep_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "generator": {"expr": "-y^2"},
                "envelope": {
                    "n": 2,
                    "growth": {"f": "0", "u": "1", "v": "0"},
                    "y_min": -2.0,
                    "y_max": 2.0,
                    "points": 21,
                },
            },
        )
        code = main(["envelope", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "envelope.csv")
        assert len(rows) == 21
        for row in rows:
            assert float(row["envelope"]) >= float(row["g"]) - 1e-12


class TestEnvelopeDominationCheck:
    def run(self, tmp_path, generator):
        cfg = write_config(
            tmp_path,
            {"generator": generator, "checks": [{"check": "envelope_domination", "points": 3}]},
        )
        return main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])

    def test_growth_from_certificate(self, tmp_path):
        generator = {
            "expr": "-y / 2 + z / 2",
            "certificate": {
                "kind": "one_sided_linear", "side": "absolute", "f": "0", "u": "0.5", "v": "0.5"
            },
        }
        assert self.run(tmp_path, generator) == EXIT_OK
        assert read_csv(tmp_path / "reports.csv")[0]["status"] == "pass"

    def test_no_growth_and_no_certificate(self, tmp_path, capsys):
        assert self.run(tmp_path, {"expr": "-y^2"}) == EXIT_RUNTIME_ERROR
        assert "missing growth certificate" in capsys.readouterr().err


class TestDominanceCheck:
    def test_time_is_sampled_over_the_horizon(self, tmp_path):
        # t - 1.5 <= 0 fails only on (1.5, 2], which a sample of [0, 1] misses
        cfg = write_config(tmp_path, {
            "model": {"T": 2.0}, "generator": {"expr": "t - 1.5"},
            "checks": [{"check": "dominance", "generator_prime": {"expr": "0"}}],
        })
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_CHECK_FAILED
        row = read_csv(tmp_path / "reports.csv")[0]
        assert (row["status"], float(row["violation"])) == ("fail", 0.5)
        assert json.loads(row["location"])["t"] == 2.0


# one driver for each certificate kind, which satisfies the kind's inequality
CERTIFIED = [
    ("-y", {"kind": "one_sided_osgood_y", "u": "1", "rho": "x"}),
    ("abs(z)", {"kind": "continuity_z", "v": "1", "phi": "x"}),
    ("abs(z)^0.5 + y", {"kind": "sublinear_diff_z", "lambda": "1", "alpha": 0.5, "f": "1"}),
    ("-y^3 + abs(z)^1.5 * sin(y)",
     {"kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"}),
    ("sin(y) + z^2", {"kind": "quad_growth", "u_bar": "1", "phi_bar": "1", "h_bar": "1"}),
    ("z^2", {"kind": "local_lipschitz_z", "v": "1 + t"}),
    ("-abs(z)", {"kind": "convexity_z", "convex": False}),
    ("-y + sin(z)",
     {"kind": "one_sided_linear", "f": "1", "u": "1", "v": "1", "side": "absolute"}),
    ("min(abs(z), abs(z)^0.5) / 2",
     {"kind": "mixed_sublinear", "f": "0", "u": "1", "v": "1", "lambda": "1", "alpha": 0.5}),
]


class TestCertificateCheck:
    def test_every_kind_holds(self, tmp_path):
        grid = {"t_count": 3, "y_count": 7, "z_count": 9}
        checks = [{"check": "certificate", "grid": grid,
                   "generator": {"expr": expr, "certificate": certificate}}
                  for expr, certificate in CERTIFIED]
        assert run_checks(tmp_path, checks) == EXIT_OK
        rows = read_csv(tmp_path / "reports.csv")
        assert [row["name"] for row in rows] == [f"certificate:{c['kind']}" for _, c in CERTIFIED]
        assert {row["status"] for row in rows} == {"pass"}


class TestChecksSolveOnTheConfiguredBackend:
    def test_monotone_family_and_uniqueness_on_monte_carlo(self, tmp_path, monkeypatch):
        import bsdelab.cli as cli
        import bsdelab.verify as verify

        counts = {"tree": 0, "mc-regression": 0}
        for module in (cli, verify):
            for name, backend in (("solve_tree", "tree"), ("solve_mc_regression", "mc-regression")):
                real = getattr(module, name, None)
                if real is not None:
                    def counted(*args, _real=real, _backend=backend, **kwargs):
                        counts[_backend] += 1
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        cfg = write_config(
            tmp_path,
            {
                "model": {"N": 10, "backend": "mc-regression", "paths": 2000, "basis_degree": 2},
                "generator": {"expr": "-y"},
                "terminal": {"expr": "sin(w)", "bound": 1.0},
                "checks": [
                    {"check": "monotone_family", "n_list": [0.5, 1.0, 2.0]},
                    {"check": "uniqueness_smoke", "tol": 0.1},
                ],
            },
        )
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert counts == {"tree": 0, "mc-regression": 5}
        # regression need not keep the family ordered: no verdict either way
        family = read_csv(tmp_path / "reports.csv")[0]
        assert family["status"] == "inconclusive"
        assert "does not preserve order" in family["notes"]


SANDWICH = {
    "check": "sandwich",
    "generator": {"expr": "-y^3 + abs(z)^1.5 * sin(y)", "certificate": {
        "kind": "one_sided_super_linear", "u": "1", "l": "1 + abs(y)", "h": "1"}},
    "terminal": {"expr": "sin(w)", "bound": 1.0},
    "model": {"N": 50, "scheme": "implicit"},
}
MC_VERIFY = Path(__file__).resolve().parent / "data" / "mc_verify.json"


class TestSolveReuse:
    """A command plans its solves: the first check on a tree substrate sweeps
    every distinct problem posed on it in one stack, and no solution outlives
    the command; Monte-Carlo solves are not kept."""

    def test_sandwich_pair_solves_once(self, tmp_path, solve_counts):
        control = {**SANDWICH, "xi_bound": 0.1, "expect": "fail"}
        assert run_checks(tmp_path, [SANDWICH, control]) == EXIT_OK
        assert solve_counts == {"sweeps": [(50, 1.0, 1)], "mc-regression": 0}

    @pytest.mark.parametrize("model, sweeps", [
        ({"N": 50, "scheme": "explicit"}, [(50, 1.0, 2)]),  # another problem, the same tree
        ({"N": 60}, [(50, 1.0, 1), (60, 1.0, 1)]),
        ({"N": 50, "scheme": "implicit", "T": 0.5}, [(50, 1.0, 1), (50, 0.5, 1)]),
    ])
    def test_another_model_solves_anew(self, tmp_path, solve_counts, model, sweeps):
        other = {**SANDWICH, "model": model}
        assert run_checks(tmp_path, [SANDWICH, other]) in (EXIT_OK, EXIT_CHECK_FAILED)
        assert solve_counts == {"sweeps": sweeps, "mc-regression": 0}

    def test_a_tree_solve_is_kept_for_the_whole_command(self, tmp_path, solve_counts):
        between = {"check": "dominance", "generator_prime": {"expr": "0"}}
        assert run_checks(tmp_path, [SANDWICH, between, SANDWICH]) == EXIT_OK
        assert solve_counts == {"sweeps": [(50, 1.0, 1)], "mc-regression": 0}

    def test_each_command_solves_afresh(self, tmp_path, solve_counts):
        for _ in range(2):
            assert run_checks(tmp_path, [SANDWICH]) == EXIT_OK
        assert solve_counts == {"sweeps": [(50, 1.0, 1)] * 2, "mc-regression": 0}

    def test_shipped_suite_sweeps_each_substrate_once(self, tmp_path, solve_counts):
        # 15 distinct problems: 13 on the N = 200 tree, 2 on the N = 400 one
        assert main(["suite", "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        assert solve_counts == {"sweeps": [(200, 1.0, 13), (400, 1.0, 2)], "mc-regression": 0}

    def test_no_solution_outlives_its_command(self, tmp_path, monkeypatch):
        import bsdelab.cli as cli

        kept = []

        def stack(problems, steps, horizon=1.0):
            sols = solve_tree_stack(problems, steps, horizon)
            kept.extend(weakref.ref(sol) for sol in sols)
            return sols

        monkeypatch.setattr(cli, "solve_tree_stack", stack)
        assert main(["suite", "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        gc.collect()
        assert len(kept) == 15 and all(ref() is None for ref in kept)

    def test_reversed_checks_give_the_same_rows(self, tmp_path, solve_counts):
        # each stack holds its problems in another order: a row of a stack has
        # the bits of the same row alone
        cfg = json.loads(default_suite_path().read_text())
        rows = {}
        for order in ("forward", "reversed"):
            if order == "reversed":
                cfg["checks"].reverse()
            out = tmp_path / order
            path = write_config(tmp_path, cfg, f"{order}.json")
            assert main(["suite", "--config", path, "--out", str(out), "--quiet"]) == EXIT_OK
            rows[order] = sorted(read_csv(out / "reports.csv"), key=lambda row: row["name"])
        assert len(rows["forward"]) == 15 and rows["forward"] == rows["reversed"]
        assert solve_counts["sweeps"] == [(200, 1.0, 13), (400, 1.0, 2)] * 2

    def test_monte_carlo_solves_are_not_kept(self, tmp_path, solve_counts):
        cfg = json.loads(MC_VERIFY.read_text())
        cfg["checks"].append(cfg["checks"][0])  # the same comparison pair again
        path = write_config(tmp_path, cfg)
        code = main(["verify", "--config", path, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_CHECK_FAILED  # comparisons on Monte Carlo are inconclusive
        assert solve_counts == {"sweeps": [], "mc-regression": 7}
        assert [r["status"] for r in read_csv(tmp_path / "reports.csv")] == ["inconclusive"] * 3


class TestVerifyCommand:
    def config(self, expected, tol):
        return {
            "model": {"T": 1.0, "N": 100, "scheme": "implicit"},
            "generator": {"expr": "-y"},
            "terminal": {"expr": "1", "bound": 1.0},
            "checks": [
                {"check": "solver_oracle", "expected": expected, "tol": tol}
            ],
        }

    def test_passing_check(self, tmp_path):
        cfg = write_config(tmp_path, self.config(math.exp(-1.0), 5e-3))
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "reports.csv")
        assert rows[0]["status"] == "pass"

    def test_failing_check_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, self.config(0.9, 1e-3))
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_CHECK_FAILED

    def test_tol_override_forces_failure(self, tmp_path):
        cfg = write_config(tmp_path, self.config(math.exp(-1.0), 5e-3))
        code = main(
            ["verify", "--config", cfg, "--out", str(tmp_path), "--quiet", "--tol", "1e-12"]
        )
        assert code == EXIT_CHECK_FAILED

    def test_expected_failure_counts_as_ok(self, tmp_path):
        payload = self.config(0.9, 1e-3)
        payload["checks"][0]["expect"] = "fail"
        cfg = write_config(tmp_path, payload)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK


class TestSuiteCommand:
    def test_shipped_suite_passes(self, tmp_path):
        code = main(["suite", "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        names = os.listdir(tmp_path)
        assert "reports.csv" in names
        assert "run_manifest.json" in names
        assert sum(1 for n in names if n.startswith("check_")) >= 10

    def test_suite_csvs_round_trip(self, tmp_path):
        assert main(["suite", "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == 16
        for path in files:
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows, path.name
            for row in rows:
                assert len(row) == len(header), path.name
                record = dict(zip(header, row))
                assert isinstance(json.loads(record["location"]), dict)
                assert record["outcome"] == "ok"

    def test_console_entry_point(self, tmp_path):
        # A relative PYTHONPATH (e.g. ``src``) stops resolving under cwd=tmp_path,
        # so put the absolute in-tree ``src`` first; an installed package still works.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bsdelab.cli", "verify", "--config", "missing.json"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == EXIT_CONFIG_ERROR, proc.stderr


class TestDeterminism:
    def mc_config(self):
        return {
            "model": {
                "T": 1.0,
                "N": 20,
                "backend": "mc-regression",
                "paths": 40000,
                "basis_degree": 2,
                "seed": 12,
            },
            "generator": {"expr": "-y + z / 2"},
            "terminal": {"expr": "w^2"},
        }

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.mc_config())
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(a), "--quiet"]) == EXIT_OK
        assert main(["solve", "--config", cfg, "--out", str(b), "--quiet"]) == EXIT_OK
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()

    def test_thread_count_invariant(self, tmp_path):
        cfg = write_config(tmp_path, self.mc_config())
        one = tmp_path / "one"
        eight = tmp_path / "eight"
        assert main(
            ["solve", "--config", cfg, "--out", str(one), "--quiet", "--threads", "1"]
        ) == EXIT_OK
        assert main(
            ["solve", "--config", cfg, "--out", str(eight), "--quiet", "--threads", "8"]
        ) == EXIT_OK
        assert (one / "solution.csv").read_bytes() == (eight / "solution.csv").read_bytes()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            {
                "model": {"N": 10},
                "generator": {"expr": "0"},
                "terminal": {"expr": "w"},
            },
        )
        target = tmp_path / "from_env"
        monkeypatch.setenv("BSDELAB_OUT", str(target))
        assert main(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (target / "solution.csv").exists()
