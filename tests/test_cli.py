import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bsdelab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    main,
)


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
        ],
    )
    def test_bad_number_reports_path(self, tmp_path, capsys, payload, where):
        cfg = write_config(
            tmp_path, {"generator": {"expr": "0"}, "terminal": {"expr": "w"}, **payload}
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert where in capsys.readouterr().err

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
                "checks[0].generator.certificate: certificate kind 'one_sided_linear' has "
                "unknown key 'sdie'",
            ),
            (
                {"check": "certificate", "generator": {"expr": "-y", "certificate": {
                    "kind": "convexity_z", "convex": "false"}}},
                "checks[0].generator.certificate: certificate kind 'convexity_z': 'convex' "
                "must be true or false",
            ),
            ({"check": "monotone_family", "n_list": [1, "abc"]}, "checks[0].n_list[1]"),
            ({"check": "transform_residual", "gamma": "abc"}, "checks[0].gamma"),
            ({"check": "transform_residual", "coefficient": "abc"}, "checks[0].coefficient"),
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
    """Solves run through either backend, counted wherever ``cli`` or ``verify`` call them."""
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
        assert solve_counts == {"tree": 0, "mc-regression": 0}
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
        ],
    )
    def test_bad_key_names_its_path(self, tmp_path, capsys, solve_counts, check, where):
        assert run_checks(tmp_path, [self.ORACLE, check]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"config error: {where}" in err, err
        assert solve_counts == {"tree": 0, "mc-regression": 0}

    def test_transform_residual_needs_the_tree(self, tmp_path, capsys, solve_counts):
        checks = [self.ORACLE, {"check": "transform_residual"}]
        model = {"N": 10, "backend": "mc-regression", "paths": 2000, "basis_degree": 2}
        assert run_checks(tmp_path, checks, model) == EXIT_CONFIG_ERROR
        assert "config error: checks[1].model.backend" in capsys.readouterr().err
        assert solve_counts == {"tree": 0, "mc-regression": 0}

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
                              ("radius", -1), ("passes", -1), ("n", 0))]
        + [("bounds", {"u": "1", "l": "1 + abs(x)", "xi_bound": 1.0, key: value},
            f"bounds.{key}: must be")
           for key, value in (("xi_bound", -1), ("N", 0), ("T", -1))],
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
