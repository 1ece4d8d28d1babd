import dataclasses
import functools
import math
import struct

import numpy as np
import pytest

from bsdelab import verify
from bsdelab.certificates import OneSidedSuperLinear
from bsdelab.generators import Generator, TerminalCondition, WeightFn
from bsdelab.ode_bounds import sandwich_envelope
from bsdelab.report import at_samples, worst_gap
from bsdelab.solver import solve_mc_regression, solve_tree
from bsdelab.verify import (
    SubstrateMismatchError,
    comparison_check,
    indicator_premise_check,
    monotone_family_check,
    one_sided_dominance_check,
    one_step_residual,
    sandwich_check,
    transform_residual_check,
    uniqueness_smoke_check,
)
from tests.oracles import (
    comparison_reference,
    monotone_reference,
    normal_expectation,
    one_step_residual_reference,
    premise_reference,
    sandwich_reference,
    transform_residual_reference,
    uniqueness_reference,
)

ZERO = Generator.parse("0")
ONE_W = WeightFn.parse("1")


def capped_family(g, xi, n_list, steps, scheme="explicit"):
    """Tree solutions of the instance with the payoff capped at each level of ``n_list``."""
    return [solve_tree(g, xi.truncated_above(n), steps, scheme=scheme) for n in n_list]


def poisoned(sol, level, index):
    """``sol`` with y at (level, index) replaced by NaN."""
    y = list(sol.y)
    y[level] = y[level].copy()
    y[level][index] = math.nan
    return dataclasses.replace(sol, y=tuple(y))


class TestReportInvariant:
    def test_status_must_match_violation(self):
        from bsdelab.report import VerificationReport

        with pytest.raises(ValueError, match="inconsistent"):
            VerificationReport("x", "claim", "pass", violation=1.0, tolerance=0.0)
        report = VerificationReport.from_violation("x", "claim", violation=1.0, tolerance=2.0)
        assert report.passed
        assert VerificationReport.inconclusive("x", "claim", "no certificate").status == (
            "inconclusive"
        )

    @pytest.mark.parametrize("violation, tolerance", [
        (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (-math.inf, math.nan)])
    def test_nan_fails_closed(self, violation, tolerance):
        # a NaN compares false with everything: it must not read as a pass
        from bsdelab.report import VerificationReport

        report = VerificationReport.from_violation("x", "claim", violation, tolerance=tolerance)
        assert report.status == "fail"
        with pytest.raises(ValueError, match="inconsistent"):
            VerificationReport("x", "claim", "pass", violation, tolerance=tolerance)

    def test_which_validated(self):
        lo = solve_tree(ZERO, TerminalCondition.parse("0"), 8)
        hi = solve_tree(ZERO, TerminalCondition.parse("1"), 8)
        with pytest.raises(ValueError):
            indicator_premise_check(lo, hi, ZERO, ZERO, which="sideways")


class TestComparisonCheck:
    def test_strict_slack(self):
        lo = solve_tree(ZERO, TerminalCondition.parse("0"), 32)
        hi = solve_tree(ZERO, TerminalCondition.parse("1"), 32)
        report = comparison_check(lo, hi, tol=1e-6)
        assert report.passed
        assert report.violation == pytest.approx(-1.0, abs=1e-12)

    def test_driver_shift(self):
        lo = solve_tree(Generator.parse("-1"), TerminalCondition.parse("w"), 64)
        hi = solve_tree(ZERO, TerminalCondition.parse("w"), 64)
        report = comparison_check(lo, hi, tol=1e-6)
        assert report.passed
        # y' - y = T - t, so at t = 0 the gap is the horizon
        assert hi.y0 - lo.y0 == pytest.approx(1.0, abs=1e-12)

    def test_reversed_terminal_detected(self):
        lo = solve_tree(ZERO, TerminalCondition.parse("1"), 32)
        hi = solve_tree(ZERO, TerminalCondition.parse("0"), 32)
        report = comparison_check(lo, hi, tol=1e-6)
        assert not report.passed
        assert report.violation == pytest.approx(1.0, abs=1e-12)

    def test_substrate_mismatch(self):
        a = solve_tree(ZERO, TerminalCondition.parse("0"), 32)
        b = solve_tree(ZERO, TerminalCondition.parse("0"), 64)
        with pytest.raises(SubstrateMismatchError):
            comparison_check(a, b)

    def test_regression_pair_is_inconclusive(self):
        # ordered data: the tree keeps y <= y', least squares need not
        g = Generator.parse("-y")
        xi, xi_hi = TerminalCondition.parse("sin(w)"), TerminalCondition.parse("max(sin(w), 0.5)")
        assert comparison_check(solve_tree(g, xi, 10), solve_tree(g, xi_hi, 10)).passed
        for seed in (0, 1):
            lo = solve_mc_regression(g, xi, 10, 2000, 2, seed=seed)
            hi = solve_mc_regression(g, xi_hi, 10, 2000, 2, seed=seed)
            report = comparison_check(lo, hi, tol=1e-6)
            assert report.status == "inconclusive"
            assert report.notes[0].startswith("mc-regression: least-squares regression does not")
            assert set(report.location) == {"t", "index"}

    def test_clamped_runs_labelled(self):
        lo = solve_tree(ZERO, TerminalCondition.parse("w"), 32, z_clamp=0.25)
        hi = solve_tree(ZERO, TerminalCondition.parse("w + 1"), 32, z_clamp=0.25)
        report = comparison_check(lo, hi, tol=1e-6)
        assert any("non-conforming" in note for note in report.notes)


class TestIndicatorPremise:
    def test_dominated_driver_passes_both(self):
        g = Generator.parse("-1")
        g_hi = ZERO
        lo = solve_tree(g, TerminalCondition.parse("sin(w)"), 48)
        hi = solve_tree(g_hi, TerminalCondition.parse("sin(w)"), 48)
        for which in ("along_prime", "along_unprimed"):
            report = indicator_premise_check(lo, hi, g, g_hi, which)
            assert report.passed

    def test_vacuous_when_never_above(self):
        lo = solve_tree(ZERO, TerminalCondition.parse("0"), 32)
        hi = solve_tree(ZERO, TerminalCondition.parse("1"), 32)
        # y < y' everywhere, so the indicator never fires even though g > g'
        report = indicator_premise_check(lo, hi, Generator.parse("5"), ZERO, "along_prime")
        assert report.passed
        assert any("indicator" in note for note in report.notes)

    def test_half_line_construction(self):
        # trajectories capped at 0 by a nonpositive terminal and negative
        # drift; dominance holds on y < 0, which forces the premise
        g = Generator.parse("-1")
        g_hi = ZERO
        dom = one_sided_dominance_check(g, g_hi, level=0.0, side="below")
        assert dom.passed
        xi = TerminalCondition.parse("min(sin(w), 0)")
        lo = solve_tree(g, xi, 48, scheme="implicit")
        hi = solve_tree(g_hi, xi, 48, scheme="implicit")
        assert float(max(np.max(r) for r in lo.y)) <= 0.0 + 1e-12
        report = indicator_premise_check(lo, hi, g, g_hi, "along_prime")
        assert report.passed

    def test_regression_pair_is_inconclusive(self):
        # y' >= y + 0.09 on the tree, so the indicator never fires there even
        # though g > g'; regressed rows cross and would report a failure
        g, g_hi = Generator.parse("-y"), Generator.parse("-y - 0.01")
        xi = TerminalCondition.parse("sin(w)")
        xi_hi = TerminalCondition.parse("max(sin(w), 0.5) + 0.1")
        tree = indicator_premise_check(solve_tree(g, xi, 10), solve_tree(g_hi, xi_hi, 10), g, g_hi)
        assert tree.passed and any("indicator" in note for note in tree.notes)
        lo = solve_mc_regression(g, xi, 10, 2000, 2, seed=0)
        hi = solve_mc_regression(g_hi, xi_hi, 10, 2000, 2, seed=0)
        for which in ("along_prime", "along_unprimed"):
            report = indicator_premise_check(lo, hi, g, g_hi, which)
            assert report.status == "inconclusive"
            assert "largest gap 0.01 is no verdict" in report.notes[0]

    def test_dominance_negative_control(self):
        report = one_sided_dominance_check(ZERO, Generator.parse("-1"), 0.0, "below")
        assert not report.passed


class TestSandwichCheck:
    def certified_driver(self):
        cert = OneSidedSuperLinear(ONE_W, "1 + abs(y)", "1")
        return Generator.parse("-y^3 + abs(z)^1.5 * sin(y)").with_certificate(cert)

    def test_bounded_martingale(self):
        cert = OneSidedSuperLinear(ONE_W, "1", "1")
        g = ZERO.with_certificate(cert)
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 64)
        env = sandwich_envelope(1.0, ONE_W, "1", sol.grid)
        report = sandwich_check(sol, env, tol=1e-6)
        assert report.passed

    def test_cubic_driver_within_envelope(self):
        g = self.certified_driver()
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 400, scheme="implicit")
        env = sandwich_envelope(1.0, ONE_W, "1 + abs(y)", sol.grid)
        assert np.max(np.abs(env.upper - (2.0 * np.exp(1.0 - sol.grid.nodes) - 1.0))) < 1e-6
        report = sandwich_check(sol, env, tol=1e-3)
        assert report.passed

    def test_wrong_bound_negative_control(self):
        g = self.certified_driver()
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 400, scheme="implicit")
        env = sandwich_envelope(0.1, ONE_W, "1 + abs(y)", sol.grid)
        report = sandwich_check(sol, env, tol=1e-3)
        assert not report.passed

    def test_missing_certificate_inconclusive(self):
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(ZERO, xi, 32)
        env = sandwich_envelope(1.0, ONE_W, "1", sol.grid)
        report = sandwich_check(sol, env)
        assert report.status == "inconclusive"


class TestMonotoneFamily:
    def test_squared_terminal_quadrature_oracle(self):
        xi = TerminalCondition.parse("w^2")
        sols = capped_family(ZERO, xi, [1, 2, 4, 8], steps=200)
        report = monotone_family_check(sols, [1, 2, 4, 8])
        assert report.passed
        values = [s.y0 for s in sols]
        oracle = [
            normal_expectation(lambda x, n=n: np.minimum(x * x, n), 1.0, nodes=200_001)
            for n in (1, 2, 4, 8)
        ]
        for got, want in zip(values, oracle):
            assert abs(got - want) <= 2e-2
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_inactive_caps_coincide(self):
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sols = capped_family(ZERO, xi, [1, 2, 4], steps=50)
        report = monotone_family_check(sols, [1, 2, 4])
        assert report.passed
        assert sols[0].y0 == sols[1].y0 == sols[2].y0

    def test_discounted_squared_terminal(self):
        xi = TerminalCondition.parse("w^2")
        g = Generator.parse("-y")
        sols = capped_family(ZERO.with_certificate(None), xi, [1, 4], steps=100)
        assert monotone_family_check(sols, [1, 4]).passed
        sols2 = capped_family(g, xi, [1, 2, 4, 8], steps=200, scheme="implicit")
        report2 = monotone_family_check(sols2, [1, 2, 4, 8])
        assert report2.passed
        # cross-check against the discounted truncated moment e^{-T} E[B_T^2 ^ n]
        for sol, n in zip(sols2, (1, 2, 4, 8)):
            want = math.exp(-1.0) * normal_expectation(
                lambda x, n=n: np.minimum(x * x, n), 1.0, nodes=200_001
            )
            assert abs(sol.y0 - want) <= 2e-2

    def test_regression_family_is_inconclusive(self):
        # least squares need not keep the capped solutions ordered
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sols = [solve_mc_regression(Generator.parse("-y"), xi.truncated_above(n), 10, 2000, 2,
                                    seed=0) for n in (0.5, 1, 2)]
        report = monotone_family_check(sols, [0.5, 1, 2])
        assert report.status == "inconclusive"
        assert report.notes[0].startswith("mc-regression: least-squares regression does not")
        assert set(report.location) == {"t", "n", "n_next"}

    def test_n_list_must_increase(self):
        sols = capped_family(ZERO, TerminalCondition.parse("w^2"), [2, 2], steps=10)
        with pytest.raises(ValueError):
            monotone_family_check(sols, [2, 2])

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_solution_per_cap(self, count):
        sols = capped_family(ZERO, TerminalCondition.parse("w^2"), [1, 2, 4][:count], steps=10)
        with pytest.raises(ValueError, match="one solution per cap"):
            monotone_family_check(sols, [] if count == 0 else [1, 2])

    def test_family_must_share_a_substrate(self):
        xi = TerminalCondition.parse("w^2")
        sols = [solve_tree(ZERO, xi.truncated_above(1), 10),
                solve_tree(ZERO, xi.truncated_above(2), 20)]
        with pytest.raises(SubstrateMismatchError):
            monotone_family_check(sols, [1, 2])


class TestTransformResidual:
    def test_quadratic_driver_cancellation(self):
        g = Generator.parse("z^2 / 2")
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 400, scheme="implicit")
        report = transform_residual_check(sol, g, 1.0)
        assert report.passed

    def test_zero_driver(self):
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(ZERO, xi, 200)
        report = transform_residual_check(sol, ZERO, 1.0)
        assert report.passed

    def test_small_gamma_matches_untransformed(self):
        g = Generator.parse("-y")
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        sol = solve_tree(g, xi, 50)
        gamma = 1e-6
        report = transform_residual_check(sol, g, gamma, residual_coefficient=1e9)
        r_transformed = report.location["residual"] / gamma
        r_plain = one_step_residual(sol, g)
        assert abs(r_transformed - r_plain) <= 1e-4 * max(r_plain, 1e-12)

    def test_requires_tree_backend(self):
        from bsdelab.solver import solve_mc_regression

        sol = solve_mc_regression(ZERO, TerminalCondition.parse("w"), 10, 1000, 2, seed=0)
        with pytest.raises(ValueError):
            transform_residual_check(sol, ZERO, 1.0)


class TestUniquenessSmoke:
    def test_two_schemes_coincide(self):
        g = Generator.parse("-y + cos(z) / 2")
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        explicit, implicit = (solve_tree(g, xi, 100, scheme=s) for s in ("explicit", "implicit"))
        report = uniqueness_smoke_check(explicit, implicit)
        assert report.passed

    def test_runs_must_share_a_substrate(self):
        xi = TerminalCondition.parse("sin(w)", bound=1.0)
        with pytest.raises(SubstrateMismatchError):
            uniqueness_smoke_check(solve_tree(ZERO, xi, 10),
                                   solve_tree(ZERO, xi, 20, scheme="implicit"))


class TestComparisonSweep:
    def test_fifty_random_ordered_pairs(self):
        rng = np.random.default_rng(2026)
        failures = []
        for k in range(50):
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
            lo = solve_tree(g, xi, 200, scheme="implicit")
            hi = solve_tree(g_hi, xi_hi, 200, scheme="implicit")
            report = comparison_check(lo, hi, tol=1e-6)
            if not report.passed:
                failures.append((k, report.violation))
        assert failures == []


class TestNanGaps:
    def test_first_nan_wins_wherever_it_lies(self):
        pairs = [([-1.0, 0.5], lambda k: {"a": k}), ([2.0, math.nan], lambda k: {"b": k}),
                 ([math.nan], lambda k: {"c": k}), ([9.0], lambda k: {"d": k})]
        worst, where = worst_gap(pairs)
        assert math.isnan(worst) and where == {"b": 1}
        worst, where = worst_gap([([math.nan], lambda k: "first"), ([5.0], lambda k: "later")])
        assert math.isnan(worst) and where == "first"
        assert worst_gap([([1.0, 3.0, 3.0], lambda k: k), ([3.0], lambda k: -1)]) == (3.0, 1)
        # an N-d gap is read in C order, at coordinates that broadcast to its shape
        mesh = at_samples(a=np.array([[10.0], [20.0]]), b=np.array([[1.0, 2.0, 3.0]]))
        tied = np.array([[1.0, 0.0, 3.0], [3.0, 2.0, 0.0]])
        assert worst_gap([(tied, mesh)]) == (3.0, {"a": 10.0, "b": 3.0})
        worst, where = worst_gap([(np.array([[0.0, math.nan, 9.0], [math.nan, 0.0, 0.0]]), mesh),
                                  ([math.nan], lambda k: "later")])
        assert math.isnan(worst) and where == {"a": 10.0, "b": 2.0}

    def test_nan_after_the_first_level_fails_comparison(self):
        lo = solve_tree(ZERO, TerminalCondition.parse("0"), 8)
        hi = poisoned(solve_tree(ZERO, TerminalCondition.parse("1"), 8), 2, 1)
        report = comparison_check(lo, hi)
        assert report.status == "fail" and math.isnan(report.violation)
        assert report.location == {"t": float(lo.grid.nodes[2]), "index": 1}

    def test_one_step_residual_reports_nan(self):
        g = Generator.parse("-y")
        sol = solve_tree(g, TerminalCondition.parse("sin(w)"), 6, scheme="implicit")
        assert 0.0 <= one_step_residual(sol, g) < 1e-12
        assert math.isnan(one_step_residual(poisoned(sol, 6, 3), g))


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


BLOCK_DRIVERS = ("0.3*exp(t)*y + sin(t)*z", "-0.4*y*ln(1 + t) + sqrt(t)*cos(z)",
                 "0.2*t^1.5*sin(y) - z*exp(-t)/2", "z^2/2 + 0.1*sin(t)*y")
GROWTH = OneSidedSuperLinear(ONE_W, "1 + abs(y)", "1")
XI = TerminalCondition.parse("sin(w)", bound=1.0)
XI_PRIME = TerminalCondition.parse("max(sin(w), 0.5*cos(w))", bound=1.0)
CAPS = (0.5, 1.0, 2.0)


@functools.lru_cache(maxsize=4)
def block_instance(driver, steps, scheme, backend="tree"):
    """Solutions for every block-read check: (g, g', y, y', the capped family, the
    other scheme's y, the envelopes)."""
    g = Generator.parse(driver).with_certificate(GROWTH)
    g_prime = Generator.parse(f"{driver} + 0.1*sqrt(t)*y")
    if backend == "tree":
        def solve(g, xi, scheme=scheme):
            return solve_tree(g, xi, steps, scheme=scheme)
    else:
        def solve(g, xi, scheme=scheme):
            return solve_mc_regression(g, xi, steps, 2000, 2, scheme=scheme, seed=3)
    sol, sol_prime = solve(g, XI), solve(g_prime, XI_PRIME)
    family = [solve(g, TerminalCondition.parse("w^2").truncated_above(n)) for n in CAPS]
    other = solve(g, XI, scheme="implicit" if scheme == "explicit" else "explicit")
    envs = [sandwich_envelope(b, ONE_W, "1 + abs(y)", sol.grid) for b in (1.0, 0.3)]
    return g, g_prime, sol, sol_prime, family, other, envs


BLOCK_CASES = [(d, n, s, b) for d in BLOCK_DRIVERS for n in (1, 7, 64, 400)
               for s in ("explicit", "implicit") for b in (1, 7, 8192)]


@pytest.mark.simd_exact
class TestBlockReading:
    """Every check that reads solutions in blocks of levels gives the status,
    the violation bits and the location of the level-by-level reference."""

    def assert_matches(self, report, worst, where, inconclusive=False):
        if inconclusive:
            assert report.status == "inconclusive"
            assert f"largest gap {worst:.3g} is no verdict" in report.notes[0]
        else:
            assert report.status == ("pass" if worst <= report.tolerance else "fail")
            assert same_bits(report.violation, worst), (report.violation, worst)
        assert report.location == where

    def check_all(self, instance, mc=False):
        g, g_prime, sol, sol_prime, family, other, envs = instance
        self.assert_matches(comparison_check(sol, sol_prime),
                            *comparison_reference(sol, sol_prime), mc)
        for which in ("along_prime", "along_unprimed"):
            self.assert_matches(indicator_premise_check(sol, sol_prime, g, g_prime, which),
                                *premise_reference(sol, sol_prime, g, g_prime, which), mc)
        for env in envs:
            self.assert_matches(sandwich_check(sol, env), *sandwich_reference(sol, env))
        self.assert_matches(monotone_family_check(family, CAPS),
                            *monotone_reference(family, CAPS), mc)
        self.assert_matches(uniqueness_smoke_check(sol, other), *uniqueness_reference(sol, other))

    @pytest.mark.parametrize("driver, steps, scheme, block", BLOCK_CASES)
    def test_tree_checks_match_the_levelwise_reference(self, monkeypatch, driver, steps, scheme,
                                                       block):
        monkeypatch.setattr(verify, "_BLOCK_SAMPLES", block)
        instance = block_instance(driver, steps, scheme)
        self.check_all(instance)
        g, sol = instance[0], instance[2]
        assert same_bits(one_step_residual(sol, g), one_step_residual_reference(sol, g))
        report = transform_residual_check(sol, g, 0.5)
        violation, location = transform_residual_reference(sol, g, 0.5)
        assert report.status == ("pass" if violation <= 0.0 else "fail")
        assert same_bits(report.violation, violation) and report.location == location

    @pytest.mark.parametrize("block", [1, 7, 8192])
    def test_monte_carlo_checks_match_the_levelwise_reference(self, monkeypatch, block):
        monkeypatch.setattr(verify, "_BLOCK_SAMPLES", block)
        self.check_all(block_instance(BLOCK_DRIVERS[0], 10, "explicit", "mc-regression"), mc=True)

    def test_a_wide_level_is_read_in_place(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK_SAMPLES", 7)
        sol = block_instance(BLOCK_DRIVERS[0], 10, "explicit", "mc-regression")[2]
        blocks = list(verify._blocks(sol.grid.nodes, sol.y))
        assert len(blocks) == len(sol.y)
        assert all(b.rows[0] is row for b, row in zip(blocks, sol.y))

    @pytest.mark.parametrize("block", [7, 8192])
    @pytest.mark.parametrize("level", [0, 3])
    def test_no_pair_straddles_two_levels(self, monkeypatch, block, level):
        # negative control: the first node of y_{i+2} follows y_{i+1}, the rows that
        # level i averages, in the joined next rows; poisoning it must leave the
        # residual at the last node of level i as it was and reach level i + 1
        monkeypatch.setattr(verify, "_BLOCK_SAMPLES", block)
        g = Generator.parse(BLOCK_DRIVERS[3])
        sol = solve_tree(g, XI, 7, scheme="implicit")
        seen = []

        def residuals(s):
            seen.clear()
            report = transform_residual_check(s, g, 0.5)
            return report, {tuple(locate(k).values()): float(gap[k])
                            for gap, locate in seen for k in range(len(gap))}

        def recording(pairs):
            pairs = list(pairs)
            seen.extend(pairs)
            return worst_gap(pairs)

        monkeypatch.setattr(verify, "worst_gap", recording)
        t = sol.grid.nodes
        _, clean = residuals(sol)
        report, dirty = residuals(poisoned(sol, level + 2, 0))
        last = (float(t[level]), level)
        assert math.isfinite(clean[last]) and same_bits(dirty[last], clean[last])
        assert math.isnan(dirty[(float(t[level + 1]), 0)])
        assert report.status == "fail" and math.isnan(report.violation)
