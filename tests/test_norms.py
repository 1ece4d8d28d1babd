import math

import numpy as np
import pytest

from bsdelab.generators import Generator, TerminalCondition
from bsdelab.norms import DYADIC_LADDER, estimate_norms
from bsdelab.solver import solve_mc_regression, solve_tree
from tests.oracles import remaining_variation_reference, tail_table_reference

ZERO = Generator.parse("0")


class TestConstantSolution:
    def test_all_norms_trivial(self):
        sol = solve_tree(ZERO, TerminalCondition.parse("1"), 50)
        report = estimate_norms(sol, [0.5, 1.0, 2.0, 4.0])
        for p in (0.5, 1.0, 2.0, 4.0):
            assert report.s_norm(p) == pytest.approx(1.0, abs=1e-12)
            assert report.m_norm(p) == pytest.approx(0.0, abs=1e-12)
        assert report.sup_process == pytest.approx(1.0, abs=1e-12)
        assert report.bmo_diagnostic == pytest.approx(0.0, abs=1e-12)


class TestBrownianTerminal:
    def setup_method(self):
        self.sol = solve_tree(ZERO, TerminalCondition.parse("w"), 100)

    def test_quadratic_variation_norm(self):
        report = estimate_norms(self.sol, [2.0])
        # z is identically 1 for this instance
        assert abs(report.m_norm(2.0) - 1.0) <= 2e-2

    def test_bmo_diagnostic(self):
        report = estimate_norms(self.sol, [2.0])
        assert abs(report.bmo_diagnostic - 1.0) <= 2e-2


class TestGeneralProperties:
    def test_s_norm_nondecreasing_in_p(self):
        g = Generator.parse("-y + z / 4")
        sol = solve_tree(g, TerminalCondition.parse("sin(w) + w^2 / 4"), 60, scheme="implicit")
        ps = [1.0, 1.5, 2.0, 3.0, 5.0]
        report = estimate_norms(sol, ps)
        values = [report.s_norm(p) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_tail_table_nonnegative_and_decreasing_in_cutoff(self):
        sol = solve_tree(ZERO, TerminalCondition.parse("w^2"), 40)
        report = estimate_norms(sol, [1.0])
        assert np.all(report.class_d_table >= 0.0)
        assert np.all(np.diff(report.class_d_table, axis=1) <= 1e-12)

    def test_positive_exponent_required(self):
        sol = solve_tree(ZERO, TerminalCondition.parse("1"), 10)
        with pytest.raises(ValueError):
            estimate_norms(sol, [0.0])

    def test_mc_backend(self):
        sol = solve_mc_regression(ZERO, TerminalCondition.parse("w"), 25, 20_000, 2, seed=2)
        report = estimate_norms(sol, [2.0])
        assert abs(report.m_norm(2.0) - 1.0) <= 5e-2
        assert report.sample_paths == 20_000

    def test_tree_sampling_deterministic(self):
        sol = solve_tree(ZERO, TerminalCondition.parse("w"), 30)
        a = estimate_norms(sol, [1.0], seed=1)
        b = estimate_norms(sol, [1.0], seed=1)
        assert a.s_norm(1.0) == b.s_norm(1.0)

    def test_tail_table_matches_normal_closed_form(self):
        # y_t = B_t for the driverless Brownian terminal; for X ~ N(0, t),
        # E[|X| 1_{|X| > c}] = sqrt(2 t / pi) exp(-c^2 / (2 t)).  The dyadic
        # cutoffs never hit the lattice (c / sqrt(dt) = 2^k 8 sqrt(2) is not
        # an integer) so the indicator is unambiguous, but the cutoff still
        # falls between lattice atoms, an O(sqrt(dt)) boundary effect.
        sol = solve_tree(ZERO, TerminalCondition.parse("w"), 128)
        report = estimate_norms(sol, [1.0])
        t_idx = 128  # terminal slice, t = 1
        for k, c in enumerate(report.class_d_ladder):
            want = math.sqrt(2.0 / math.pi) * math.exp(-c * c / 2.0)
            got = report.class_d_table[t_idx, k]
            assert abs(got - want) <= 3e-2, (c, got, want)


@pytest.mark.parametrize("solve", [
    lambda: solve_tree(ZERO, TerminalCondition.parse("w"), 200),  # the shipped suite's model
    lambda: solve_tree(Generator.parse("-y^3 + abs(z)^1.5 * sin(y)"),
                       TerminalCondition.parse("sin(w)"), 50, scheme="implicit"),
    lambda: solve_mc_regression(Generator.parse("-y"), TerminalCondition.parse("sin(w)"),
                                10, 2000, 2, seed=3),  # tests/data/mc_verify.json
], ids=["tree-brownian", "tree-super-linear", "mc-discount"])
def test_level_means_match_the_reference(solve):
    sol = solve()
    report = estimate_norms(sol, [1.0])
    want = tail_table_reference(sol, DYADIC_LADDER)
    assert np.array_equal(report.class_d_table.view(np.int64), want.view(np.int64))
    if sol.backend == "tree":
        assert report.bmo_diagnostic == remaining_variation_reference(sol)
