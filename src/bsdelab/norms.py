"""Pathwise norm and integrability diagnostics for discrete solutions.

The supremum-type norm uses the running maximum of |y| along a path and the
quadratic-variation norm the pathwise sum of z^2 dt:

    S^p = ( E[ (sup_i |y_i|)^p ] )^(1 and 1/p)
    M^p = ( E[ (sum_i z_i^2 dt)^(p/2) ] )^(1 and 1/p)

On the Monte-Carlo backend both are sample means over the solved ensemble.
The recombining tree stores only nodal marginals, so pathwise functionals
are estimated by resampling a fixed-seed ensemble of paths through the tree;
the tail table and the conditional quadratic-variation diagnostic, which
only need marginals, are computed exactly by quadrature over node weights
and a backward recursion.  The tail table stands in for uniform
integrability sampled at deterministic times; no verdict is attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import TreeModel

__all__ = ["NormReport", "estimate_norms", "DYADIC_LADDER"]

DYADIC_LADDER = tuple(2.0**k for k in range(-3, 11))
# paths resampled through the tree for the pathwise norms
SAMPLE_PATHS = 32768


@dataclass(frozen=True)
class NormReport:
    sup_process: float
    s_norms: dict  # p -> estimate
    m_norms: dict  # p -> estimate
    class_d_times: np.ndarray
    class_d_ladder: tuple
    class_d_table: np.ndarray  # shape (times, ladder)
    bmo_diagnostic: float
    sample_paths: int

    def s_norm(self, p):
        return self.s_norms[p]

    def m_norm(self, p):
        return self.m_norms[p]


def _tree_path_samples(sol, count, seed):
    """(y, z) along ``count`` sampled tree paths; fixed seed, fixed layout."""
    steps = sol.grid.steps
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    ups = gen.integers(0, 2, size=(count, steps), dtype=np.int64)
    j = np.zeros(count, dtype=np.int64)
    ypath = np.empty((steps + 1, count))
    zpath = np.empty((steps, count))
    ypath[0] = sol.y[0][j]
    for i in range(steps):
        zpath[i] = sol.z[i][j]
        j = j + ups[:, i]
        ypath[i + 1] = sol.y[i + 1][j]
    return ypath, zpath


def _powers(base, p):
    return base**p if p != 1.0 else base


def estimate_norms(sol, p_list, *, seed=0):
    """Norm estimates and integrability diagnostics for a solved pair (tree: SAMPLE_PATHS paths)."""
    p_list = tuple(float(p) for p in p_list)
    if any(p <= 0 for p in p_list):
        raise ValueError("norm exponents must be positive")
    dt = sol.grid.dt
    if sol.backend == "tree":
        ypath, zpath = _tree_path_samples(sol, SAMPLE_PATHS, seed)
        n_samples = SAMPLE_PATHS
    else:
        ypath = np.asarray(sol.y)
        zpath = np.asarray(sol.z)
        n_samples = ypath.shape[1]

    run_max = np.max(np.abs(ypath), axis=0)
    qv = np.sum(zpath * zpath, axis=0) * dt
    s_norms = {}
    m_norms = {}
    for p in p_list:
        expo = min(1.0, 1.0 / p)
        s_norms[p] = float(np.mean(_powers(run_max, p)) ** expo)
        m_norms[p] = float(np.mean(_powers(np.sqrt(qv), p)) ** expo)
    sup_process = float(np.mean(run_max))

    # tail table E[|y_t| 1_{|y_t| > c}], one level's cut-offs stacked in one
    # row: exact on the tree via node weights
    ladder = np.array(DYADIC_LADDER)[:, None]
    table = np.array(sol.level_means(a * (a > ladder) for a in map(np.abs, sol.y)))

    # conditional remaining quadratic variation: exact backward recursion on
    # the tree; unconditional tails on the ensemble
    if sol.backend == "tree":
        steps = sol.grid.steps
        rem = np.zeros(steps + 1)
        bmo = 0.0
        for i in range(steps - 1, -1, -1):
            rem = sol.z[i] * sol.z[i] * dt + TreeModel.pairwise_average(rem)
            bmo = max(bmo, float(np.max(rem)))
    else:
        tail = np.cumsum((zpath * zpath * dt)[::-1], axis=0)[::-1]
        bmo = float(np.max(np.mean(tail, axis=1))) if tail.size else 0.0

    return NormReport(
        sup_process=sup_process,
        s_norms=s_norms,
        m_norms=m_norms,
        class_d_times=sol.grid.nodes,
        class_d_ladder=DYADIC_LADDER,
        class_d_table=table,
        bmo_diagnostic=bmo,
        sample_paths=n_samples,
    )
