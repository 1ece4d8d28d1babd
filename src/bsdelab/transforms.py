"""Exponential change of variables for quadratic-in-z drivers.

Mapping a pair (y, z) to (Y, Z) = (e^{gamma y}, gamma Y z) turns the driver
g into

    G(t, Y, Z) = [Y > 0] ( gamma Y g(t, ln(Y)/gamma, Z/(gamma Y)) - Z^2 / (2Y) ),

with G defined as 0 for Y <= 0.  For g = (gamma/2) z^2 the quadratic term
cancels exactly and G vanishes identically on Y > 0, which is what makes the
transform useful: quadratic drivers become (nearly) driverless after the
change of variables.
"""

from __future__ import annotations

import numpy as np

from .generators import _as_univariate
from .ode_bounds import _reverse_cumtrapz

__all__ = [
    "exp_transform_solution",
    "inverse_exp_transform",
    "exp_transform_generator",
    "qs_bounds",
    "gamma_for_band",
]

# gamma_for_band takes the max of h over this many equispaced points of [-K, K]
GAMMA_BAND_SAMPLES = 2001


def exp_transform_solution(y, z, gamma):
    """(Y, Z) = (exp(gamma y), gamma Y z); accepts scalars or arrays."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    Y = np.exp(gamma * np.asarray(y, dtype=float))
    Z = gamma * Y * np.asarray(z, dtype=float)
    if np.isscalar(y) and np.isscalar(z):
        return float(Y), float(Z)
    return Y, Z


def inverse_exp_transform(Y, Z, gamma):
    """(y, z) = (ln(Y)/gamma, Z/(gamma Y)); requires Y > 0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    Yarr = np.asarray(Y, dtype=float)
    if np.any(Yarr <= 0):
        raise ValueError("inverse transform requires Y > 0")
    y = np.log(Yarr) / gamma
    z = np.asarray(Z, dtype=float) / (gamma * Yarr)
    if np.isscalar(Y) and np.isscalar(Z):
        return float(y), float(z)
    return y, z


def exp_transform_generator(g, gamma):
    """Driver of the transformed pair as a callable (t, Y, Z) -> value.

    Vanishes (by definition, not by error) wherever Y <= 0; the original
    driver is only evaluated on the Y > 0 part.  ``t`` is a scalar or one
    time per sample.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def transformed(t, Y, Z):
        Yarr = np.asarray(Y, dtype=float)
        Zarr = np.asarray(Z, dtype=float)
        scalar = np.isscalar(Y) and np.isscalar(Z)
        Yb, Zb = np.broadcast_arrays(Yarr, Zarr)
        out = np.zeros(Yb.shape)
        pos = Yb > 0
        if np.any(pos):
            Yp = Yb[pos]
            Zp = Zb[pos]
            tp = np.broadcast_to(t, Yb.shape)[pos] if np.ndim(t) else t
            inner = g(tp, np.log(Yp) / gamma, Zp / (gamma * Yp))
            out[pos] = gamma * Yp * np.asarray(inner) - Zp * Zp / (2.0 * Yp)
        return float(out) if scalar else out

    return transformed


def qs_bounds(alpha_b, beta_b, u_w, grid):
    """Exponential lower/upper barriers for positive transformed solutions.

    Q_t = alpha exp(-int_t^T u), S_t = beta exp(int_t^T u), for terminal data
    squeezed into [alpha, beta] with 0 < alpha <= 1 <= beta.  Nodewise,
    Q_0 <= Q_t <= alpha and beta <= S_t <= S_0.
    """
    if not (0.0 < alpha_b <= 1.0 <= beta_b):
        raise ValueError("need 0 < alpha <= 1 <= beta")
    nodes = grid.nodes
    u_vals = np.asarray(u_w(nodes), dtype=float)
    if np.any(u_vals < 0):
        raise ValueError("the time weight must be nonnegative")
    tail = _reverse_cumtrapz(u_vals, nodes)
    Q = alpha_b * np.exp(-tail)
    S = beta_b * np.exp(tail)
    return Q, S


def gamma_for_band(h, band):
    """2 (max of h over [-K, K] + 1): the transform exponent for a y-band."""
    if band <= 0:
        raise ValueError("band must be positive")
    h = _as_univariate(h)
    x = np.linspace(-band, band, GAMMA_BAND_SAMPLES)
    return 2.0 * (float(np.max(np.asarray(h(x), dtype=float))) + 1.0)
