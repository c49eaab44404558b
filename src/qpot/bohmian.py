"""Density-weighted quantum-potential maps of the engineered packet, for qpot fields.

The quantum potential Q = -(hbar^2 / 2m) (sqrt(rho))'' / sqrt(rho) of the
truncated packet P(z) exp(-(z-z0)^2/4 sigma^2) is +c4/z^4, which cancels
the surface attraction, plus a residual Q_res left by the Gaussian
envelope. Q diverges at the nodes of P; the density-weighted rho Q does
not, and `weighted_fields` returns it.
"""

import numpy as np

from .engineering import DEFAULT_PROFILE, check_grid, profile_derivative, profile_on_grid
from .errors import EmptyFieldError, NumericsError


def weighted_fields(grid, params, spec=DEFAULT_PROFILE, support_cut=1e-6):
    """Density-weighted fields of the truncated engineered packet.

    Returns the arrays rho * Q, rho * Q_res and rho and their one support
    mask. The product rho * Q is evaluated in closed form, which is
    polynomial in P and P' and therefore finite through the profile nodes:

        rho Q     = rho c4/z^4 + rho Q_res
        rho Q_res = N e^2 pref (P^2 + 2 s P P' - s^2 P^2 / 2 sigma^2)

    The mask marks the packet support, rho >= support_cut * max rho, where
    both fields must be finite; z = 0 is always masked (rho vanishes there
    exactly while Q grows without bound, so the product has no limit there).
    """
    check_grid(grid, params)
    z = grid.z
    z0, sig = params.z0, params.sigma
    pos = z > 0

    p = profile_on_grid(grid, params, spec)
    dp = np.zeros_like(z)
    dp[pos] = profile_derivative(z[pos], params, spec)
    env2 = np.exp(-((z - z0) ** 2) / (2 * sig**2))
    rho = env2 * p**2
    norm = np.trapezoid(rho, z)
    if norm <= 0:
        raise EmptyFieldError("engineered density vanished on this grid")
    rho /= norm

    s = z - z0
    pref = params.hbar**2 / (4 * params.mass * sig**2)
    w_res = (env2 / norm) * pref * (p**2 + 2 * s * p * dp - s**2 * p**2 / (2 * sig**2))
    w_cp = np.zeros_like(z)
    w_cp[pos] = rho[pos] * params.c4 / z[pos] ** 4
    w_q = w_cp + w_res

    support = rho >= support_cut * rho.max()
    support[~pos] = False
    if not support.any():
        raise EmptyFieldError(f"support_cut = {support_cut!r} leaves no supported point")
    if not np.isfinite(w_q[support]).all():  # w_q = w_cp + w_res: covers both
        raise NumericsError("non-finite weighted field at a supported point")
    return w_q, w_res, rho, support
