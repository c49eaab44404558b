"""Oracles for the acceptance checks and the unit tests: the two proofs of the
cancellation that no command runs.

`quantum_potential` is the numerical one. It gives
Q = -(hbar^2 / 2m) (sqrt(rho))'' / sqrt(rho) of a density rho = |psi|^2,
per particle in joules so it compares directly with the other potential
energies. `residual_potential` and `residual_potential_expanded` are the
analytic one, two algebraic routes to the closed-form residual of the
truncated engineered packet.

Q diverges at nodes of the engineered profile. Every numerical Q comes with
a validity mask, and the two travel together as a `RealField`: points where
the amplitude is negligible or where the finite-difference stencil is
corrupted by a nearby node are flagged invalid, and a two-point guard band is
eroded around them. `profile_node_mask` marks the nodes of the profile itself.

pytest does not collect this module; the test modules import it.
"""

from dataclasses import dataclass

import numpy as np

from qpot.core import Grid1D
from qpot.engineering import (DEFAULT_PROFILE, engineered_profile, profile_derivative,
                              profile_factor, profile_on_grid)
from qpot.errors import DomainError, EmptyFieldError, GridError, NumericsError, QpotError


class NodeSingularity(QpotError):
    """Evaluation requested too close to a node of the oscillating profile."""

    def __init__(self, z):
        self.z = z
        super().__init__(f"profile node too close to z = {z!r}")


@dataclass(frozen=True)
class RealField:
    """Real scalar field on a grid, finite wherever its mask is valid."""

    grid: Grid1D
    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.valid, dtype=bool)
        if vals.shape != self.grid.z.shape or mask.shape != vals.shape:
            raise GridError(f"values {vals.shape} and mask {mask.shape} do not match "
                            f"grid ({self.grid.n_points},)")
        if not np.all(np.isfinite(vals[mask])):
            raise NumericsError("non-finite value at a valid grid point")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "valid", mask)


AMPLITUDE_CUT = 1e-6  # relative sqrt(rho) threshold for masking
CURVATURE_CUT = 0.05  # dimensionless curvature |d2(sqrt rho)| h^2 / sqrt(rho)
GUARD_BAND = 2  # grid points eroded around every masked point
NODE_TOL = 1e-6  # |alpha| / hypot(c1, c2) closer than this to a node is rejected


def _second_derivative(values, dz, spacing=1):
    """Central 3-point second derivative at stride `spacing` grid cells."""
    out = np.full_like(values, np.nan)
    s = spacing
    out[s:-s] = (values[2 * s :] - 2 * values[s:-s] + values[: -2 * s]) / (s * dz) ** 2
    return out


def _widen(bad, guard):
    """bad widened by `guard` points on each side; it does not wrap around."""
    out = bad.copy()
    for k in range(1, guard + 1):
        out[k:] |= bad[:-k]
        out[:-k] |= bad[k:]
    return out


def quantum_potential(grid, rho, params):
    """Q = -(hbar^2/2m) (sqrt rho)''/sqrt(rho) of the density rho on grid, masked.

    The second derivative is a 3-point central stencil refined by one
    Richardson step (combining spacings h and 2h). A point is masked when
    its amplitude is below AMPLITUDE_CUT of the peak, or when the
    dimensionless curvature |d2 sqrt(rho)| h^2 / sqrt(rho) at either stencil
    width exceeds CURVATURE_CUT: genuine packet structure varies on scales
    far above the grid spacing, so a large value always indicates an
    unresolved node or numerical junk, not physics. A guard band is then
    eroded around every masked point.
    """
    vals = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericsError("non-finite value in the density")
    if np.any(vals < 0):
        raise DomainError("density must be non-negative")
    dz = grid.dz
    amp = np.sqrt(vals)
    peak = amp.max()
    if peak == 0:
        raise EmptyFieldError("density is identically zero")

    d2h = _second_derivative(amp, dz, 1)
    d22 = _second_derivative(amp, dz, 2)
    d2 = (4.0 * d2h - d22) / 3.0

    valid = amp >= AMPLITUDE_CUT * peak
    with np.errstate(invalid="ignore", divide="ignore"):
        curv_h = np.abs(d2h) * dz**2 / np.where(amp > 0, amp, 1.0)
        curv_2h = np.abs(d22) * (2 * dz) ** 2 / np.where(amp > 0, amp, 1.0)
        junk = (curv_h > CURVATURE_CUT) | (curv_2h > CURVATURE_CUT)
    valid &= ~junk
    valid &= np.isfinite(d2)
    valid = ~_widen(~valid, GUARD_BAND)

    if not np.any(valid):
        raise EmptyFieldError("all points masked in quantum_potential")

    q = np.zeros_like(vals)
    q[valid] = -(params.hbar**2 / (2 * params.mass)) * d2[valid] / amp[valid]
    return RealField(grid, q, valid)


def residual_potential(z, params, spec=DEFAULT_PROFILE):
    """Closed-form net potential left over after the Gaussian truncation.

    For the packet P(z) exp(-(z-z0)^2/4 sigma^2) the quantum potential is
    exactly +c4/z^4 plus

        Q_res = (hbar^2 / 4 m sigma^2) [1 + 2 s P'/P - s^2/(2 sigma^2)],

    s = z - z0. (Write sqrt(rho) = P e with e the envelope; then
    (sqrt rho)''/sqrt(rho) = P''/P + 2 P'e'/(P e) + e''/e, the first term
    cancels the surface attraction, and e'/e = -s/2 sigma^2,
    e''/e = s^2/4 sigma^4 - 1/2 sigma^2 collect into the bracket above.)
    Setting P' = 0 recovers the pure-Gaussian quantum potential, a useful
    sanity anchor: Q_res(z0) = +hbar^2/(4 m sigma^2).

    Raises NodeSingularity when any requested point sits within NODE_TOL of
    a node of the oscillating factor.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("residual_potential requires z > 0")
    _node_check(z, params, spec)
    z0, sig = params.z0, params.sigma
    s = z - z0
    p = engineered_profile(z, params, spec)
    dp = profile_derivative(z, params, spec)
    pref = params.hbar**2 / (4 * params.mass * sig**2)
    out = pref * (1.0 + 2.0 * s * dp / p - s**2 / (2 * sig**2))
    return out if out.ndim else float(out)


def residual_potential_expanded(z, params, spec=DEFAULT_PROFILE):
    """Same residual written out through the oscillating factor alpha.

    With P = z alpha, alpha = c1 cos(theta) + c2 sin(theta):

        Q_res = (hbar^2/2m) [ (6 - 4 z0/z + 4 s alpha'/alpha) / zeta
                              - 4 s^2 / zeta^2 ],     zeta = 4 sigma^2.

    Algebraically identical to residual_potential; kept as an independent
    route for cross-checking.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("residual_potential_expanded requires z > 0")
    _node_check(z, params, spec)
    z0, sig = params.z0, params.sigma
    a = params.profile_scale
    th = a / z
    alpha = spec.c1 * np.cos(th) + spec.c2 * np.sin(th)
    dalpha = (a / z**2) * (spec.c1 * np.sin(th) - spec.c2 * np.cos(th))
    s = z - z0
    zeta = 4 * sig**2
    pref = params.hbar**2 / (2 * params.mass)
    out = pref * ((6.0 - 4.0 * z0 / z + 4.0 * s * dalpha / alpha) / zeta
                  - 4.0 * s**2 / zeta**2)
    return out if out.ndim else float(out)


def _node_check(z, params, spec):
    """Raise NodeSingularity at the first z (all > 0) near a profile node."""
    alpha = profile_factor(z, params, spec)
    near = np.abs(alpha) < NODE_TOL * np.hypot(spec.c1, spec.c2)
    if np.any(near):
        raise NodeSingularity(float(z[near][0]))


def profile_node_mask(grid, params, spec=DEFAULT_PROFILE, rel_tol=1e-6,
                      guard=GUARD_BAND):
    """Boolean mask, True away from profile nodes.

    A grid point is inside the node zone when |P| < rel_tol * max |P| over
    the grid; the zone is widened by `guard` points on each side.
    """
    p = np.abs(profile_on_grid(grid, params, spec))
    ok = p >= rel_tol * p.max()
    ok[grid.z <= 0] = False
    return ~_widen(~ok, guard)
