"""Construction of the engineered oscillating profile and wavepackets.

The profile P(z) = z [c1 cos(theta) + c2 sin(theta)] with theta = a/z and
a = sqrt(2 m c4)/hbar solves P'' = -(a^2/z^4) P, which is exactly the
condition for the quantum potential of the density P^2 to cancel the -c4/z^4
surface attraction. Multiplying by a Gaussian envelope makes the state
normalizable at the cost of a small residual potential handled in the
bohmian module.

Also provides the benchmark Gaussian, the two-pulse phase-imprinting
construction that approximates the engineered packet from a Gaussian, and a
quadrature fidelity measure.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Wavefunction, normalize
from .errors import ConfigError, DomainError, GridError, TruncationWarning


@dataclass(frozen=True)
class ProfileSpec:
    """Shape of the profile: its coefficients and whether to take |P|. The
    envelope is the Gaussian of the PhysicalParams z0 and sigma."""

    c1: float = 1.0
    c2: float = 0.0
    use_abs: bool = False

    def __post_init__(self):
        if self.c1 == 0 and self.c2 == 0:
            raise ConfigError("profile coefficients (c1, c2) must not both vanish")


DEFAULT_PROFILE = ProfileSpec()  # P(z) = z cos(a/z)


def profile_factor(z, params, spec):
    """The oscillating factor alpha = c1 cos(a/z) + c2 sin(a/z) of P = z alpha."""
    th = params.profile_scale / z
    return spec.c1 * np.cos(th) + spec.c2 * np.sin(th)


def engineered_profile(z, params, spec=DEFAULT_PROFILE):
    """P(z) = z [c1 cos(a/z) + c2 sin(a/z)], optionally |P(z)|."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("engineered_profile requires z > 0 (P -> 0 as z -> 0)")
    p = z * profile_factor(z, params, spec)
    if spec.use_abs:
        p = np.abs(p)
    return p if p.ndim else float(p)


def profile_on_grid(grid, params, spec):
    """engineered_profile on the grid points, 0 at z = 0 where P -> 0."""
    z = grid.z
    p = np.zeros_like(z)
    pos = z > 0
    p[pos] = engineered_profile(z[pos], params, spec)
    return p


def profile_derivative(z, params, spec=DEFAULT_PROFILE):
    """Analytic dP/dz.

    With alpha = c1 cos(theta) + c2 sin(theta) and theta = a/z:
    P' = alpha + z d(alpha)/dz = alpha + (a/z)(c1 sin(theta) - c2 cos(theta)).
    For use_abs the derivative of |P| is sign(P) P' (undefined at nodes).
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("profile_derivative requires z > 0")
    a = params.profile_scale
    th = a / z
    alpha = profile_factor(z, params, spec)
    deriv = alpha + (a / z) * (spec.c1 * np.sin(th) - spec.c2 * np.cos(th))
    if spec.use_abs:
        deriv = np.sign(z * alpha) * deriv
    return deriv if deriv.ndim else float(deriv)


def _warn_truncated(grid, z0, sigma):
    """Warns when more than 1e-6 of the probability mass of the Gaussian
    exp(-(z-z0)^2 / 2 sigma^2) lies beyond z_max."""
    tail = 0.5 * math.erfc((grid.z_max - z0) / (math.sqrt(2) * sigma))
    if tail > 1e-6:
        warnings.warn(f"{tail:.2e} of the packet mass lies beyond z_max = "
                      f"{grid.z_max:.2e} m", TruncationWarning, stacklevel=3)


def check_grid(grid, params):
    """GridError unless dz resolves the profile oscillation at the absorber
    edge; then _warn_truncated for the packet of params' z0 and sigma."""
    if not grid.resolves_profile(params):
        raise GridError("grid spacing does not resolve the profile oscillation at the "
                        f"absorber edge (dz = {grid.dz:.3e} m)")
    _warn_truncated(grid, params.z0, params.sigma)


def engineered_packet(grid, params, spec=DEFAULT_PROFILE):
    """Engineered profile times the Gaussian envelope, normalized, psi(0) = 0."""
    check_grid(grid, params)
    envelope = np.exp(-((grid.z - params.z0) ** 2) / (4 * params.sigma**2))
    return normalize(Wavefunction(grid, profile_on_grid(grid, params, spec) * envelope))


def gaussian_packet(grid, z0, sigma):
    """Normalized Gaussian exp(-(z-z0)^2 / 4 sigma^2), 0 at every z <= 0.

    Warns when more than 1e-6 of the probability mass lies beyond z_max.
    """
    if z0 <= 0 or sigma <= 0:
        raise ConfigError("gaussian_packet requires z0 > 0 and sigma > 0")
    _warn_truncated(grid, z0, sigma)
    vals = np.exp(-((grid.z - z0) ** 2) / (4 * sigma**2)).astype(complex)
    vals[grid.z <= 0] = 0.0
    return normalize(Wavefunction(grid, vals))


def phase_imprint(psi, phi, a, b):
    """One imprint pulse psi -> psi (a e^{i phi} + b e^{-i phi}), renormalized.

    phi is the imprinted phase on the grid. With |a| = |b| the factor is a
    pure sinusoid of phi: a = b gives cos(phi), a = -b gives i sin(phi).
    """
    factor = a * np.exp(1j * phi) + b * np.exp(-1j * phi)
    return normalize(psi.with_values(psi.values * factor))


def two_stage_imprint(grid, params, slope):
    """The two-pulse preparation: start from the benchmark Gaussian, imprint
    sin(slope * z) (approximately linear in z for small slope), then imprint
    cos(a/z), taken as 0 at z = 0 where the packet vanishes, to stamp the
    oscillating factor on."""
    z = grid.z
    base = gaussian_packet(grid, params.z0, params.sigma)
    inverse = np.divide(params.profile_scale, z, out=np.zeros_like(z), where=z > 0)
    return phase_imprint(phase_imprint(base, slope * z, 0.5, -0.5), inverse, 0.5, 0.5)


def fidelity(psi_a, psi_b):
    """|<a|b>|^2 by trapezoid quadrature; both states on the same grid."""
    if psi_a.grid != psi_b.grid:
        raise GridError("fidelity requires both states on the same grid")
    overlap = np.trapezoid(np.conj(psi_a.values) * psi_b.values, psi_a.grid.z)
    return float(min(abs(overlap) ** 2, 1.0))
