"""Potential landscape near the surface.

Real part: attractive -c4/z^4 surface potential, flattened to a constant
plateau below the absorber edge delta, plus an optional harmonic trap
centered at z0. Imaginary part: an absorbing ramp growing linearly from zero
at z = delta to -i * absorber_strength at the surface.
"""

from dataclasses import dataclass

import numpy as np

from .core import Grid1D, RealField
from .errors import ConfigError, DomainError, GridError


@dataclass(frozen=True)
class ComplexPotential:
    grid: Grid1D
    real_part: np.ndarray
    imag_part: np.ndarray  # <= 0 everywhere: absorption only

    def __post_init__(self):
        re = np.asarray(self.real_part, dtype=float)
        im = np.asarray(self.imag_part, dtype=float)
        if re.shape != self.grid.z.shape or im.shape != self.grid.z.shape:
            raise GridError("potential arrays do not match the grid")
        if np.any(im > 0):
            raise ConfigError("imaginary part must be non-positive (no gain)")
        object.__setattr__(self, "real_part", re)
        object.__setattr__(self, "imag_part", im)

    def complex_values(self):
        return self.real_part + 1j * self.imag_part


def casimir_polder(z, params):
    """Surface attraction -c4/z^4 for z > 0."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("casimir_polder requires z > 0")
    out = -params.c4 / z**4
    return out if out.ndim else float(out)


def modified_cp_field(grid, params):
    """Surface potential with the constant plateau below delta.

    Below the absorber edge the 1/z^4 divergence is replaced by its value at
    delta, so the field is continuous there and finite at z = 0.
    """
    if not (grid.z_min <= params.delta <= grid.z_max):
        raise GridError("absorber edge delta lies outside the grid")
    z = grid.z
    vals = np.full_like(z, casimir_polder(params.delta, params))
    above = z >= params.delta
    vals[above] = casimir_polder(z[above], params)
    return RealField(grid, vals)


def absorber_field(grid, params):
    """Magnitude of the absorbing ramp: 0 for z >= delta, rising linearly to
    absorber_strength at z = 0. The propagator applies it as -i * field."""
    if params.absorber_strength < 0:
        raise ConfigError("absorber_strength must be non-negative")
    if not (grid.z_min <= params.delta <= grid.z_max):
        raise GridError("absorber edge delta lies outside the grid")
    z = grid.z
    vals = np.where(
        z < params.delta,
        params.absorber_strength * (params.delta - z) / params.delta,
        0.0,
    )
    return RealField(grid, vals)


def harmonic_field(grid, params):
    """Trap potential (1/2) m omega^2 (z - z0)^2."""
    if params.trap_omega <= 0:
        raise ConfigError("trap_omega must be positive")
    z = grid.z
    vals = 0.5 * params.mass * params.trap_omega**2 * (z - params.z0) ** 2
    return RealField(grid, vals)


def total_potential(grid, params, include_trap=True, include_absorber=True):
    """Full complex landscape: modified surface potential (+ trap) - i * ramp."""
    real = modified_cp_field(grid, params).values.copy()
    if include_trap:
        real += harmonic_field(grid, params).values
    if include_absorber:
        imag = -absorber_field(grid, params).values
    else:
        imag = np.zeros_like(real)
    return ComplexPotential(grid, real, imag)
