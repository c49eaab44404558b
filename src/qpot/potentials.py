"""Potential landscape near the surface.

Real part: attractive -c4/z^4 surface potential, flattened to a constant
plateau below the absorber edge delta, plus a harmonic trap centered at z0.
Imaginary part: an absorbing ramp growing linearly from zero at z = delta to
-i * absorber_strength at the surface. A term whose strength (c4,
trap_omega, absorber_strength) is 0 is left out.
"""

from dataclasses import dataclass

import numpy as np

from .core import Grid1D
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


def total_potential(grid, params):
    """The landscape of the module docstring on the grid: -c4/z^4, held at its
    value at delta below delta so it is finite at z = 0, + the trap
    (1/2) m omega^2 (z - z0)^2 - i * the ramp, absorber_strength at z = 0."""
    if not (grid.z_min <= params.delta <= grid.z_max):
        raise GridError("absorber edge delta lies outside the grid")
    z = grid.z
    real = np.full_like(z, casimir_polder(params.delta, params))
    above = z >= params.delta
    real[above] = casimir_polder(z[above], params)
    real += 0.5 * params.mass * params.trap_omega**2 * (z - params.z0) ** 2
    imag = -np.where(z < params.delta,
                     params.absorber_strength * (params.delta - z) / params.delta, 0.0)
    return ComplexPotential(grid, real, imag)
