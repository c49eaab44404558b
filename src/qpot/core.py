"""Physical constants, grids, wavefunctions and elementary functionals.

Everything computes and reports in SI units. The numbers involved stay
well inside double range (the Crank-Nicolson coefficients are
dimensionless ratios), so no internal unit scaling is needed.
"""

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, GridError, NormalizationError, NumericsError

HBAR = 1.054571817e-34  # J s

# Rubidium-87 defaults
DEFAULT_MASS = 1.44e-25  # kg
DEFAULT_C4 = 9.1e-56  # J m^4
DEFAULT_DELTA = 0.15e-6  # m
DEFAULT_Z_MAX, DEFAULT_POINTS = 10e-6, 4096  # default_grid's box: 10 um, 4096 points
MAX_DEFAULT_POINTS = 2**20  # most points of any grid, and so of default_grid's box
POINTS_PER_CYCLE = 10  # resolves_profile's points per profile cycle
_MAY_BE_ZERO = ("c4", "trap_omega", "absorber_strength")  # 0 drops the term; others > 0
_MAX_TRAP_OMEGA = float(np.sqrt(np.finfo(float).max))  # the trap squares it
_DERIVED = {  # a field left None takes its formula's value: name -> (formula, value)
    "absorber_strength": ("c4 / delta**4", lambda p: p.c4 / p.delta**4),
    "trap_omega": ("hbar / (2 mass sigma**2)", lambda p: p.hbar / (2 * p.mass * p.sigma**2)),
}


@dataclass(frozen=True)
class PhysicalParams:
    """Atom, surface and trap parameters, all SI.

    hbar is the package's one constant HBAR, a class attribute, not a field.
    absorber_strength defaults to the magnitude of the surface potential at
    the absorber edge delta, which makes the absorption time below delta much
    shorter than the millisecond packet dynamics. trap_omega defaults to
    hbar/(2 m sigma^2) so that a Gaussian of width sigma is the trap ground
    state. Every field, given or derived, must be finite, and trap_omega
    small enough that its square is too.
    """

    mass: float = DEFAULT_MASS
    c4: float = DEFAULT_C4
    z0: float = 2.3e-6
    sigma: float = 1.0e-6
    delta: float = DEFAULT_DELTA
    absorber_strength: float | None = None
    trap_omega: float | None = None
    hbar = HBAR

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value, label = getattr(self, name), name
            if value is None:
                label, value = f"{name} = {_DERIVED[name][0]}", self._formula(name)
                object.__setattr__(self, name, value)
            # one rule for every field, and one that NaN fails
            high = _MAX_TRAP_OMEGA if name == "trap_omega" else np.inf
            if not (0 < value < high or value == 0 and name in _MAY_BE_ZERO):
                low = "[" if name in _MAY_BE_ZERO else "("
                raise ConfigError(f"{label} must lie in {low}0, {high!r}), got {value}")
        if self.z0 <= self.delta:
            raise ConfigError(
                f"z0 = {self.z0} must exceed the absorber edge delta = {self.delta}"
            )

    def _formula(self, name):
        try:
            return _DERIVED[name][1](self)
        except ArithmeticError:  # a power or quotient out of double range
            return float("nan")

    @property
    def profile_scale(self):
        """Characteristic length sqrt(2 m c4)/hbar of the profile oscillation."""
        return np.sqrt(2 * self.mass * self.c4) / self.hbar

    def replace(self, **kwargs):
        """Copy with some fields replaced. A derived field that still holds its
        formula's value is derived again from the new inputs; one set to any
        other value keeps it."""
        current = {name: None if name in _DERIVED and value == self._formula(name)
                   else value for name, value in asdict(self).items()}
        return PhysicalParams(**{**current, **kwargs})


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid on [z_min, z_max]; z_min defaults to the surface."""

    z_max: float
    n_points: int
    z_min: float = 0.0
    z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.n_points <= MAX_DEFAULT_POINTS:
            raise GridError(f"need 2 to {MAX_DEFAULT_POINTS} grid points, "
                            f"got {self.n_points}")
        if self.z_max <= self.z_min:
            raise GridError(f"z_max = {self.z_max} must exceed z_min = {self.z_min}")
        pts = np.linspace(self.z_min, self.z_max, self.n_points)
        pts.flags.writeable = False
        object.__setattr__(self, "z", pts)

    @property
    def dz(self):
        return (self.z_max - self.z_min) / (self.n_points - 1)

    def resolves_profile(self, params):
        """True when dz puts POINTS_PER_CYCLE points in the local profile wavelength
        at the absorber edge, lambda(delta) = 2 pi delta^2 / (sqrt(2 m c4)/hbar)."""
        scale = params.profile_scale
        if scale == 0:
            return True
        return self.dz <= 2 * np.pi * params.delta**2 / scale / POINTS_PER_CYCLE


def default_grid(params=None):
    """Default box: [0, DEFAULT_Z_MAX] with DEFAULT_POINTS points, dz about 2.4 nm.
    For packets sitting far out the box widens at that dz to hold z0 + 6 sigma,
    to MAX_DEFAULT_POINTS."""
    z_max, n_points = DEFAULT_Z_MAX, DEFAULT_POINTS
    if params is not None:
        z_max = max(z_max, params.z0 + 6 * params.sigma)
        base_dz = DEFAULT_Z_MAX / (DEFAULT_POINTS - 1)
        n_points = max(n_points, int(np.ceil(z_max / base_dz)) + 1)
        if n_points > MAX_DEFAULT_POINTS:
            raise ConfigError(f"z0 + 6 sigma = {z_max!r} m needs {n_points} grid "
                              f"points, over {MAX_DEFAULT_POINTS}; check the units")
    return Grid1D(z_max=z_max, n_points=n_points)


@dataclass(frozen=True)
class Wavefunction:
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.z.shape:
            raise GridError(
                f"values shape {vals.shape} does not match grid ({self.grid.n_points},)"
            )
        object.__setattr__(self, "values", vals)

    def norm(self):
        return float(np.sqrt(np.trapezoid(np.abs(self.values) ** 2, self.grid.z)))

    def density(self):
        return np.abs(self.values) ** 2

    def with_values(self, values):
        return Wavefunction(self.grid, values)


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


def normalize(psi):
    """Rescale to unit norm under the trapezoid rule."""
    n = psi.norm()
    if n == 0 or not np.isfinite(n):
        raise NormalizationError(f"cannot normalize wavefunction with norm {n}")
    return psi.with_values(psi.values / n)


def moments(psi):
    """Mean position, standard deviation and norm of |psi|^2.

    Moments are computed on the density normalized by the current norm, so
    they are invariant under rescaling.
    """
    z = psi.grid.z
    rho = psi.density()
    n2 = np.trapezoid(rho, z)
    if n2 <= 0 or not np.isfinite(n2):
        raise NormalizationError(f"zero or invalid norm {n2}")
    mean = np.trapezoid(z * rho, z) / n2
    second = np.trapezoid(z**2 * rho, z) / n2
    std = float(np.sqrt(max(second - mean**2, 0.0)))
    return float(mean), std, float(np.sqrt(n2))
