"""Crank-Nicolson propagation under the complex potential stack.

One step solves A psi' = (2 - A) psi, i.e. psi' = 2 A^-1 psi - psi, with
A = 1 + i dt H / 2 hbar and H = -(hbar^2/2m) d^2/dz^2 + V_re - i |V_im|, on
the interior points of the grid with psi = 0 pinned at both ends. The scheme
is unconditionally stable, second order in dt and dz, exactly unitary for
real V, and contractive when the imaginary part is absorbing.
"""

import ctypes
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridError, NumericsError


def _routines(lib):
    """zgttrf and zgttrs of the ILP64 OpenBLAS numpy's wheels bundle (int64
    arguments and pivots); a LAPACK that lacks them is an ImportError."""
    for symbol in ("scipy_zgttrf_64_", "scipy_zgttrs_64_"):
        if not hasattr(lib, symbol):
            raise ImportError(f"numpy's LAPACK has no {symbol}")
        getattr(lib, symbol).restype = None
    return lib.scipy_zgttrf_64_, lib.scipy_zgttrs_64_


# the LAPACK numpy.linalg links, with no fallback; a CDLL call releases the lock.
# Each argument is a ctypes object of its Fortran type, built once per solver,
# so no argtypes are declared: their check would add 0.8 us to every step.
_zgttrf, _zgttrs = _routines(ctypes.CDLL(np.linalg._umath_linalg.__file__))


def _address(array):
    return ctypes.c_void_p(array.ctypes.data)


MAX_STEPS = 2**24  # most steps of one evolve; each step adds a value to every record


@dataclass(frozen=True)
class EvolveConfig:
    dt: float = 1e-7  # s (0.1 us)
    t_final: float = 5e-3  # s

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        steps = self.t_final / self.dt
        if not 1 <= steps <= MAX_STEPS:  # NaN fails it too
            raise ConfigError(f"t_final = {self.t_final!r} s is {steps!r} steps of "
                              f"dt = {self.dt!r} s, not 1 to {MAX_STEPS}")
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(f"t_final = {self.t_final!r} s is not a whole "
                              f"number of steps of dt = {self.dt!r} s")

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


@dataclass
class ExperimentRecord:
    """Evolution history: norm decay and absorbed fraction."""

    times: np.ndarray  # s
    norms: np.ndarray  # relative to the initial norm
    absorbed_fraction: np.ndarray  # 1 - norm^2

    def absorbed_at(self, t):
        """Absorbed fraction at time t by linear interpolation."""
        return float(np.interp(t, self.times, self.absorbed_fraction))


class CrankNicolson:
    """LU factors of A = 1 + i dt H / 2 hbar, built once, and the buffer
    each step solves in: one solver per thread, as each evolve builds its own."""

    def __init__(self, grid, potential, params, dt):
        if potential.grid != grid:
            raise GridError("potential grid does not match the state grid")
        n = grid.n_points
        if n < 4:
            raise GridError("need at least 4 grid points for interior stepping")
        dz = grid.dz
        v = potential.complex_values()[1:-1]
        lam = 1j * dt / (2 * params.hbar)
        kin = params.hbar**2 / (2 * params.mass * dz**2)
        diag = 2 * kin + v
        off = -kin * np.ones(n - 3, dtype=complex)
        arrays = (lam * off, 1.0 + lam * diag, lam * off,  # dl, d, du: factored in place
                  np.empty(n - 4, dtype=complex), np.empty(n - 2, dtype=np.int64))
        size, one, info = ctypes.c_int64(n - 2), ctypes.c_int64(1), ctypes.c_int64(0)
        _zgttrf(ctypes.byref(size), *map(_address, arrays), ctypes.byref(info))
        if info.value != 0:
            raise NumericsError(f"singular Crank-Nicolson matrix (info {info.value})")
        self._factors = arrays  # what the addresses point at
        self._col = np.empty(n - 2, dtype=complex)
        # zgttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans))
        self._args = (ctypes.c_char_p(b"N"), ctypes.byref(size), ctypes.byref(one),
                      *map(_address, arrays), _address(self._col), ctypes.byref(size),
                      ctypes.byref(info), ctypes.c_size_t(1))

    def step_values(self, u):
        """Advance the interior amplitudes u by one dt in place; returns u."""
        np.multiply(u, 2.0, out=self._col)  # exact: A y = 2u is bitwise 2 A^-1 u
        _zgttrs(*self._args)
        return np.subtract(self._col, u, out=u)


def evolve(psi0, potential, params, config, capture=None, snapshot_stride=0):
    """Propagate psi0 and record norm(t) and absorbed fraction 1 - norm^2.

    The state is renormalized once at t = 0 so the recorded norms are
    relative; the endpoints are pinned to zero throughout. capture(t, psi)
    gets a fresh full state at t = 0 and every snapshot_stride steps.
    """
    stride = snapshot_stride
    if not (isinstance(stride, numbers.Integral) and stride >= 0  # no float or string
            and bool(stride) == (capture is not None)):
        raise ConfigError(f"snapshot_stride = {stride!r} must be a positive integer "
                          "with a capture and 0 without one")
    grid = psi0.grid
    dz = grid.dz
    solver = CrankNicolson(grid, potential, params, config.dt)
    u = psi0.values[1:-1].astype(complex)

    def full_state():
        return np.concatenate(([0.0], u, [0.0]))

    n0 = np.sqrt(np.trapezoid(np.abs(full_state()) ** 2, grid.z))
    if not (n0 > 0 and math.isfinite(n0)):  # also catches NaN
        raise NumericsError(f"initial state has norm {float(n0)}; "
                            "it must be finite and nonzero")
    u /= n0

    nsteps = config.n_steps
    times = np.arange(nsteps + 1) * config.dt
    norms = np.empty(nsteps + 1)
    norms[0] = 1.0
    if stride:
        capture(0.0, full_state())

    for k in range(1, nsteps + 1):
        solver.step_values(u)
        norm = math.sqrt(dz * np.vdot(u, u).real)  # trapezoid: endpoints are 0
        if not math.isfinite(norm):
            raise NumericsError(f"non-finite amplitudes at step {k}")
        norms[k] = norm
        if stride and k % stride == 0:
            capture(k * config.dt, full_state())

    return ExperimentRecord(times=times, norms=norms, absorbed_fraction=1.0 - norms**2)
