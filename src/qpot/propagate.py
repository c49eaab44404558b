"""Crank-Nicolson propagation under the complex potential stack.

One step solves A psi' = (2 - A) psi, i.e. psi' = 2 A^-1 psi - psi, with
A = 1 + i dt H / 2 hbar and H = -(hbar^2/2m) d^2/dz^2 + V_re - i |V_im|, on
the interior points of the grid with psi = 0 pinned at both ends. The scheme
is unconditionally stable, second order in dt and dz, exactly unitary for
real V, and contractive when the imaginary part is absorbing.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .core import MAX_DEFAULT_POINTS, Grid1D, default_grid
from .errors import ConfigError, GridError, NumericsError


def _load_flapack():
    """scipy's f2py LAPACK module, executed without the scipy package inits.

    `scipy.linalg.lapack` re-exports this module's routines, but importing it
    runs `scipy/__init__` and `scipy/linalg/__init__`, which through scipy's
    vendored array_api_compat load numpy.testing, numpy.f2py, numpy.ma,
    numpy.random and more: about 0.3 s and 28 MB per command for two
    routines. The module is registered under its own name, so a later
    `import scipy.linalg` reuses it and its routines are the same objects.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # top level: does not import it
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs


@dataclass(frozen=True)
class EvolveConfig:
    dt: float = 1e-7  # s (0.1 us)
    t_final: float = 5e-3  # s
    snapshot_stride: int = 0  # evolve's capture every N steps; 0 = none

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_final < self.dt:
            raise ConfigError("t_final must be at least one time step")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(f"t_final = {self.t_final!r} s is not a whole "
                              f"number of steps of dt = {self.dt!r} s")
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride must be >= 0")

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
        *factors, info = zgttrf(lam * off, 1.0 + lam * diag, lam * off)
        if info != 0:
            raise NumericsError(f"singular Crank-Nicolson matrix (info {info})")
        self._factors = factors
        self._buf = np.empty((n - 2, 1), dtype=complex, order="F")
        self._col = self._buf[:, 0]

    def step_values(self, u):
        """Advance the interior amplitudes u by one dt in place; returns u."""
        np.multiply(u, 2.0, out=self._col)  # exact: A y = 2u is bitwise 2 A^-1 u
        zgttrs(*self._factors, self._buf, overwrite_b=1)
        return np.subtract(self._col, u, out=u)


def evolve(psi0, potential, params, config, capture=None):
    """Propagate psi0 and record norm(t) and absorbed fraction 1 - norm^2.

    The state is renormalized once at t = 0 so the recorded norms are
    relative; the endpoints are pinned to zero throughout. capture(t, psi)
    gets a fresh full state at t = 0 and every config.snapshot_stride steps.
    """
    stride = config.snapshot_stride
    if bool(stride) != (capture is not None):
        raise ConfigError(f"snapshot_stride = {stride} needs a capture and vice versa")
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


def _in_lanes(fn, items, lanes=None):
    """[fn(item) for item in items] on `lanes` lanes (default: one per core),
    never more than items: this thread and lanes - 1 pool threads. Each lane
    takes the next item of one shared iterator once it is free; the results
    come back in item order. zgttrs and numpy's element-wise kernels release
    the interpreter lock, so evolves step side by side, each bitwise the
    serial call. A lane that raises drains the iterator, so that no lane
    starts a further item, and its exception is raised unchanged once the
    other lanes have finished the item they hold."""
    results = [None] * len(items)
    pending = enumerate(items)  # each next() is atomic under the interpreter lock

    def lane():
        try:
            for k, item in pending:
                results[k] = fn(item)
        except BaseException:
            list(pending)
            raise

    lanes = min(lanes or os.cpu_count() or 1, len(items))
    with futures.ThreadPoolExecutor(max_workers=max(lanes - 1, 1)) as pool:
        others = [pool.submit(lane) for _ in range(lanes - 1)]
        lane()
    for other in others:
        other.result()
    return results


def _first_order(values):
    """log2 |d1 / d2| of the first refinement triplet: the observed order."""
    if len(values) < 3:
        return float("nan")
    d1, d2 = values[0] - values[1], values[1] - values[2]
    if d2 == 0:
        return float("inf") if d1 else 0.0
    return float(np.log2(abs(d1 / d2)))


@dataclass
class ConvergenceReport:
    dt_rows: list  # (dt, absorbed_fraction)
    dz_rows: list  # (dz, n_points, absorbed_fraction)

    def dt_order(self):
        return _first_order([f for _, f in self.dt_rows])

    def dz_order(self):
        return _first_order([f for _, _, f in self.dz_rows])

    @property
    def dt_halving_change(self):
        """Relative change over the last halving of the dt ladder."""
        (_, coarse), (_, fine) = self.dt_rows[-2:]
        return abs(fine - coarse) / abs(fine)

    @property
    def dz_halving_change(self):
        """Relative change over the first halving of dz, from the base grid."""
        (_, _, base), (_, _, fine) = self.dz_rows[:2]
        return abs(fine - base) / abs(fine)


def convergence_report(make_state, make_potential, params, t_final=2e-3,
                       base_grid=None, dt_ladder=(8e-7, 4e-7, 2e-7, 1e-7, 5e-8),
                       n_refinements=2):
    """Self-convergence of the absorbed fraction at t_final.

    make_state(grid) and make_potential(grid) rebuild the initial packet and
    the potential on each refined grid. The dt ladder runs on the base grid;
    the dz ladder subdivides the base grid n_refinements times at the finest
    production dt. Every rung is built before the first evolve, and the rungs
    run in lanes. Temporal error at production time steps sits very close to
    the double-precision floor of this observable, which is why the dt ladder
    starts coarse.
    """
    if base_grid is None:
        base_grid = default_grid(params)
    if len(dt_ladder) < 2 or n_refinements < 1:
        raise ConfigError(f"a convergence ladder needs 2 or more dt rungs and "
                          f"n_refinements >= 1, not {len(dt_ladder)} and {n_refinements}")
    # every refinement from 20 on passes the bound, so 2**n_refinements stays small
    n_finest = (base_grid.n_points - 1) * 2 ** min(n_refinements, 20) + 1
    if n_finest > MAX_DEFAULT_POINTS:
        raise ConfigError(f"n_refinements = {n_refinements} refines {base_grid.n_points} "
                          f"grid points past {MAX_DEFAULT_POINTS}")
    dz_dt = 1e-7 if min(dt_ladder) <= 1e-7 else min(dt_ladder)
    grids = [Grid1D(z_max=base_grid.z_max, n_points=(base_grid.n_points - 1) * 2**k + 1,
                    z_min=base_grid.z_min) for k in range(n_refinements + 1)]
    rungs = [(base_grid, EvolveConfig(dt=dt, t_final=t_final)) for dt in dt_ladder]
    rungs += [(g, EvolveConfig(dt=dz_dt, t_final=t_final)) for g in grids]
    absorbed = _in_lanes(lambda rung: float(evolve(
        make_state(rung[0]), make_potential(rung[0]), params, rung[1]
    ).absorbed_fraction[-1]), rungs)
    dt_vals, dz_vals = absorbed[:len(dt_ladder)], absorbed[len(dt_ladder):]
    dt_rows = list(zip(dt_ladder, dt_vals))
    dz_rows = [(g.dz, g.n_points, f) for g, f in zip(grids, dz_vals)]
    return ConvergenceReport(dt_rows, dz_rows)
