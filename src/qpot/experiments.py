"""Absorption experiments: head-to-head packet comparisons, parameter
sweeps, the fitted-Gaussian control, the phase-imprinting study and the
self-convergence ladder, with the lane scheduler they all run in.

Every experiment evolves packets under the same potential stack (surface
attraction + trap + absorbing ramp), a packet named in PACKETS through
evolve_packet, and reports absorbed fractions. Ratios of absorbed fractions
are only formed at times where both fractions exceed a floor of 1e-12,
guarding the 0/0 limit at t -> 0; averaged ratios run over the retained
times inside the averaging window.
"""

import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import MAX_DEFAULT_POINTS, Grid1D, PhysicalParams, default_grid, moments
from .engineering import (
    engineered_packet,
    gaussian_packet,
    fidelity,
    two_stage_imprint,
)
from .errors import ConfigError, QpotError
from .potentials import total_potential
from .propagate import EvolveConfig, evolve

RATIO_FLOOR = 1e-12

# name -> packet builder, looked up here at each call, so a patch or tracer sees it
PACKETS = {
    "engineered": lambda grid, params: engineered_packet(grid, params),
    "gaussian": lambda grid, params: gaussian_packet(grid, params.z0, params.sigma),
}


def check_packet(name):
    """name, once it is a key of PACKETS."""
    if name not in PACKETS:
        raise ConfigError(f"unknown packet {name!r}")
    return name


def evolve_packet(packet, grid, params, config, **kwargs):
    """evolve of PACKETS[packet] on grid under the potential stack params
    defines; kwargs, a capture and its snapshot_stride, go to evolve unchanged."""
    return evolve(PACKETS[check_packet(packet)](grid, params),
                  total_potential(grid, params), params, config, **kwargs)


def _in_lanes(fn, items, lanes=None):
    """[fn(item) for item in items] on `lanes` lanes (None: one per core),
    never more than items: this thread and lanes - 1 bare threads. A count
    that is not a positive integer, a float or a string too, is rejected
    before any item starts. Each lane takes the next item of one shared
    iterator once it is free; the results come back in item order. The
    ctypes zgttrs and numpy's element-wise kernels release the interpreter
    lock, so evolves step side by side, each bitwise the serial call. A
    lane that raises drains the iterator, so that no lane starts a further
    item, and the first exception raised is raised unchanged once the other
    lanes have finished the item they hold."""
    count = (os.cpu_count() or 1) if lanes is None else lanes
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise ConfigError(f"workers must be a positive integer, got {lanes!r}")
    results = [None] * len(items)
    pending = enumerate(items)  # each next() is atomic under the interpreter lock
    raised = []

    def lane():
        try:
            for k, item in pending:
                results[k] = fn(item)
        except BaseException as exc:
            list(pending)
            raised.append(exc)

    others = [threading.Thread(target=lane) for _ in range(min(count, len(items)) - 1)]
    for other in others:
        other.start()
    lane()
    for other in others:
        other.join()
    if raised:
        raise raised[0]
    return results


@dataclass(frozen=True)
class SweepSpec:
    """Grid of envelope means with a width rule; by default six means from
    1.5 um to 4 um.

    sigma_rule is ("ratio", r) for sigma = r * z0 or ("fixed", sigma_m).
    """

    z0_values: tuple = tuple(z * 1e-6 for z in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
    sigma_rule: tuple = ("ratio", 0.5)
    t_average_window: float = 2e-3

    def __post_init__(self):
        object.__setattr__(self, "z0_values", tuple(float(v) for v in self.z0_values))
        kind, value = self.sigma_rule
        if kind not in ("ratio", "fixed"):
            raise ConfigError(f"unknown sigma rule {kind!r}")
        if kind == "ratio" and not (0 < value <= 1):
            raise ConfigError(f"sigma ratio must lie in (0, 1], got {value}")
        if kind == "fixed" and value <= 0:
            raise ConfigError("fixed sigma must be positive")
        object.__setattr__(self, "sigma_rule", (kind, float(value)))

    def sigma_for(self, z0):
        kind, value = self.sigma_rule
        return value * z0 if kind == "ratio" else value


@dataclass
class ComparisonResult:
    records: dict  # packet name -> ExperimentRecord
    ratio_times: np.ndarray  # retained times
    ratios: np.ndarray  # benchmark absorbed / engineered absorbed
    averaged_ratio: float | None
    crossover_time: float | None


def absorption_ratio_series(record_num, record_den, t_window):
    """Ratio of absorbed fractions where both reach RATIO_FLOOR.

    Returns (times, ratios, averaged_ratio, crossover_time). The average is
    taken over retained times <= t_window; the crossover is the first
    retained time where the ratio drops to 1 or below, scanned over the full
    record. Both records must carry the same times exactly, as two evolves
    under one EvolveConfig do.
    """
    if not np.array_equal(record_num.times, record_den.times):
        raise ConfigError("records were not taken on matching time grids")
    a_num = record_num.absorbed_fraction
    a_den = record_den.absorbed_fraction
    keep = (a_num >= RATIO_FLOOR) & (a_den >= RATIO_FLOOR)
    t = record_num.times[keep]
    r = a_num[keep] / a_den[keep]
    if t.size == 0:
        return t, r, None, None
    in_window = t <= t_window
    avg = float(np.mean(r[in_window])) if np.any(in_window) else None
    below = np.flatnonzero(r <= 1.0)
    crossover = float(t[below[0]]) if below.size else None
    return t, r, avg, crossover


def window_config(config, window, name, dt=EvolveConfig.dt):
    """The run's evolve config, by default steps of dt up to `window`, the window
    named `name`. A window that is not positive, ends after the last evolved step
    or, as that default t_final, is no whole number of steps is rejected by name."""
    if not window > 0:  # NaN too
        raise ConfigError(f"{name} must be positive, got {window!r}")
    if config is None:
        try:
            config = EvolveConfig(dt=dt, t_final=window)
        except ConfigError as exc:
            raise ConfigError(f"{name} = {window!r} s sets t_final: {exc}") from None
    t_end = config.n_steps * config.dt
    if window - t_end > 1e-6 * config.dt:  # beyond n_steps * dt rounding
        raise ConfigError(
            f"{name} = {window!r} s ends after the evolved time {t_end!r} s")
    return config


def _compare(name, grid, engineered_params, benchmark_params, config, t_average_window,
             lanes=None):
    """Evolve the engineered packet and the Gaussian benchmark `name` on grid,
    each built and evolved under its own params by evolve_packet, in `lanes`
    lanes (one lane: the engineered packet first), and form the benchmark /
    engineered absorption ratio."""
    jobs = [("engineered", engineered_params), ("gaussian", benchmark_params)]
    rec_eng, rec_bench = _in_lanes(
        lambda job: evolve_packet(job[0], grid, job[1], config), jobs, lanes)
    series = absorption_ratio_series(rec_bench, rec_eng, t_window=t_average_window)
    return ComparisonResult({"engineered": rec_eng, name: rec_bench}, *series)


def run_comparison(params, grid=None, config=None, t_average_window=2e-3):
    """Evolve the engineered packet and the Gaussian benchmark with the same
    envelope parameters under identical potential stacks."""
    if grid is None:
        grid = default_grid(params)
    config = window_config(config, t_average_window, "t_average_window")
    return _compare("gaussian", grid, params, params, config, t_average_window)


@dataclass
class SweepRow:
    z0: float
    sigma: float
    averaged_ratio: float | None = None
    crossover_time: float | None = None
    error: str = ""  # why the point failed; empty when it did not

    @property
    def failed(self):
        return bool(self.error)


def _sweep_point(params, config, t_average_window):
    """A sweep point's row: its comparison on one lane, engineered packet
    first, or the QpotError that stopped it."""
    try:
        res = _compare("gaussian", default_grid(params), params, params, config,
                       t_average_window, lanes=1)
    except QpotError as exc:  # a failed point must not sink the sweep
        return SweepRow(params.z0, params.sigma, error=f"{type(exc).__name__}: {exc}")
    return SweepRow(params.z0, params.sigma, res.averaged_ratio, res.crossover_time)


def run_sweep(params_base, sweep, config=None, workers=None):
    """Averaged absorbed-fraction ratios across the z0 grid.

    Each point is one comparison on one of `workers` lanes (default: one per
    core), largest grid first; a lane evolves the point's engineered packet,
    then its Gaussian. Rows come back sorted by z0, the same for any lane
    count. z0 at or below the absorber edge and a window past the evolved
    time are rejected up front. A QpotError marks its point's row and the
    sweep goes on (a point whose engineered packet fails evolves no
    Gaussian), while any other exception stops every lane after its current
    point and is raised.
    """
    config = window_config(config, sweep.t_average_window, "t_average_window")
    points = [params_base.replace(z0=z0, sigma=sweep.sigma_for(z0))
              for z0 in sweep.z0_values]
    # the largest grid goes first, so that it never starts last
    points.sort(key=lambda p: default_grid(p).n_points, reverse=True)
    rows = _in_lanes(lambda p: _sweep_point(p, config, sweep.t_average_window),
                     points, workers)
    return sorted(rows, key=lambda r: r.z0)


# where run_fitted_control places the Gaussian unless auto_fit or the caller does
FITTED_GAUSSIAN = {"gaussian_z0": 2.3e-6, "gaussian_sigma": 1.0e-6}


def run_fitted_control(params=None, config=None, auto_fit=False,
                       engineered_z0=1.43e-6, engineered_sigma=1.0e-6,
                       gaussian_z0=None, gaussian_sigma=None,
                       t_average_window=2e-3):
    """Engineered packet close to the surface against a Gaussian placed at
    the engineered packet's apparent position farther out.

    The default pairing puts the engineered envelope at 1.43 um and the
    Gaussian at 2.3 um, both 1 um wide: the engineered density is skewed
    away from the surface, so this Gaussian tracks where the packet
    actually sits rather than where its envelope is centered. auto_fit
    instead matches the Gaussian to the measured mean and standard
    deviation of the engineered packet, and gaussian_z0 or gaussian_sigma
    given with it is rejected. Each packet is evolved with the trap matched
    to its own parameters. The default box holds z0 + 6 sigma of each
    packet placed from these settings.
    """
    given = {key: value for key, value in {"gaussian_z0": gaussian_z0,
                                           "gaussian_sigma": gaussian_sigma}.items()
             if value is not None}
    if auto_fit and given:
        raise ConfigError(f"{', '.join(given)} unread with auto_fit = true: "
                          "the fit places the Gaussian")
    if params is None:
        params = PhysicalParams()
    gaussian = {**FITTED_GAUSSIAN, **given}
    p_eng = params.replace(z0=engineered_z0, sigma=engineered_sigma)
    p_fit = params.replace(z0=gaussian["gaussian_z0"], sigma=gaussian["gaussian_sigma"])
    placed = (p_eng,) if auto_fit else (p_eng, p_fit)
    grid = default_grid(max(placed, key=lambda p: p.z0 + 6 * p.sigma))
    config = window_config(config, t_average_window, "t_average_window")
    if auto_fit:
        mean, std, _ = moments(engineered_packet(grid, p_eng))
        p_fit = params.replace(z0=mean, sigma=std)
    return _compare("fitted_gaussian", grid, p_eng, p_fit, config, t_average_window)


@dataclass
class PreparationRow:
    slope: float  # m^-1
    slope_z0: float  # dimensionless K * z0
    fidelity: float
    absorbed_imprinted: float
    absorbed_ideal: float
    penalty: float  # imprinted / ideal absorbed fraction at the window end


def run_preparation_study(params, slope_z0_values=(0.05, 0.1, 0.3, 1.0), grid=None,
                          config=None, t_window=2e-3):
    """Fidelity and absorption cost of the two-pulse preparation.

    For each imprint slope K = slope_z0_values[i] / z0 the Gaussian is turned
    into sin(K z) cos(a/z) Gaussian, compared against the ideal engineered
    packet, and both are evolved for t_window under the full stack; a
    config that evolves a whole step past t_window is rejected.
    """
    if grid is None:
        grid = default_grid(params)
    slopes = tuple(kz0 / params.z0 for kz0 in slope_z0_values)
    if 0 in slopes:  # sin(0 z) = 0: the imprint leaves no packet
        raise ConfigError(f"slope_z0_values = {slope_z0_values!r} holds a zero slope")
    config = window_config(config, t_window, "t_window")
    if config.n_steps * config.dt - t_window >= (1 - 1e-6) * config.dt:
        raise ConfigError(f"t_final = {config.t_final!r} s evolves past t_window")
    pot = total_potential(grid, params)
    ideal = engineered_packet(grid, params)
    imprinted = [two_stage_imprint(grid, params, k) for k in slopes]
    rec_ideal, *recs = _in_lanes(lambda psi: evolve(psi, pot, params, config),
                                 [ideal, *imprinted])
    a_ideal = rec_ideal.absorbed_at(t_window)
    rows = []
    for k, psi, rec in zip(slopes, imprinted, recs):
        a_imp = rec.absorbed_at(t_window)
        penalty = a_imp / a_ideal if a_ideal >= RATIO_FLOOR else float("nan")
        rows.append(PreparationRow(
            slope=k, slope_z0=k * params.z0, fidelity=fidelity(psi, ideal),
            absorbed_imprinted=a_imp, absorbed_ideal=a_ideal, penalty=penalty,
        ))
    return rows


def _order(values):
    """log2 |d1 / d2| of the first refinement triplet: the observed order."""
    if len(values) < 3:
        return float("nan")
    d1, d2 = values[0] - values[1], values[1] - values[2]
    if d2 == 0:
        return float("inf") if d1 else 0.0
    return float(np.log2(abs(d1 / d2)))


def _change(coarse, fine):
    """Relative change over one halving: 0 when neither value moved off 0,
    inf when only the fine one is 0."""
    if fine == 0:
        return float("inf") if coarse else 0.0
    return abs(fine - coarse) / abs(fine)


@dataclass
class ConvergenceReport:
    rows: list  # (ladder, step, n_points, absorbed_fraction), the dt rungs first
    dt_order: float
    dz_order: float
    dt_halving_change: float  # over the last halving of the dt ladder
    dz_halving_change: float  # over the first halving of dz, from the base grid


def convergence_report(params, packet="engineered", t_final=2e-3, base_grid=None,
                       dt_ladder=(8e-7, 4e-7, 2e-7, 1e-7, 5e-8), n_refinements=2):
    """Self-convergence of the absorbed fraction of PACKETS[packet] at t_final.

    Each rung rebuilds the packet and the potential stack on its grid. The dt
    ladder, each rung half the one before, runs on the base grid; the dz
    ladder subdivides it n_refinements times at max(min(dt_ladder), EvolveConfig.dt).
    Every rung is built before the first evolve; the rungs run in lanes. The
    dt ladder starts coarse, as temporal error at production time steps sits
    very close to the double-precision floor of this observable.
    """
    check_packet(packet)
    if len(dt_ladder) < 2 or n_refinements < 1:
        raise ConfigError(f"a convergence ladder needs 2 or more dt rungs and "
                          f"n_refinements >= 1, not {len(dt_ladder)} and {n_refinements}")
    for coarse, dt in zip(dt_ladder, dt_ladder[1:]):
        if abs(2 * dt - coarse) > 1e-9 * abs(coarse):
            raise ConfigError(f"dt_ladder rung dt = {dt!r} s is not half of {coarse!r} s")
    if base_grid is None:
        base_grid = default_grid(params)
    # every refinement from 20 on passes the bound, so 2**n_refinements stays small
    n_finest = (base_grid.n_points - 1) * 2 ** min(n_refinements, 20) + 1
    if n_finest > MAX_DEFAULT_POINTS:
        raise ConfigError(f"n_refinements = {n_refinements} refines {base_grid.n_points} "
                          f"grid points past {MAX_DEFAULT_POINTS}")
    dz_dt = max(min(dt_ladder), EvolveConfig.dt)
    grids = [Grid1D(z_max=base_grid.z_max, n_points=(base_grid.n_points - 1) * 2**k + 1,
                    z_min=base_grid.z_min) for k in range(n_refinements + 1)]
    rungs = [(base_grid, EvolveConfig(dt=dt, t_final=t_final)) for dt in dt_ladder]
    rungs += [(g, EvolveConfig(dt=dz_dt, t_final=t_final)) for g in grids]
    absorbed = _in_lanes(lambda rung: float(evolve_packet(
        packet, rung[0], params, rung[1]).absorbed_fraction[-1]), rungs)
    n_dt = len(dt_ladder)
    rows = [("dt", dt, None, f) for dt, f in zip(dt_ladder, absorbed)]
    rows += [("dz", g.dz, g.n_points, f) for g, f in zip(grids, absorbed[n_dt:])]
    # a fraction under RATIO_FLOOR is rounding noise, and each figure reads it as 0
    floored = [f if f >= RATIO_FLOOR else 0.0 for f in absorbed]
    dt_f, dz_f = floored[:n_dt], floored[n_dt:]
    return ConvergenceReport(rows, _order(dt_f), _order(dz_f), _change(*dt_f[-2:]),
                             _change(*dz_f[:2]))
