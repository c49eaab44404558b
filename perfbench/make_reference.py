#!/usr/bin/env python3
"""Compute perfbench/reference.json, the references for absorbed_rel_err.

    python3 perfbench/make_reference.py      # about 3 minutes on 2 cores

Each workload's config is parsed by qpot itself, exactly as the CLI parses
it, and the same packets are then evolved on a finer discretization: half
the time step, and (n_points - 1) * 2 + 1 points on the same box. Stored
per workload and z0:

- compare, snapshots: the absorbed fraction at the end of the run, per
  packet;
- sweep: the averaged ratio (Gaussian absorbed / engineered absorbed),
  from the fine records sampled at the production times.

The refined run is second order in dt and dz, so a production value
differs from its reference by about 3/4 of its own discretization error.
"""

import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

REFINE_DT = 2
COMMAND = "python3 perfbench/make_reference.py"


def fine_absorbed(cfg_text, packet, point=None):
    """Absorbed fraction vs time of one packet on the refined discretization."""
    from qpot import config as cfgmod
    from qpot.core import Grid1D, default_grid
    from qpot.engineering import engineered_packet, gaussian_packet
    from qpot.potentials import total_potential
    from qpot.propagate import EvolveConfig, evolve

    cfg = cfgmod.parse_config_text(cfg_text)
    params = cfgmod.params_from(cfg)
    if point is None:
        grid = cfgmod.grid_from(cfg, params)
    else:  # a sweep point, built as the sweep builds it
        sweep = cfgmod.sweep_from(cfg)
        z0 = sweep.z0_values[point]
        params = params.replace(z0=z0, sigma=sweep.sigma_for(z0))
        grid = default_grid(params)
    fine = Grid1D(z_max=grid.z_max, n_points=(grid.n_points - 1) * 2 + 1,
                  z_min=grid.z_min)
    evolve_cfg = cfgmod.evolve_from(cfg)
    if packet == "engineered":
        psi = engineered_packet(fine, params)
    else:
        psi = gaussian_packet(fine, params.z0, params.sigma)
    rec = evolve(psi, total_potential(fine, params), params,
                 EvolveConfig(dt=evolve_cfg.dt / REFINE_DT, t_final=evolve_cfg.t_final))
    return rec.absorbed_fraction[::REFINE_DT].tolist()


@dataclass
class _Record:  # the two fields absorption_ratio_series reads
    times: object
    absorbed_fraction: object


def sweep_ratio(spec, engineered, gaussian):
    import numpy as np
    from qpot.experiments import absorption_ratio_series

    times = np.arange(len(engineered)) * spec.dt
    _, _, avg, _ = absorption_ratio_series(
        _Record(times, np.asarray(gaussian)), _Record(times, np.asarray(engineered)),
        t_window=spec.t_final)
    return avg


def tasks():
    """(key, args) per refined run, one per distinct config and packet."""
    out = {}
    for scale, specs in workloads.SCALES.items():
        for spec in specs.values():
            for point, z0 in enumerate(spec.z0_um):
                for packet in spec.packets:
                    if spec.command == "sweep":
                        args = (spec.config_text(None), packet, point)
                    else:
                        args = (spec.config_text(z0), packet)
                    out[(scale, spec.name, z0, packet)] = args
    return out


def main():
    t0 = time.time()
    jobs = tasks()
    unique = sorted(set(jobs.values()))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # inherited by both workers
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        done = dict(zip(unique, pool.map(_fine_absorbed_args, unique)))
    values = {}
    for (scale, name, z0, packet), args in jobs.items():
        spec = workloads.SCALES[scale][name]
        entry = values.setdefault(scale, {}).setdefault(name, {})
        if spec.command == "sweep":
            entry.setdefault(workloads.z0_key(z0), {})[packet] = done[args]
        else:
            entry.setdefault(workloads.z0_key(z0), {})[packet] = done[args][-1]
    for scale, specs in workloads.SCALES.items():
        for spec in specs.values():
            if spec.command == "sweep":
                entry = values[scale][spec.name]
                for key, series in entry.items():
                    entry[key] = sweep_ratio(spec, series["engineered"], series["gaussian"])
    import numpy
    import scipy
    import qpot

    out = {
        "command": COMMAND,
        "refinement": {
            "dt": f"production dt / {REFINE_DT}",
            "grid": "(n_points - 1) * 2 + 1 points on the production box",
        },
        "quantities": {
            "compare": "absorbed fraction at t_final, per packet",
            "snapshots": "absorbed fraction at t_final, engineered packet",
            "sweep": "averaged ratio over the window, fine records sampled at "
                     "the production times",
        },
        "computed_with": {"qpot": qpot.__version__, "python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "seconds": round(time.time() - t0, 1)},
        "specs": {scale: {name: spec.as_dict() for name, spec in specs.items()}
                  for scale, specs in workloads.SCALES.items()},
        "values": values,
    }
    path = HERE / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} in {time.time() - t0:.0f} s")


def _fine_absorbed_args(args):
    return fine_absorbed(*args)


if __name__ == "__main__":
    main()
