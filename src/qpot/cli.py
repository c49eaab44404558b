"""Command-line interface.

Every subcommand reads an optional config file, runs one experiment and
writes CSV files plus a run-manifest into the output directory. Runs are
fully deterministic; --seed is accepted for interface stability but has
no effect, and --workers only changes how sweep points are scheduled,
never the numbers.
"""

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import io as iomod
from .bohmian import weighted_fields
from .core import default_grid
from .engineering import (
    ProfileSpec,
    engineered_packet,
    engineered_profile,
    gaussian_packet,
)
from .errors import QpotError
from .experiments import (
    SweepSpec,
    run_comparison,
    run_fitted_control,
    run_preparation_study,
    run_sweep,
)
from .potentials import total_potential
from .propagate import convergence_report, evolve
from .version import __version__


def _load(args):
    if args.config:
        return cfgmod.load_config(args.config)
    return {}


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _params_text(params):
    fields = (
        "mass", "c4", "z0", "sigma", "c1", "c2", "delta",
        "absorber_strength", "trap_omega",
    )
    lines = ["[params]"]
    lines += [f"{name} = {getattr(params, name)!r}" for name in fields]
    return "\n".join(lines) + "\n"


def _grid_text(grid):
    return f"[grid]\nz_max = {grid.z_max!r}\nn_points = {grid.n_points}\n"


def _evolve_text(cfg):
    return (
        f"[evolve]\ndt = {cfg.dt!r}\nt_final = {cfg.t_final!r}\n"
        f"snapshot_stride = {cfg.snapshot_stride}\n"
        f"store_wavefunctions = {'true' if cfg.store_wavefunctions else 'false'}\n"
    )


def cmd_profile(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    grid = cfgmod.grid_from(cfg, params)
    use_abs = cfg.get("profile", {}).get("use_abs", False)
    spec = ProfileSpec(use_abs=use_abs)
    psi = engineered_packet(grid, params, spec)
    z = grid.z
    profile = np.zeros_like(z)
    pos = z > 0
    profile[pos] = engineered_profile(z[pos], params, spec)
    rows = zip(z, profile, psi.values.real, psi.values.imag, psi.density())
    path = _outpath(args, "profile.csv")
    iomod.write_csv(path, ("z_m", "profile", "re_psi", "im_psi", "density"), rows)
    iomod.write_manifest(
        _outpath(args, "profile_manifest.txt"),
        _params_text(params) + _grid_text(grid)
        + f"[profile]\nuse_abs = {'true' if use_abs else 'false'}\n",
        extra={"command": "profile"},
    )
    print(f"wrote {path}")
    return 0


def cmd_fields(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    grid = cfgmod.grid_from(cfg, params)
    cut = cfg.get("fields", {}).get("support_cut", 1e-6)
    w_q, w_res, rho = weighted_fields(grid, params, support_cut=cut)
    path = _outpath(args, "fields.csv")
    iomod.write_weighted_fields_csv(path, w_q, w_res, rho, params.hbar)
    support = w_q.valid_mask()
    peak_q = float(abs(w_q.values[support]).max())
    peak_res = float(abs(w_res.values[support]).max())
    iomod.write_manifest(
        _outpath(args, "fields_manifest.txt"),
        _params_text(params) + _grid_text(grid),
        extra={
            "command": "fields",
            "support_cut": repr(cut),
            "peak_weighted_q": repr(peak_q),
            "peak_weighted_residual": repr(peak_res),
        },
    )
    print(f"wrote {path} (residual/q peak ratio {peak_res / peak_q:.3e})")
    return 0


def cmd_evolve(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    grid = cfgmod.grid_from(cfg, params)
    evolve_cfg = cfgmod.evolve_from(cfg)
    section = cfg.get("evolve", {})
    packet = section.get("packet", "engineered")
    include_trap = section.get("include_trap", True)
    include_absorber = section.get("include_absorber", True)
    if packet == "gaussian":
        psi = gaussian_packet(grid, params.z0, params.sigma)
    elif packet == "engineered":
        psi = engineered_packet(grid, params)
    else:
        print(f"unknown packet {packet!r}", file=sys.stderr)
        return 2
    pot = total_potential(grid, params, include_trap=include_trap,
                          include_absorber=include_absorber)
    record = evolve(psi, pot, params, evolve_cfg)
    path = _outpath(args, "record.csv")
    iomod.write_record_csv(path, record)
    if record.snapshots:
        iomod.write_snapshots_csv(_outpath(args, "snapshots.csv"), record)
    iomod.write_manifest(
        _outpath(args, "evolve_manifest.txt"),
        _params_text(params) + _grid_text(grid) + _evolve_text(evolve_cfg),
        extra={
            "command": "evolve",
            "packet": packet,
            "absorbed_final": repr(float(record.absorbed_fraction[-1])),
        },
    )
    print(f"wrote {path} (absorbed {record.absorbed_fraction[-1]:.6e})")
    return 0


def cmd_compare(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    grid = cfgmod.grid_from(cfg, params)
    evolve_cfg = cfgmod.evolve_from(cfg)
    section = cfg.get("compare", {})
    result = run_comparison(
        params,
        grid=grid,
        config=evolve_cfg,
        include_trap=section.get("include_trap", True),
        t_average_window=section.get("t_average_window", 2e-3),
    )
    iomod.write_ratio_csv(_outpath(args, "ratio.csv"), result)
    for name, rec in result.records.items():
        iomod.write_record_csv(_outpath(args, f"record_{name}.csv"), rec)
    iomod.write_manifest(
        _outpath(args, "compare_manifest.txt"),
        _params_text(params) + _grid_text(grid) + _evolve_text(evolve_cfg),
        extra={
            "command": "compare",
            "averaged_ratio": repr(result.averaged_ratio),
            "crossover_time_s": repr(result.crossover_time),
            "ratio_average_note": (
                "averaged over retained times <= t_average_window; times where "
                "either absorbed fraction is below 1e-12 are excluded"
            ),
        },
    )
    print(
        f"averaged ratio {result.averaged_ratio}, "
        f"crossover {result.crossover_time}"
    )
    return 0


def cmd_sweep(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    if "sweep" in cfg:
        sweep = cfgmod.sweep_from(cfg)
    else:
        sweep = SweepSpec(z0_values=tuple(
            z * 1e-6 for z in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
        ))
    evolve_cfg = cfgmod.evolve_from(cfg, t_final=cfg.get("evolve", {}).get(
        "t_final", sweep.t_average_window))
    rows = run_sweep(params, sweep, config=evolve_cfg, workers=args.workers)
    failed = [r for r in rows if r.failed]
    path = _outpath(args, "sweep.csv")
    iomod.write_sweep_csv(path, rows)
    iomod.write_manifest(
        _outpath(args, "sweep_manifest.txt"),
        _params_text(params) + cfgmod.sweep_to_text(sweep),
        extra={
            "command": "sweep",
            "workers": args.workers if args.workers else "auto",
            "failed_rows": len(failed),
        },
    )
    print(f"wrote {path} ({len(rows)} rows)")
    for row in failed:
        print(f"error: sweep point z0 = {row.z0!r} m failed: {row.error}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_fitted(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    section = cfg.get("fitted", {})
    evolve_cfg = cfgmod.evolve_from(cfg, t_final=cfg.get("evolve", {}).get(
        "t_final", section.get("t_average_window", 2e-3)))
    result = run_fitted_control(
        params,
        config=evolve_cfg,
        auto_fit=section.get("auto_fit", False),
        engineered_z0=section.get("engineered_z0", 1.43e-6),
        engineered_sigma=section.get("engineered_sigma", 1.0e-6),
        gaussian_z0=section.get("gaussian_z0", 2.3e-6),
        gaussian_sigma=section.get("gaussian_sigma", 1.0e-6),
        include_trap=section.get("include_trap", True),
        t_average_window=section.get("t_average_window", 2e-3),
    )
    iomod.write_ratio_csv(_outpath(args, "ratio_fitted.csv"), result)
    for name, rec in result.records.items():
        iomod.write_record_csv(_outpath(args, f"record_{name}.csv"), rec)
    iomod.write_manifest(
        _outpath(args, "fitted_manifest.txt"),
        _params_text(params),
        extra={
            "command": "fitted",
            "auto_fit": section.get("auto_fit", False),
            "averaged_ratio": repr(result.averaged_ratio),
        },
    )
    print(f"averaged ratio {result.averaged_ratio}")
    return 0


def cmd_prepare(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    grid = cfgmod.grid_from(cfg, params)
    section = cfg.get("prepare", {})
    slopes = section.get("slopes")
    if slopes is None and "slope_z0_values" in section:
        slopes = tuple(kz0 / params.z0 for kz0 in section["slope_z0_values"])
    t_window = section.get("t_window", 2e-3)
    evolve_cfg = cfgmod.evolve_from(cfg, t_final=cfg.get("evolve", {}).get(
        "t_final", t_window))
    rows = run_preparation_study(
        params, slopes=slopes, grid=grid, config=evolve_cfg,
        include_trap=section.get("include_trap", True), t_window=t_window,
    )
    path = _outpath(args, "prepare.csv")
    iomod.write_preparation_csv(path, rows)
    iomod.write_manifest(
        _outpath(args, "prepare_manifest.txt"),
        _params_text(params) + _grid_text(grid),
        extra={"command": "prepare", "t_window_s": repr(t_window)},
    )
    print(f"wrote {path} ({len(rows)} slopes)")
    return 0


def cmd_converge(args):
    cfg = _load(args)
    params = cfgmod.params_from(cfg)
    grid = cfgmod.grid_from(cfg, params)
    section = cfg.get("converge", {})
    packet = section.get("packet", "engineered")

    def make_state(g):
        if packet == "gaussian":
            return gaussian_packet(g, params.z0, params.sigma)
        return engineered_packet(g, params)

    def make_potential(g):
        return total_potential(g, params)

    kwargs = {}
    if "t_final" in section:
        kwargs["t_final"] = section["t_final"]
    if "dt_ladder" in section:
        kwargs["dt_ladder"] = section["dt_ladder"]
    if "n_refinements" in section:
        kwargs["n_refinements"] = section["n_refinements"]
    report = convergence_report(make_state, make_potential, params,
                                base_grid=grid, **kwargs)
    path = _outpath(args, "converge.csv")
    iomod.write_convergence_csv(path, report)
    iomod.write_manifest(
        _outpath(args, "converge_manifest.txt"),
        _params_text(params) + _grid_text(grid),
        extra={
            "command": "converge",
            "packet": packet,
            "dt_order": repr(report.dt_order()),
            "dz_order": repr(report.dz_order()),
            "dt_halving_change": repr(report.dt_halving_change),
            "dz_halving_change": repr(report.dz_halving_change),
        },
    )
    print(
        f"dt order {report.dt_order():.2f}, dz order {report.dz_order():.2f}, "
        f"dt halving change {report.dt_halving_change:.3e}, "
        f"dz halving change {report.dz_halving_change:.3e}"
    )
    return 0


_COMMANDS = {
    "profile": (cmd_profile, "dump the engineered packet and its profile"),
    "fields": (cmd_fields, "density-weighted quantum potential and residual"),
    "evolve": (cmd_evolve, "evolve one packet under the full potential stack"),
    "compare": (cmd_compare, "engineered vs Gaussian absorbed fractions"),
    "sweep": (cmd_sweep, "averaged advantage across envelope positions"),
    "fitted": (cmd_fitted, "engineered packet vs position-matched Gaussian"),
    "prepare": (cmd_prepare, "two-pulse preparation fidelity and cost"),
    "converge": (cmd_converge, "time-step and grid refinement ladders"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qpot",
        description="1D wavepacket dynamics near an absorbing surface",
    )
    parser.add_argument("--version", action="version",
                        version=f"qpot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for sweeps")
        p.add_argument("--seed", type=int, default=None,
                       help="reserved; all runs are deterministic")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QpotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
