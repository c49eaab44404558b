"""Command-line interface: the command table and its I/O.

Every subcommand reads an optional config file, runs one experiment and
writes CSV files plus a run-manifest into the output directory. A
command's row in _COMMANDS lists the config sections and the [params]
keys it reads; its manifest records exactly those with the values the run
used, so the manifest given back as --config replays the run. A [grid] or
[evolve] section or a [params] key given to a command that does not read
it is an error; a value is checked where qpot.config parses it or the
library reads it, and any bad one exits 1. Runs are fully deterministic;
sweep's --workers only changes how packets are scheduled, never the numbers.
"""

import argparse
import inspect
import os
import sys
import types
from dataclasses import astuple
from typing import NamedTuple

import numpy as np

from . import config as cfgmod
from . import io as iomod
from .bohmian import weighted_fields
from .core import DEFAULT_DELTA
from .engineering import ProfileSpec, engineered_packet, profile_on_grid
from .errors import ConfigError, NumericsError, QpotError
from .experiments import (
    FITTED_GAUSSIAN,
    RATIO_FLOOR,
    convergence_report,
    evolve_packet,
    run_comparison,
    run_fitted_control,
    run_preparation_study,
    run_sweep,
)
from .version import __version__


class _Output(NamedTuple):
    """What a command hands back to the driver."""

    csvs: list  # (file name, header, *columns) per file
    extra: dict  # manifest header lines after "# command: ..."
    message: str  # the line printed on stdout
    errors: tuple = ()  # stderr lines; any makes the command exit 1


def _settings(fn, section):
    """The section over fn's keyword defaults: every setting the run used."""
    defaults = {name: p.default
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not p.empty and p.default is not None}
    return {**defaults, **section}


def _path(run, name):
    return os.path.join(run.args.out, name)


def _record_csv(name, record):
    return (name, ("t_s", "norm", "absorbed_fraction"),
            record.times, record.norms, record.absorbed_fraction)


def _comparison_csvs(ratio_name, result):
    """The benchmark / engineered ratio and each packet's record."""
    return [(ratio_name, ("t_s", "ratio"), result.ratio_times, result.ratios)] + [
        _record_csv(f"record_{name}.csv", rec) for name, rec in result.records.items()
    ]


def cmd_profile(run):
    run.profile = spec = ProfileSpec(**run.section)
    psi = engineered_packet(run.grid, run.params, spec)
    profile = profile_on_grid(run.grid, run.params, spec)
    header = ("z_m", "profile", "re_psi", "im_psi", "density")
    return _Output([("profile.csv", header, run.grid.z, profile, psi.values.real,
                     psi.values.imag, psi.density())], {},
                   f"wrote {_path(run, 'profile.csv')}")


def cmd_fields(run):
    run.fields = _settings(weighted_fields, run.section)
    w_q, w_res, rho = weighted_fields(run.grid, run.params, **run.fields)
    support = w_q.valid
    peak_q = float(abs(w_q.values[support]).max())
    peak_res = float(abs(w_res.values[support]).max())
    peak = max(peak_q, peak_res)
    if not np.isfinite(peak / run.params.hbar):  # the largest cell written below
        raise NumericsError(f"weighted field peak {peak!r} over hbar overflows a double")
    # zero outside the support, so that a plot shows exactly the supported
    # region; np.where, as a product with the mask would write -0.0
    wq, wr = (np.where(support, w.values, 0.0) / run.params.hbar for w in (w_q, w_res))
    header = ("z_m", "density", "weighted_q_over_hbar", "weighted_residual_over_hbar")
    return _Output(
        [("fields.csv", header, run.grid.z, rho.values, wq, wr)],
        {"peak_weighted_q": repr(peak_q), "peak_weighted_residual": repr(peak_res)},
        f"wrote {_path(run, 'fields.csv')} "
        f"(residual/q peak ratio {peak_res / peak_q:.3e})",
    )


def cmd_evolve(run):
    name = run.section.get("packet", "engineered")
    stride = run.section.get("snapshot_stride", 0)
    config = cfgmod.evolve_from(run.cfg)
    run.evolve = {**vars(config), "snapshot_stride": stride, "packet": name}
    record = (_evolve_streaming(run, name, config, stride) if stride
              else evolve_packet(name, run.grid, run.params, config))
    absorbed = record.absorbed_fraction[-1]
    return _Output([_record_csv("record.csv", record)],
                   {"absorbed_final": repr(float(absorbed))},
                   f"wrote {_path(run, 'record.csv')} (absorbed {absorbed:.6e})")


def _evolve_streaming(run, name, config, stride):
    """evolve_packet, each capture appended to snapshots.csv as it is taken;
    a failed run or packet removes the file, and --out if this run made it."""
    made = not os.path.isdir(run.args.out)
    os.makedirs(run.args.out, exist_ok=True)
    part = _path(run, "snapshots.csv.part")
    fh = open(part, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            z_cells = iomod.begin_snapshots_csv(fh, run.grid.z)
            record = evolve_packet(name, run.grid, run.params, config, capture=(
                lambda t, psi: iomod.write_snapshot_rows(fh, z_cells, t, psi)),
                snapshot_stride=stride)
        os.replace(part, _path(run, "snapshots.csv"))
    except BaseException:
        os.remove(part)
        if made:
            os.rmdir(run.args.out)
        raise
    return record


def cmd_compare(run):
    run.compare = _settings(run_comparison, run.section)
    run.evolve = cfgmod.evolve_from(run.cfg, run.compare["t_average_window"],
                                    "t_average_window")
    result = run_comparison(run.params, grid=run.grid, config=run.evolve,
                            **run.compare)
    return _Output(
        _comparison_csvs("ratio.csv", result),
        {
            "averaged_ratio": repr(result.averaged_ratio),
            "crossover_time_s": repr(result.crossover_time),
            "ratio_average_note": (
                "averaged over retained times <= t_average_window; times where "
                f"either absorbed fraction is below {RATIO_FLOOR!r} are excluded"
            ),
        },
        f"averaged ratio {result.averaged_ratio}, "
        f"crossover {result.crossover_time}",
    )


def cmd_sweep(run):
    run.sweep = cfgmod.sweep_from(run.cfg)
    run.evolve = cfgmod.evolve_from(run.cfg, run.sweep.t_average_window,
                                    "t_average_window")
    workers = run.args.workers
    rows = run_sweep(run.params, run.sweep, config=run.evolve, workers=workers)
    failed = [r for r in rows if r.failed]
    header = ("z0_m", "sigma_m", "averaged_ratio", "crossover_time_s", "failed", "error")
    columns = zip(*((r.z0, r.sigma, r.averaged_ratio, r.crossover_time, r.failed,
                     r.error) for r in rows))
    return _Output(
        [("sweep.csv", header, *columns)],
        {"workers": workers if workers else "auto", "failed_rows": len(failed)},
        f"wrote {_path(run, 'sweep.csv')} ({len(rows)} rows)",
        tuple(f"error: sweep point z0 = {row.z0!r} m failed: {row.error}"
              for row in failed),
    )


def cmd_fitted(run):
    run.fitted = _settings(run_fitted_control, run.section)
    if not run.fitted["auto_fit"]:
        run.fitted = {**FITTED_GAUSSIAN, **run.fitted}
    run.evolve = cfgmod.evolve_from(run.cfg, run.fitted["t_average_window"],
                                    "t_average_window")
    result = run_fitted_control(run.params, config=run.evolve, **run.fitted)
    return _Output(
        _comparison_csvs("ratio_fitted.csv", result),
        {"averaged_ratio": repr(result.averaged_ratio)},
        f"averaged ratio {result.averaged_ratio}",
    )


def cmd_prepare(run):
    run.prepare = _settings(run_preparation_study, run.section)
    run.evolve = cfgmod.evolve_from(run.cfg, run.prepare["t_window"], "t_window")
    rows = run_preparation_study(run.params, grid=run.grid, config=run.evolve,
                                 **run.prepare)
    header = ("slope_per_m", "slope_z0", "fidelity", "absorbed_imprinted",
              "absorbed_ideal", "penalty")
    # PreparationRow's fields are in header order
    return _Output([("prepare.csv", header, *zip(*map(astuple, rows)))], {},
                   f"wrote {_path(run, 'prepare.csv')} ({len(rows)} slopes)")


def cmd_converge(run):
    run.converge = _settings(convergence_report, run.section)
    report = convergence_report(run.params, base_grid=run.grid, **run.converge)
    return _Output(
        [("converge.csv", ("ladder", "step", "n_points", "absorbed_fraction"),
          *zip(*report.rows))],
        {name: repr(value) for name, value in vars(report).items() if name != "rows"},
        f"dt order {report.dt_order:.2f}, dz order {report.dz_order:.2f}, "
        f"dt halving change {report.dt_halving_change:.3e}, "
        f"dz halving change {report.dz_halving_change:.3e}",
    )


# [params] keys a command reads: profile and fields build no potential,
# sweep and fitted set z0, sigma and trap_omega per packet
_PACKET_KEYS = ("mass", "c4", "z0", "sigma")
_PLACED_KEYS = ("mass", "c4", "delta", "absorber_strength")
_ALL_KEYS = _PACKET_KEYS + ("delta", "absorber_strength", "trap_omega")

# name: (command, help, config sections it reads in manifest order, the
# [params] keys it reads); the command sets run.<section> for each section
# but params and grid
_COMMANDS = {
    "profile": (cmd_profile, "dump the engineered packet and its profile",
                ("params", "grid", "profile"), _PACKET_KEYS),
    "fields": (cmd_fields, "density-weighted quantum potential and residual",
               ("params", "grid", "fields"), _PACKET_KEYS),
    "evolve": (cmd_evolve, "evolve one packet under the full potential stack",
               ("params", "grid", "evolve"), _ALL_KEYS),
    "compare": (cmd_compare, "engineered vs Gaussian absorbed fractions",
                ("params", "grid", "evolve", "compare"), _ALL_KEYS),
    "sweep": (cmd_sweep, "averaged advantage across envelope positions",
              ("params", "evolve", "sweep"), _PLACED_KEYS),
    "fitted": (cmd_fitted, "engineered packet vs position-matched Gaussian",
               ("params", "evolve", "fitted"), _PLACED_KEYS),
    "prepare": (cmd_prepare, "two-pulse preparation fidelity and cost",
                ("params", "grid", "evolve", "prepare"), _ALL_KEYS),
    "converge": (cmd_converge, "time-step and grid refinement ladders",
                 ("params", "grid", "converge"), _ALL_KEYS),
}

_listed = [name for _, _, sections, _ in _COMMANDS.values() for name in sections]
# sections more than one command reads; an unlisted one is rejected
_SHARED = {name for name in _listed if _listed.count(name) > 1}


def _run(args):
    """Load and resolve the config, run the command, then write its CSVs,
    its manifest and its summary line.

    A shared section or a [params] key the command's row does not list is
    rejected before anything runs. Params and, where the row lists it, the
    grid are resolved here; the command resolves its other sections into
    run.
    """
    fn, _, sections, keys = _COMMANDS[args.command]
    cfg = cfgmod.load_config(args.config) if args.config else {}
    unread = [f"[{name}]"
              for name in sorted(_SHARED.intersection(cfg).difference(sections))]
    unread += [f"[params] {key}" for key in cfg.get("params", {}) if key not in keys]
    if unread:
        raise ConfigError(f"qpot {args.command} does not read " + ", ".join(unread))
    if "delta" not in keys and 0 < cfg.get("params", {}).get("z0", 1) <= DEFAULT_DELTA:
        raise ConfigError(f"z0 must exceed the absorber edge delta = {DEFAULT_DELTA}, "
                          f"which is fixed for qpot {args.command}")
    run = types.SimpleNamespace(args=args, cfg=cfg,
                                section=cfg.get(args.command, {}),
                                params=cfgmod.params_from(cfg))
    if "grid" in sections:
        run.grid = cfgmod.grid_from(cfg, run.params)
    out = fn(run)
    os.makedirs(args.out, exist_ok=True)
    for name, header, *columns in out.csvs:
        iomod.write_csv(_path(run, name), header, *columns)
    manifest = {name: getattr(run, name) for name in sections}
    manifest["params"] = {key: getattr(run.params, key) for key in keys}
    iomod.write_manifest(
        _path(run, f"{args.command}_manifest.txt"),
        cfgmod.config_to_text(manifest),
        extra={"command": args.command, **out.extra},
    )
    print(out.message)
    for line in out.errors:
        print(line, file=sys.stderr)
    return 1 if out.errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qpot",
        description="1D wavepacket dynamics near an absorbing surface",
    )
    parser.add_argument("--version", action="version",
                        version=f"qpot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", default=".", help="output directory")
    sub.choices["sweep"].add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="sweep lanes, each a thread evolving one packet at a time "
             "(default: one lane per core)")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (QpotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
