"""CSV and manifest output.

All files are comma-separated with a header row and '.' decimals. Floats
are written with repr so the text is deterministic and round-trips to the
exact double; identical inputs produce byte-identical files no matter how
many workers computed the rows.
"""

import numpy as np

from .version import __version__


def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(cell) for cell in row) + "\n")


def write_record_csv(path, record):
    """Columns: t_s, norm, absorbed_fraction."""
    rows = zip(record.times, record.norms, record.absorbed_fraction)
    write_csv(path, ("t_s", "norm", "absorbed_fraction"), rows)


def write_snapshots_csv(path, record):
    """Density snapshots in long form: t_s, z_m, density."""
    z = record.grid.z

    def rows():
        for t, rho in record.snapshots:
            for zi, ri in zip(z, rho):
                yield (t, zi, ri)

    write_csv(path, ("t_s", "z_m", "density"), rows())


def write_weighted_fields_csv(path, w_q, w_res, rho, hbar):
    """Columns: z_m, density, weighted_q_over_hbar, weighted_residual_over_hbar.

    The weighted columns are zeroed outside the packet support so a plot of
    the file shows exactly the supported region.
    """
    support = w_q.valid_mask()
    wq = np.where(support, w_q.values, 0.0) / hbar
    wr = np.where(support, w_res.values, 0.0) / hbar
    rows = zip(rho.grid.z, rho.values, wq, wr)
    write_csv(
        path,
        ("z_m", "density", "weighted_q_over_hbar", "weighted_residual_over_hbar"),
        rows,
    )


def write_ratio_csv(path, result):
    """Columns: t_s, ratio (benchmark absorbed / engineered absorbed)."""
    rows = zip(result.ratio_times, result.ratios)
    write_csv(path, ("t_s", "ratio"), rows)


def write_sweep_csv(path, rows):
    header = ("z0_m", "sigma_m", "averaged_ratio", "crossover_time_s",
              "failed", "error")
    out = [
        (r.z0, r.sigma, r.averaged_ratio, r.crossover_time, r.failed, r.error)
        for r in rows
    ]
    write_csv(path, header, out)


def write_preparation_csv(path, rows):
    header = ("slope_per_m", "slope_z0", "fidelity", "absorbed_imprinted",
              "absorbed_ideal", "penalty")
    out = [
        (r.slope, r.slope_z0, r.fidelity, r.absorbed_imprinted,
         r.absorbed_ideal, r.penalty)
        for r in rows
    ]
    write_csv(path, header, out)


def write_convergence_csv(path, report):
    """Refinement ladders in long form, one row per run."""
    rows = []
    for dt, f in report.dt_rows:
        rows.append(("dt", dt, "", f))
    for dz, n, f in report.dz_rows:
        rows.append(("dz", dz, n, f))
    write_csv(path, ("ladder", "step", "n_points", "absorbed_fraction"), rows)


def write_manifest(path, cfg_text, extra=None):
    """Echo the resolved configuration and code version next to the data."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qpot {__version__}\n")
        if extra:
            for key, value in extra.items():
                fh.write(f"# {key}: {value}\n")
        fh.write(cfg_text)
        if not cfg_text.endswith("\n"):
            fh.write("\n")
