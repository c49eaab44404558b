"""CSV and manifest output.

All files are comma-separated with a header row and '.' decimals. Floats
are written with repr so the text is deterministic and round-trips to the
exact double; identical inputs produce byte-identical files no matter how
many workers computed the rows. One column-oriented writer formats
each column once and streams the rows one block at a time, so no file is
ever held in memory whole.
"""

from dataclasses import astuple
from itertools import chain, repeat

import numpy as np

from .version import __version__

_BLOCK_ROWS = 1024  # rows formatted and written per writelines call


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(column):
    """A column's cells, formatted lazily; a float array in one pass."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(repr, column.astype(float, copy=False).tolist())
    return map(_cell, column)


def _line(cells):
    return ",".join(cells) + "\n"


def _blocks(*columns):
    """The columns in blocks of _BLOCK_ROWS rows, formatted lazily."""
    n = min(map(len, columns), default=0)
    for start in range(0, n, _BLOCK_ROWS):
        yield tuple(_cells(c[start:start + _BLOCK_ROWS]) for c in columns)


def _write_csv(path, header, blocks):
    """Write the header, then each block (a sequence of columns of cell
    strings, cut to the shortest) in one writelines call."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_line(header))
        for columns in blocks:
            fh.writelines(map(_line, zip(*columns)))


def write_profile_csv(path, z, profile, psi):
    """Columns: z_m, profile, re_psi, im_psi, density."""
    _write_csv(path, ("z_m", "profile", "re_psi", "im_psi", "density"),
               _blocks(z, profile, psi.values.real, psi.values.imag, psi.density()))


def write_record_csv(path, record):
    """Columns: t_s, norm, absorbed_fraction."""
    _write_csv(path, ("t_s", "norm", "absorbed_fraction"),
               _blocks(record.times, record.norms, record.absorbed_fraction))


def begin_snapshots_csv(fh, z):
    """Write a snapshots CSV header; returns the z_m cells write_snapshot_rows takes."""
    fh.write(_line(("t_s", "z_m", "density")))
    return [cell + "," for cell in _cells(z)]


def write_snapshot_rows(fh, z_cells, t, psi):
    """Append one capture as t_s, z_m, density = |psi|^2 rows, in one write."""
    rows = zip(repeat(_cell(t) + ","), z_cells, _cells(np.abs(psi) ** 2), repeat("\n"))
    fh.write("".join(chain.from_iterable(rows)))


def write_weighted_fields_csv(path, w_q, w_res, rho, hbar):
    """Columns: z_m, density, weighted_q_over_hbar, weighted_residual_over_hbar.

    The weighted columns are zeroed outside the packet support so a plot of
    the file shows exactly the supported region.
    """
    support = w_q.valid_mask()
    wq = np.where(support, w_q.values, 0.0) / hbar
    wr = np.where(support, w_res.values, 0.0) / hbar
    _write_csv(
        path,
        ("z_m", "density", "weighted_q_over_hbar", "weighted_residual_over_hbar"),
        _blocks(rho.grid.z, rho.values, wq, wr),
    )


def write_ratio_csv(path, result):
    """Columns: t_s, ratio (benchmark absorbed / engineered absorbed)."""
    _write_csv(path, ("t_s", "ratio"), _blocks(result.ratio_times, result.ratios))


def write_sweep_csv(path, rows):
    header = ("z0_m", "sigma_m", "averaged_ratio", "crossover_time_s",
              "failed", "error")
    out = [
        (r.z0, r.sigma, r.averaged_ratio, r.crossover_time, r.failed, r.error)
        for r in rows
    ]
    _write_csv(path, header, _blocks(*zip(*out)))


def write_preparation_csv(path, rows):
    header = ("slope_per_m", "slope_z0", "fidelity", "absorbed_imprinted",
              "absorbed_ideal", "penalty")
    # PreparationRow's fields are in header order
    _write_csv(path, header, _blocks(*zip(*map(astuple, rows))))


def write_convergence_csv(path, report):
    """Refinement ladders in long form, one row per run."""
    rows = [("dt", dt, "", f) for dt, f in report.dt_rows]
    rows += [("dz", dz, n, f) for dz, n, f in report.dz_rows]
    _write_csv(path, ("ladder", "step", "n_points", "absorbed_fraction"),
               _blocks(*zip(*rows)))


def write_manifest(path, cfg_text, extra):
    """Echo the code version, the `extra` header lines and the resolved
    configuration (config_to_text's newline-terminated text) next to the data."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qpot {__version__}\n")
        fh.writelines(f"# {key}: {value}\n" for key, value in extra.items())
        fh.write(cfg_text)
