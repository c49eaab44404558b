"""CSV and manifest output.

All files are comma-separated with a header row and '.' decimals. Floats
are written with repr so the text is deterministic and round-trips to the
exact double; identical inputs produce byte-identical files no matter how
many workers computed the rows. Each command declares its table, a header
and its columns; write_csv and the snapshot writer format and write the
rows one block at a time, so no file or capture is ever held as text whole.
"""

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


def write_csv(path, header, *columns):
    """Write the header, then the columns' rows, cut to the shortest column;
    each block of _BLOCK_ROWS rows is formatted lazily and written in one
    writelines call."""
    n = min(map(len, columns), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_line(header))
        for start in range(0, n, _BLOCK_ROWS):
            cells = [_cells(c[start:start + _BLOCK_ROWS]) for c in columns]
            fh.writelines(map(_line, zip(*cells)))


def begin_snapshots_csv(fh, z):
    """Write a snapshots CSV header; returns the z_m cells write_snapshot_rows takes."""
    fh.write(_line(("t_s", "z_m", "density")))
    return [cell + "," for cell in _cells(z)]


def write_snapshot_rows(fh, z_cells, t, psi):
    """Append one capture as t_s, z_m, density = |psi|^2 rows, _BLOCK_ROWS per write."""
    t_cell, density = _cell(t) + ",", np.abs(psi) ** 2
    for start in range(0, len(density), _BLOCK_ROWS):
        rows = zip(repeat(t_cell), z_cells[start:start + _BLOCK_ROWS],
                   _cells(density[start:start + _BLOCK_ROWS]), repeat("\n"))
        fh.write("".join(chain.from_iterable(rows)))


def write_manifest(path, cfg_text, extra):
    """Echo the code version, the `extra` header lines and the resolved
    configuration (config_to_text's newline-terminated text) next to the data."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qpot {__version__}\n")
        fh.writelines(f"# {key}: {value}\n" for key, value in extra.items())
        fh.write(cfg_text)
