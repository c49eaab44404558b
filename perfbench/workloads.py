"""Workload definitions and output checks for the qpot benchmark.

A workload is one `qpot` CLI command with a config the benchmark writes.
Everything here is plain Python (no numpy, no qpot import) so the
benchmark process itself stays light; the program under test only ever
runs in child processes.
"""

import csv
import json
import math
import os
from dataclasses import asdict, dataclass

DT = 1e-7  # s, the production time step (0.1 us)
BASE_POINTS = 4096  # default grid: [0, 10 um] with 4096 points
BASE_DZ = 10e-6 / (BASE_POINTS - 1)

# compare and snapshots pick z0 from this set by seed. Every member keeps
# z0 + 6 sigma inside 10 um, so every run uses the same 4096-point grid
# and costs the same; each member has its own stored reference.
Z0_SET_UM = (2.8, 2.9, 3.0, 3.1, 3.2)


@dataclass(frozen=True)
class Spec:
    """One workload: which command runs, on what, for how long."""

    name: str
    command: str  # qpot subcommand
    z0_um: tuple  # compare/snapshots: seed picks one; sweep: all points
    t_final: float  # evolved time per packet, s
    sigma_um: float = 0.0  # fixed width (compare, snapshots)
    sigma_ratio: float = 0.0  # sigma = ratio * z0 (sweep)
    dt: float = DT
    z_max_um: float = 0.0  # explicit grid box; 0 = program default grid
    n_points: int = 0
    snapshot_stride: int = 0
    workers: int = 1
    tolerance: float = 2e-3  # max relative deviation from the reference

    @property
    def packets(self):
        return ("engineered",) if self.command == "evolve" else ("engineered", "gaussian")

    def units(self, full=True):
        """Units one run counts: a full sweep one per row, anything else one."""
        return len(self.z0_um) if full and self.command == "sweep" else 1

    @property
    def steps(self):
        return int(round(self.t_final / self.dt))

    def sigma_for(self, z0_um):
        return self.sigma_ratio * z0_um if self.sigma_ratio else self.sigma_um

    def interior_points(self, z0_um):
        """Interior points of the stated grid for one packet.

        This is the problem size the benchmark states, not a value read
        back from the program, so the throughput metric stays a fixed
        amount of work divided by wall time.
        """
        if self.n_points:
            return self.n_points - 2
        z_max = max(10e-6, (z0_um + 6 * self.sigma_for(z0_um)) * 1e-6)
        return max(BASE_POINTS, math.ceil(z_max / BASE_DZ) + 1) - 2

    def point_steps(self, z0_um):
        """Interior points x CN steps over every packet one run evolves."""
        zs = self.z0_um if self.command == "sweep" else (z0_um,)
        return sum(self.interior_points(z) * self.steps * len(self.packets) for z in zs)

    def config_text(self, z0_um, t_final=None):
        """Config file for one run; t_final overrides the evolved time."""
        t_final = self.t_final if t_final is None else t_final
        lines = []
        if self.command != "sweep":
            lines += ["[params]", f"z0 = {z0_um!r}um", f"sigma = {self.sigma_um!r}um"]
        if self.n_points:
            lines += ["[grid]", f"z_max = {self.z_max_um!r}um",
                      f"n_points = {self.n_points}"]
        lines += ["[evolve]", f"dt = {self.dt!r}", f"t_final = {t_final!r}"]
        if self.command == "evolve":
            lines += [f"snapshot_stride = {self.snapshot_stride}", "packet = engineered"]
        elif self.command == "compare":
            lines += ["[compare]", f"t_average_window = {t_final!r}"]
        elif self.command == "sweep":
            z0s = ", ".join(f"{z!r}um" for z in self.z0_um)
            lines += ["[sweep]", f"z0_values = {z0s}",
                      f"sigma_rule = ratio {self.sigma_ratio!r}",
                      f"t_average_window = {t_final!r}"]
        return "\n".join(lines) + "\n"

    def cli_args(self, config_path, out_dir, workers=None):
        args = [self.command, "--config", config_path, "--out", out_dir]
        if self.command == "sweep":
            args += ["--workers", str(workers or self.workers)]
        return args

    def as_dict(self):
        """The settings a reference depends on (the tolerance is not one)."""
        out = json.loads(json.dumps(asdict(self)))
        del out["tolerance"]
        return out


PRODUCTION = {
    # The paper's headline run: engineered vs Gaussian over the 2 ms window.
    "compare": Spec("compare", "compare", Z0_SET_UM, 2e-3, sigma_um=1.0),
    # Six points on 4096..6553-point grids, scheduled on a 2-process pool.
    # The averaged ratio weighs early times, where the ratio is dt-limited
    # (about 1% at dt = 0.1 us), hence the wider tolerance.
    "sweep": Spec("sweep", "sweep", (1.5, 2.0, 2.5, 3.0, 3.5, 4.0), 2e-4,
                  sigma_ratio=0.5, workers=2, tolerance=3e-2),
    # One packet with a density snapshot every 100 steps written as CSV.
    "snapshots": Spec("snapshots", "evolve", Z0_SET_UM, 2e-3, sigma_um=1.0,
                      snapshot_stride=100),
}

# Small grids and short evolved times for the harness self-test. The box
# keeps the production spacing, which the engineered packet requires.
TINY = {
    "compare": Spec("compare", "compare", (1.2, 1.3), 2e-5, sigma_um=0.3,
                    z_max_um=3.5, n_points=1435, tolerance=5e-2),
    "sweep": Spec("sweep", "sweep", (1.5, 2.0), 1e-5, sigma_ratio=0.5,
                  workers=2, tolerance=5e-2),
    "snapshots": Spec("snapshots", "evolve", (1.2, 1.3), 2e-5, sigma_um=0.3,
                      z_max_um=3.5, n_points=1435, snapshot_stride=20,
                      tolerance=5e-2),
}

SCALES = {"production": PRODUCTION, "tiny": TINY}


def z0_key(z0_um):
    return repr(float(z0_um))


def load_reference(path, scale, spec):
    """Reference values for one workload, refusing stale settings."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    stored = ref["specs"][scale][spec.name]
    if stored != spec.as_dict():
        raise ValueError(
            f"{path}: the {scale} reference for {spec.name!r} was made with "
            f"other settings; rerun perfbench/make_reference.py"
        )
    return ref["values"][scale][spec.name]


# ---------------------------------------------------------------- checks


class CheckError(Exception):
    """An output file is missing, malformed or physically wrong."""


def _read_csv(path, header):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None
    if not rows or rows[0] != list(header):
        raise CheckError(f"{os.path.basename(path)}: header is not {','.join(header)}")
    if len(rows) < 2:
        raise CheckError(f"{os.path.basename(path)}: no data rows")
    return rows[1:]


def _number(text, where):
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {text!r}")
    return value


def _columns(path, header):
    """Parse a numeric CSV into one list per column."""
    rows = _read_csv(path, header)
    name = os.path.basename(path)
    cols = [[] for _ in header]
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CheckError(f"{name}:{i}: expected {len(header)} cells, got {len(row)}")
        for col, cell in zip(cols, row):
            col.append(_number(cell, f"{name}:{i}"))
    return cols


def _check_record(path, steps=None):
    """Norms never increase; returns the final absorbed fraction."""
    times, norms, absorbed = _columns(path, ("t_s", "norm", "absorbed_fraction"))
    name = os.path.basename(path)
    if steps is not None and len(times) != steps + 1:
        raise CheckError(f"{name}: {len(times)} rows, expected {steps + 1}")
    for k in range(1, len(norms)):
        if norms[k] > norms[k - 1]:
            raise CheckError(f"{name}: norm increases at row {k + 1}")
    return absorbed[-1]


def _rel_err(value, reference, what, tolerance):
    err = abs(value - reference) / abs(reference)
    if not err <= tolerance:
        raise CheckError(
            f"{what}: {value!r} is {err:.2e} from the reference {reference!r} "
            f"(tolerance {tolerance:g})"
        )
    return err


def _manifest_value(path, key):
    prefix = f"# {key}: "
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
    except OSError as exc:
        raise CheckError(f"cannot read {os.path.basename(path)}: {exc}") from None
    raise CheckError(f"{os.path.basename(path)}: no {key!r} entry")


@dataclass
class Outcome:
    """What one CLI run produced, as the checks saw it."""

    units: int = 1  # runs count 1; a sweep counts one unit per row
    failed: int = 0
    errors: tuple = ()
    rel_errs: tuple = ()  # |value - reference| / reference per packet or row
    rows_written: int = 0
    bytes_written: int = 0


def _output_sizes(out_dir):
    rows = size = 0
    for entry in os.scandir(out_dir):
        size += entry.stat().st_size
        if entry.name.endswith(".csv"):
            with open(entry.path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def check_outputs(spec, out_dir, z0_um, reference, full=True):
    """Check one run's outputs.

    full=False is for set-up probes, which evolve a few steps only: the
    files must parse and the norms must not increase, but no reference or
    ratio applies.
    """
    units = spec.units(full)
    try:
        if spec.command == "sweep":
            errors, rel = _check_sweep(spec, out_dir, reference, full)
        else:
            errors, rel = [], _check_run(spec, out_dir, z0_um, reference, full)
    except CheckError as exc:
        return Outcome(units=units, failed=units, errors=(str(exc),))
    rows, size = _output_sizes(out_dir)
    return Outcome(units=units, failed=min(len(errors), units), errors=tuple(errors),
                   rel_errs=tuple(rel), rows_written=rows, bytes_written=size)


def _check_run(spec, out_dir, z0_um, reference, full):
    """compare and evolve: records, then the ratio or the snapshots."""
    rel = []
    for packet in spec.packets:
        name = "record.csv" if spec.command == "evolve" else f"record_{packet}.csv"
        final = _check_record(os.path.join(out_dir, name), spec.steps if full else None)
        if full:
            rel.append(_rel_err(final, reference[z0_key(z0_um)][packet],
                                f"{packet} absorbed", spec.tolerance))
    if spec.command == "compare":
        _check_ratio(out_dir, spec.t_final if full else None)
    else:
        _check_snapshots(spec, out_dir, full)
    return rel


def _check_ratio(out_dir, window):
    times, ratios = _columns(os.path.join(out_dir, "ratio.csv"), ("t_s", "ratio"))
    if window is None:
        return
    kept = [r for t, r in zip(times, ratios) if t <= window]
    stated = _manifest_value(os.path.join(out_dir, "compare_manifest.txt"),
                             "averaged_ratio")
    stated = _number(stated, "compare_manifest.txt averaged_ratio")
    mean = sum(kept) / len(kept) if kept else float("nan")
    if not abs(mean - stated) <= 1e-9 * abs(stated):
        raise CheckError(f"ratio.csv mean {mean!r} != manifest {stated!r}")
    if not stated > 1:
        raise CheckError(f"averaged ratio {stated!r} is not above 1")


def _check_snapshots(spec, out_dir, full):
    """Long-form density snapshots: one block of grid rows per capture.

    The file can hold a million rows, so it is streamed, keeping only the
    block sizes and the last block.
    """
    name = "snapshots.csv"
    try:
        fh = open(os.path.join(out_dir, name), encoding="utf-8", newline="")
    except OSError as exc:
        raise CheckError(f"cannot read {name}: {exc}") from None
    blocks, last, t_block = [], [], None
    with fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["t_s", "z_m", "density"]:
            raise CheckError(f"{name}: header is not t_s,z_m,density")
        for i, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise CheckError(f"{name}:{i}: expected 3 cells, got {len(row)}")
            t, z, rho = (_number(cell, f"{name}:{i}") for cell in row)
            if rho < 0:
                raise CheckError(f"{name}:{i}: negative density")
            if t != t_block:
                blocks.append(0)
                last, t_block = [], t
            blocks[-1] += 1
            last.append((z, rho))
    if not blocks or len(set(blocks)) != 1:
        raise CheckError(f"{name}: captures of unequal size {sorted(set(blocks))}")
    if not full:
        return
    captures = spec.steps // spec.snapshot_stride + 1
    if len(blocks) != captures:
        raise CheckError(f"{name}: {len(blocks)} captures, expected {captures}")
    # the last capture integrates to the final recorded norm squared
    _, norms, _ = _columns(os.path.join(out_dir, "record.csv"),
                           ("t_s", "norm", "absorbed_fraction"))
    mass = sum((z1 - z0) * (r1 + r0) / 2 for (z0, r0), (z1, r1) in zip(last, last[1:]))
    if not abs(mass - norms[-1] ** 2) <= 1e-9:
        raise CheckError(f"{name}: last capture holds {mass!r}, record says "
                         f"{norms[-1] ** 2!r}")


def _check_sweep(spec, out_dir, reference, full):
    """One error per failed row. The failed column is read, since the CLI
    exits 0 even when rows fail."""
    header = ("z0_m", "sigma_m", "averaged_ratio", "crossover_time_s",
              "failed", "error")
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"), header)
    if len(rows) > len(spec.z0_um):
        raise CheckError(f"sweep.csv: {len(rows)} rows, expected {len(spec.z0_um)}")
    errors = [f"sweep.csv: no row for z0 = {z} um" for z in spec.z0_um[len(rows):]]
    rel = []
    for i, (row, z0_um) in enumerate(zip(rows, spec.z0_um), start=2):
        try:
            if len(row) != len(header):
                raise CheckError(f"sweep.csv:{i}: expected {len(header)} cells")
            if row[4] != "false":
                raise CheckError(f"sweep.csv:{i}: row marked failed: {row[5]}")
            z0 = _number(row[0], f"sweep.csv:{i}")
            if not abs(z0 - z0_um * 1e-6) <= 1e-9 * z0:
                raise CheckError(f"sweep.csv:{i}: z0 {z0!r}, expected {z0_um} um")
            if full:
                ratio = _number(row[2], f"sweep.csv:{i} averaged_ratio")
                if not ratio > 1:
                    raise CheckError(f"sweep.csv:{i}: averaged ratio {ratio!r} <= 1")
                rel.append(_rel_err(ratio, reference[z0_key(z0_um)],
                                    f"sweep z0={z0_um}um averaged ratio",
                                    spec.tolerance))
        except CheckError as exc:
            errors.append(str(exc))
    return errors, rel
