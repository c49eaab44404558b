"""Config parsing and CSV/manifest serialization."""

import tracemalloc
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from qpot.config import (
    config_to_text,
    evolve_from,
    grid_from,
    params_from,
    parse_bool,
    parse_config_text,
    parse_count,
    parse_int,
    parse_list,
    parse_packet,
    parse_quantity,
    parse_rule,
    sweep_from,
)
from qpot.core import Grid1D, PhysicalParams, default_grid
from qpot.errors import ConfigError
from qpot.experiments import PreparationRow, SweepRow, SweepSpec
from qpot.io import begin_snapshots_csv, write_csv, write_manifest, write_snapshot_rows
from qpot.propagate import ExperimentRecord
from qpot.version import __version__


# (text, its key's dimension, value in SI); a case's id is text-value
QUANTITIES = [
    ("2.3um", "a length", 2.3e-6),
    ("0.1us", "a time", 1e-7),
    ("150nm", "a length", 1.5e-7),
    ("2ms", "a time", 2e-3),
    ("5", "a pure number", 5.0),
    ("1.5e-7 m", "a length", 1.5e-7),
    ("366.17 rad/s", "a rate", 366.17),
    ("-4.2e-3s", "a time", -4.2e-3),
    ("1.44e-25kg", "a mass", 1.44e-25),
    ("9.1e-56J", "an energy", 9.1e-56),
]


class TestParsers:
    @pytest.mark.parametrize("text,dimension,expected", QUANTITIES,
                             ids=[f"{text}-{value}" for text, _, value in QUANTITIES])
    def test_quantities(self, text, dimension, expected):
        assert parse_quantity(text, dimension) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["3km", "abc", "", "1..2", "2 um s"])
    def test_bad_quantities(self, text):
        with pytest.raises(ConfigError):
            parse_quantity(text, "a length")

    def test_bools(self):
        for t in ("true", "Yes", "on", "1"):
            assert parse_bool(t) is True
        for t in ("false", "No", "off", "0"):
            assert parse_bool(t) is False
        with pytest.raises(ConfigError):
            parse_bool("maybe")

    def test_int_and_list(self):
        assert parse_int(" 42 ") == 42
        with pytest.raises(ConfigError):
            parse_int("4.2")
        length = partial(parse_quantity, dimension="a length")
        assert parse_list(length)("1um, 2um") == (1e-6, 2e-6)
        with pytest.raises(ConfigError):
            parse_list(length)(" , ")

    def test_counts_and_packets(self):
        assert parse_count(" 0 ") == 0 and parse_count("50") == 50
        with pytest.raises(ConfigError, match="non-negative integer, got -2"):
            parse_count("-2")
        with pytest.raises(ConfigError, match="cannot parse integer"):
            parse_count("2.5")
        assert parse_packet(" gaussian ") == "gaussian"
        with pytest.raises(ConfigError, match="unknown packet 'plane'"):
            parse_packet("plane")

    def test_rules(self):
        assert parse_rule("ratio 0.5") == ("ratio", 0.5)
        assert parse_rule("fixed 1um") == ("fixed", 1e-6)
        with pytest.raises(ConfigError):
            parse_rule("linear 3")


SAMPLE = """\
# absorption sweep
[params]
z0 = 2.3um   # envelope center
sigma = 1um

[sweep]
z0_values = 1.5um, 2um
sigma_rule = ratio 0.5

[evolve]
dt = 0.1us
t_final = 2ms
packet = engineered

[profile]
use_abs = true
"""


class TestParseConfigText:
    def test_sample(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg["params"]["z0"] == pytest.approx(2.3e-6)
        assert cfg["sweep"]["z0_values"] == (1.5e-6, 2e-6)
        assert cfg["sweep"]["sigma_rule"] == ("ratio", 0.5)
        assert cfg["evolve"]["dt"] == pytest.approx(1e-7)
        assert cfg["profile"]["use_abs"] is True

    @pytest.mark.parametrize("text,fragment", [
        ("[nope]\n", "unknown section"),
        ("[params]\nwidth = 1um\n", "unknown key"),
        ("[params]\nz0 = 1um\n[params]\n", "duplicate section"),
        ("[params]\nz0 = 1um\nz0 = 2um\n", "duplicate key"),
        ("z0 = 1um\n", "outside any"),
        ("[params]\nz0 1um\n", "expected 'key = value'"),
        ("[params]\nz0 = 1parsec\n", "unknown unit"),
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert fragment in str(err.value)
        assert "line " in str(err.value)


class TestBuilders:
    def test_params_from(self):
        cfg = parse_config_text("[params]\nz0 = 3um\nsigma = 0.5um\n")
        p = params_from(cfg)
        assert p.z0 == pytest.approx(3e-6)
        assert p.sigma == pytest.approx(0.5e-6)
        assert params_from({}) == PhysicalParams()

    def test_grid_from_full_and_partial(self):
        cfg = parse_config_text("[grid]\nz_max = 8um\nn_points = 512\n")
        g = grid_from(cfg, PhysicalParams())
        assert g == Grid1D(z_max=8e-6, n_points=512)
        partial = parse_config_text("[grid]\nn_points = 1024\n")
        g2 = grid_from(partial, PhysicalParams())
        assert g2.n_points == 1024
        assert g2.z_max == default_grid(PhysicalParams()).z_max
        assert grid_from({}, PhysicalParams()) == default_grid(PhysicalParams())
        assert grid_from({"grid": {}}, PhysicalParams()) == default_grid(PhysicalParams())
        # both keys set: the params' wider default box does not leak in
        assert grid_from(cfg, PhysicalParams(z0=20e-6)) == Grid1D(z_max=8e-6, n_points=512)

    def test_evolve_from_pops_run_keys(self):
        cfg = parse_config_text(SAMPLE)
        ev = evolve_from(cfg)
        assert ev.dt == pytest.approx(1e-7)
        assert ev.t_final == pytest.approx(2e-3)
        # a study's window is t_final only where [evolve] sets none
        study = {"evolve": {k: v for k, v in cfg["evolve"].items() if k != "packet"}}
        assert evolve_from(study, 1e-4, "t_average_window") == ev
        del cfg["evolve"]["t_final"], study["evolve"]["t_final"]
        ev2 = evolve_from(study, 1e-4, "t_average_window")
        assert (ev2.dt, ev2.t_final) == (ev.dt, 1e-4)
        cfg["evolve"]["snapshot_stride"] = 5  # qpot evolve's, dropped like packet
        assert evolve_from(cfg) == evolve_from({"evolve": {"dt": ev.dt}})
        # a study rejects both, but an old manifest's stride of 0 replays
        for key, value in [("packet", "engineered"), ("snapshot_stride", 5)]:
            with pytest.raises(ConfigError, match=rf"\[evolve\] {key} is read only by "
                                                  "qpot evolve"):
                evolve_from({"evolve": {key: value}}, 1e-4, "t_average_window")
        study["evolve"]["snapshot_stride"] = 0
        assert evolve_from(study, 1e-4, "t_average_window") == ev2

    def test_sweep_from_fills_defaults(self):
        default = SweepSpec()
        assert default.z0_values == pytest.approx(
            (1.5e-6, 2e-6, 2.5e-6, 3e-6, 3.5e-6, 4e-6), rel=1e-15)
        assert sweep_from({}) == default
        partial = sweep_from({"sweep": {"t_average_window": 1e-3}})
        assert partial.z0_values == default.z0_values
        assert partial.t_average_window == 1e-3
        spec = sweep_from(parse_config_text(SAMPLE))
        assert spec.z0_values == (1.5e-6, 2e-6)


class TestRoundTrips:
    @pytest.mark.parametrize("spec", [
        SweepSpec(z0_values=(1.5e-6, 2.75e-6, 4e-6)),
        SweepSpec(z0_values=(2.3e-6,), sigma_rule=("fixed", 0.7e-6),
                  t_average_window=1.5e-3),
        SweepSpec(z0_values=(1e-6 / 3,), sigma_rule=("ratio", 1 / 3)),
    ])
    def test_sweep_spec_survives_serialization(self, spec):
        text = config_to_text({"sweep": spec})
        assert sweep_from(parse_config_text(text)) == spec

    def test_config_text_round_trip(self):
        cfg = parse_config_text(SAMPLE)
        assert parse_config_text(config_to_text(cfg)) == cfg


def reference_cell(value):
    """The per-cell rules of the row-by-row writer the column writer
    replaced, kept as the reference its bytes are compared against."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(reference_cell(cell) for cell in row) + "\n")


EDGES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, -2.5, 1.0 / 3,
         float("inf"), float("nan")]
EDGES_F32 = np.array([-0.0, 1e-45, 1e-30, 3.4028235e38, 0.1, -2.5, 1.0 / 3,
                      float("inf"), float("nan")], dtype=np.float32)


def edge_column(shift=0):
    return np.roll(np.array(EDGES), shift)


def write_captures(path, grid, captures):
    """A snapshots CSV of (t, psi) captures, one streaming write each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        z_cells = begin_snapshots_csv(fh, grid.z)
        for t, psi in captures:
            write_snapshot_rows(fh, z_cells, t, psi)


# each command's table header, as the command declares it
RECORD = ("t_s", "norm", "absorbed_fraction")
SNAPSHOTS = ("t_s", "z_m", "density")
FIELDS = ("z_m", "density", "weighted_q_over_hbar", "weighted_residual_over_hbar")
RATIO = ("t_s", "ratio")
SWEEP = ("z0_m", "sigma_m", "averaged_ratio", "crossover_time_s", "failed", "error")
PREPARATION = ("slope_per_m", "slope_z0", "fidelity", "absorbed_imprinted",
               "absorbed_ideal", "penalty")
CONVERGENCE = ("ladder", "step", "n_points", "absorbed_fraction")
PROFILE = ("z_m", "profile", "re_psi", "im_psi", "density")


def edge_cases():
    """(name, write, args, header, reference rows) for each command's table,
    written by write_csv, and for the snapshot stream, on edge floats,
    float32 and longdouble arrays, numpy scalars, None, bools and strings."""
    n = len(EDGES)
    grid = Grid1D(z_max=1e-6, n_points=n)
    f32 = np.roll(EDGES_F32, 2)
    record = (edge_column(), f32, edge_column(5))
    # |psi|^2 gives back the edge densities: float32 in the second capture
    captures = [(0.0, np.sqrt(np.abs(edge_column(1)))),
                (np.float32(0.1), np.sqrt(np.abs(f32))),
                (np.float64(5e-324), np.sqrt(np.abs(edge_column(4))).astype(complex))]
    # the fields columns as qpot fields makes them: w / hbar, zero outside
    # the support
    mask = np.arange(n) % 3 != 0
    hbar = 1.0545718176461565e-34
    fields = (grid.z, edge_column(3), np.where(mask, edge_column(6) * hbar, 0.0) / hbar,
              np.where(mask, f32 * hbar, 0.0) / hbar)
    ratio = (f32, edge_column(7).astype(np.longdouble))
    values = np.empty(n, dtype=complex)
    values.real, values.imag = edge_column(1), edge_column(8)
    profile = (grid.z, edge_column(5), values.real, values.imag, edge_column(2))
    sweep_rows = [(r.z0, r.sigma, r.averaged_ratio, r.crossover_time, r.failed, r.error)
                  for r in (SweepRow(z0=np.float32(2e-6), sigma=np.int64(7),
                                     crossover_time=5e-324),
                            SweepRow(z0=-0.0, sigma=1e-300,
                                     averaged_ratio=1.7976931348623157e308,
                                     error="ConfigError: x, y"))]
    prep_rows = [astuple(PreparationRow(*EDGES[:6])),
                 astuple(PreparationRow(np.float32(0.1), np.int64(3), True, None, "s",
                                        float("nan")))]
    convergence_rows = [("dt", 1e-7, "", -0.0), ("dt", 5e-324, "", np.float32(0.1)),
                        ("dz", 2.5e-9, np.int64(4097), 1e-300),
                        ("dz", 1.25e-9, 8193, float("inf"))]
    rows = 12_289  # one row past a multiple of any power-of-two block up to 4096
    long = (np.arange(rows) * 1e-7, np.linspace(1, 0.5, rows), np.resize(EDGES_F32, rows))
    return [
        ("record", write_csv, (RECORD, *record), RECORD, zip(*record)),
        ("record_long", write_csv, (RECORD, *long), RECORD, zip(*long)),
        ("snapshots", write_captures, (grid, captures), SNAPSHOTS,
         [(t, zi, ri) for t, psi in captures
          for zi, ri in zip(grid.z, np.abs(psi) ** 2)]),
        ("fields", write_csv, (FIELDS, *fields), FIELDS, zip(*fields)),
        ("ratio", write_csv, (RATIO, *ratio), RATIO, zip(*ratio)),
        ("sweep", write_csv, (SWEEP, *zip(*sweep_rows)), SWEEP, sweep_rows),
        ("preparation", write_csv, (PREPARATION, *zip(*prep_rows)), PREPARATION,
         prep_rows),
        ("convergence", write_csv, (CONVERGENCE, *zip(*convergence_rows)),
         CONVERGENCE, convergence_rows),
        ("profile", write_csv, (PROFILE, *profile), PROFILE, zip(*profile)),
        ("no_columns", write_csv, (SWEEP,), SWEEP, []),
        ("empty_columns", write_csv, (RATIO, np.empty(0), []), RATIO, []),
    ]


class TestColumnWriter:
    @pytest.mark.parametrize("case", edge_cases(), ids=lambda case: case[0])
    def test_bytes_match_row_by_row_reference(self, tmp_path, case):
        _, write, args, header, rows = case
        write(tmp_path / "new.csv", *args)
        reference_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_tables_write_the_header_alone(self, tmp_path):
        write_csv(tmp_path / "sweep.csv", SWEEP, *zip(*[]))
        write_csv(tmp_path / "ratio.csv", RATIO, np.empty(0), np.empty(0))
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 1
        assert (tmp_path / "ratio.csv").read_text() == "t_s,ratio\n"

    def test_snapshot_writer_streams(self, tmp_path):
        """201 captures of 4096 points, an 11 MB file, in under 0.8 MB: a
        capture's text is formatted one block of rows at a time."""
        grid = Grid1D(z_max=10e-6, n_points=4096)
        rng = np.random.default_rng(7)
        captures = [(k * 1e-5, rng.random(4096)) for k in range(201)]
        tracemalloc.start()
        try:
            write_captures(tmp_path / "snapshots.csv", grid, captures)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "snapshots.csv").stat().st_size > 10e6
        assert peak < 0.8e6


def tiny_record():
    times = np.array([0.0, 1e-7, 2e-7])
    norms = np.array([1.0, 0.999, 0.998])
    return ExperimentRecord(times=times, norms=norms, absorbed_fraction=1.0 - norms**2)


class TestSweepCsv:
    def test_failed_row_has_empty_ratio(self, tmp_path):
        """A row failed by its error alone writes empty ratio and crossover
        cells, `true` and the error, in the columns qpot sweep builds."""
        rows = [
            SweepRow(z0=2e-6, sigma=1e-6, averaged_ratio=3.5,
                     crossover_time=None),
            SweepRow(z0=3e-6, sigma=1.5e-6, error="ValueError: synthetic"),
        ]
        path = tmp_path / "sweep.csv"
        write_csv(path, SWEEP, *zip(*((r.z0, r.sigma, r.averaged_ratio,
                                       r.crossover_time, r.failed, r.error)
                                      for r in rows)))
        lines = path.read_text().splitlines()
        assert lines[0] == "z0_m,sigma_m,averaged_ratio,crossover_time_s,failed,error"
        assert lines[1] == "2e-06,1e-06,3.5,,false,"
        assert lines[2] == "3e-06,1.5e-06,,,true,ValueError: synthetic"


class TestRecordCsv:
    def test_record_rows(self, tmp_path):
        path = tmp_path / "record.csv"
        record = tiny_record()
        write_csv(path, RECORD, record.times, record.norms, record.absorbed_fraction)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,norm,absorbed_fraction"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,1.0,")

    def test_snapshots_long_form(self, tmp_path):
        path = tmp_path / "snaps.csv"
        captures = [(0.0, np.ones(4)), (2e-7, np.zeros(4))]
        write_captures(path, Grid1D(z_max=1e-6, n_points=4), captures)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,z_m,density"
        assert len(lines) == 1 + 2 * 4


class TestManifest:
    def test_header_and_body(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, "[params]\nz0 = 2.3e-06\n",
                       extra={"command": "sweep", "workers": 2})
        lines = path.read_text().splitlines()
        assert lines[0] == f"# qpot {__version__}"
        assert lines[1] == "# command: sweep"
        assert lines[2] == "# workers: 2"
        assert lines[3] == "[params]"
