"""Config parsing and CSV/manifest serialization."""

import numpy as np
import pytest

from qpot.config import (
    config_to_text,
    evolve_from,
    grid_from,
    params_from,
    parse_bool,
    parse_config_text,
    parse_int,
    parse_list,
    parse_quantity,
    parse_rule,
    sweep_from,
)
from qpot.core import Grid1D, PhysicalParams, default_grid
from qpot.errors import ConfigError
from qpot.experiments import SweepRow, SweepSpec
from qpot.io import (
    format_cell,
    write_manifest,
    write_record_csv,
    write_snapshots_csv,
    write_sweep_csv,
    write_weighted_fields_csv,
)
from qpot.propagate import ExperimentRecord
from qpot.version import __version__


class TestParsers:
    @pytest.mark.parametrize("text,expected", [
        ("2.3um", 2.3e-6),
        ("0.1us", 1e-7),
        ("150nm", 1.5e-7),
        ("2ms", 2e-3),
        ("5", 5.0),
        ("1.5e-7 m", 1.5e-7),
        ("366.17 rad/s", 366.17),
        ("-4.2e-3s", -4.2e-3),
        ("1.44e-25kg", 1.44e-25),
        ("9.1e-56J", 9.1e-56),
    ])
    def test_quantities(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["3km", "abc", "", "1..2", "2 um s"])
    def test_bad_quantities(self, text):
        with pytest.raises(ConfigError):
            parse_quantity(text)

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
        assert parse_list(parse_quantity)("1um, 2um") == (1e-6, 2e-6)
        with pytest.raises(ConfigError):
            parse_list(parse_quantity)(" , ")

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
variants = engineered, gaussian

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
        assert cfg["sweep"]["variants"] == ("engineered", "gaussian")
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
        g = grid_from(cfg)
        assert g == Grid1D(z_max=8e-6, n_points=512)
        partial = parse_config_text("[grid]\nn_points = 1024\n")
        g2 = grid_from(partial, PhysicalParams())
        assert g2.n_points == 1024
        assert g2.z_max == default_grid(PhysicalParams()).z_max
        assert grid_from({}, PhysicalParams()) == default_grid(PhysicalParams())

    def test_evolve_from_pops_run_keys(self):
        cfg = parse_config_text(SAMPLE)
        ev = evolve_from(cfg)
        assert ev.dt == pytest.approx(1e-7)
        assert ev.t_final == pytest.approx(2e-3)
        ev2 = evolve_from(cfg, t_final=1e-4)
        assert ev2.t_final == 1e-4

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
                  t_average_window=1.5e-3,
                  variants=("engineered", "fitted_gaussian")),
        SweepSpec(z0_values=(1e-6 / 3,), sigma_rule=("ratio", 1 / 3)),
    ])
    def test_sweep_spec_survives_serialization(self, spec):
        text = config_to_text({"sweep": spec})
        assert sweep_from(parse_config_text(text)) == spec

    def test_config_text_round_trip(self):
        cfg = parse_config_text(SAMPLE)
        assert parse_config_text(config_to_text(cfg)) == cfg


class TestFormatCell:
    def test_values(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(7) == "7"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell("word") == "word"


def tiny_record():
    grid = Grid1D(z_max=1e-6, n_points=4)
    times = np.array([0.0, 1e-7, 2e-7])
    norms = np.array([1.0, 0.999, 0.998])
    return ExperimentRecord(
        grid=grid, times=times, norms=norms,
        absorbed_fraction=1.0 - norms**2,
        snapshots=[(0.0, np.ones(4)), (2e-7, np.zeros(4))],
    )


class TestRecordCsv:
    def test_record_rows(self, tmp_path):
        path = tmp_path / "record.csv"
        write_record_csv(path, tiny_record())
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,norm,absorbed_fraction"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,1.0,")

    def test_snapshots_long_form(self, tmp_path):
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(path, tiny_record())
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,z_m,density"
        assert len(lines) == 1 + 2 * 4


class TestSweepCsv:
    def test_failed_row_has_empty_ratio(self, tmp_path):
        rows = [
            SweepRow(z0=2e-6, sigma=1e-6, averaged_ratio=3.5,
                     crossover_time=None),
            SweepRow(z0=3e-6, sigma=1.5e-6, failed=True,
                     error="ValueError: synthetic"),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "z0_m,sigma_m,averaged_ratio,crossover_time_s,failed,error"
        assert lines[1] == "2e-06,1e-06,3.5,,false,"
        assert lines[2] == "3e-06,1.5e-06,,,true,ValueError: synthetic"


class TestWeightedFieldsCsv:
    def test_columns_zeroed_outside_support(self, tmp_path):
        from qpot.bohmian import weighted_fields

        params = PhysicalParams()
        grid = default_grid(params)
        w_q, w_res, rho = weighted_fields(grid, params)
        path = tmp_path / "fields.csv"
        write_weighted_fields_csv(path, w_q, w_res, rho, params.hbar)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        outside = ~w_q.valid_mask()
        assert outside.any()
        assert np.all(data[outside, 2] == 0.0)
        assert np.all(data[outside, 3] == 0.0)
        inside = w_q.valid_mask()
        assert np.allclose(data[inside, 2], w_q.values[inside] / params.hbar)


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
