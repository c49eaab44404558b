"""End-to-end command-line runs on small configurations."""

import ast
import contextlib
import filecmp
import functools
import importlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import qpot
from qpot import config as cfgmod
from qpot.cli import _COMMANDS, main
from qpot.bohmian import weighted_fields
from qpot.config import evolve_from, grid_from, params_from, parse_config_text
from qpot.core import Grid1D, PhysicalParams, default_grid
from qpot.engineering import gaussian_packet
from qpot.errors import NumericsError
from qpot.potentials import total_potential
from qpot.propagate import CrankNicolson
from qpot.propagate import evolve as real_evolve
from qpot.version import __version__


def run(tmp_path, argv_tail, config_text=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = list(argv_tail)
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    code = main(argv)
    return code, out


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert f"qpot {__version__}" in capsys.readouterr().out

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestErrors:
    def test_config_error_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, ["profile"], "[params]\nz0 = -1um\n")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["profile", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_packet_exits_1(self, tmp_path, capsys):
        # rejected as it is parsed, like any bad value, naming its line
        for command in ("evolve", "converge"):
            code, out = run(tmp_path / command, [command],
                            f"[{command}]\npacket = plane\nt_final = 1us\n")
            assert code == 1
            assert capsys.readouterr().err == "error: line 2: unknown packet 'plane'\n"
            assert not out.exists()

    def test_hertz_is_no_unit(self, tmp_path, capsys):
        # trap_omega is an angular frequency: 100Hz read as 100 rad/s would
        # set a trap 2 pi below the one meant
        code, out = run(tmp_path, ["evolve"], "[params]\ntrap_omega = 100Hz\n")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 2: unknown unit suffix 'Hz' in '100Hz'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,section,line,message", [
        ("evolve", "evolve", "t_final = 2um", "'2um' is a length, not a time"),
        ("evolve", "params", "z0 = 2ms", "'2ms' is a time, not a length"),
        ("evolve", "params", "mass = 3nm", "'3nm' is a length, not a mass"),
        ("evolve", "params", "trap_omega = 100J", "'100J' is an energy, not a rate"),
        ("evolve", "params", "absorber_strength = 1kg",
         "'1kg' is a mass, not an energy"),
        ("evolve", "params", "c4 = 1e-55J",
         "'1e-55J' is an energy, not a J m^4 coefficient"),
        ("fields", "fields", "support_cut = 1e-6s",
         "'1e-6s' is a time, not a pure number"),
        ("sweep", "sweep", "sigma_rule = ratio 0.5um",
         "'0.5um' is a length, not a pure number"),
        ("prepare", "prepare", "slope_z0_values = 0.1um, 1",
         "'0.1um' is a length, not a pure number"),
    ])
    def test_a_suffix_of_another_dimension_is_rejected(self, tmp_path, capsys, command,
                                                       section, line, message):
        # one case per dimension: 2um as a t_final would run 2 us, not 2 s
        code, out = run(tmp_path, [command], f"[{section}]\n{line}\n")
        assert code == 1
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,text,fragment", [
        ("sweep", "[grid]\nn_points = 1024\n", "[grid]"),
        ("fitted", "[grid]\nn_points = 1024\n", "[grid]"),
        ("converge", "[evolve]\ndt = 0.2us\n", "[evolve]"),
        ("profile", "[evolve]\ndt = 0.2us\n", "[evolve]"),
        ("fields", "[evolve]\ndt = 0.2us\n", "[evolve]"),
        ("compare", "[evolve]\npacket = gaussian\n", "[evolve] packet"),
        ("compare", "[evolve]\nsnapshot_stride = 5\n", "[evolve] snapshot_stride"),
        ("compare", "[compare]\ninclude_trap = false\n", "'include_trap'"),
        ("fitted", "[fitted]\ninclude_trap = false\n", "'include_trap'"),
        ("prepare", "[prepare]\ninclude_trap = false\n", "'include_trap'"),
        ("evolve", "[evolve]\ninclude_trap = false\n", "'include_trap'"),
        ("evolve", "[evolve]\ninclude_absorber = false\n", "'include_absorber'"),
        ("evolve", "[evolve]\nstore_wavefunctions = true\n",
         "'store_wavefunctions'"),
        ("sweep", "[params]\nz0 = 3um\n", "[params] z0"),
        ("sweep", "[params]\nsigma = 0.5um\n", "[params] sigma"),
        ("sweep", "[params]\ntrap_omega = 100\n", "[params] trap_omega"),
        ("fitted", "[params]\nz0 = 3um\n", "[params] z0"),
        ("fitted", "[params]\nsigma = 0.5um\n", "[params] sigma"),
        ("fitted", "[params]\ntrap_omega = 100\n", "[params] trap_omega"),
        ("profile", "[params]\ndelta = 0.2um\n", "[params] delta"),
        ("fields", "[params]\nabsorber_strength = 0\n",
         "[params] absorber_strength"),
        ("fields", "[params]\ntrap_omega = 100\n", "[params] trap_omega"),
        ("profile", "[params]\nc1 = 0\n", "'c1'"),
        ("profile", "[params]\nc2 = 1\n", "'c2'"),
        ("sweep", "[sweep]\nvariants = engineered, gaussian\n", "'variants'"),
        ("fitted", "[fitted]\nauto_fit = true\ngaussian_z0 = 5um\n",
         "gaussian_z0 unread with auto_fit"),
        ("fitted", "[fitted]\nauto_fit = true\ngaussian_sigma = 0.2um\n",
         "gaussian_sigma unread with auto_fit"),
    ])
    def test_unread_section_or_key_exits_1(self, tmp_path, capsys, command,
                                           text, fragment):
        code, out = run(tmp_path, [command], text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err
        assert not out.exists()

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[params]\nz0 = 3\u00b5m\n".encode("latin-1"))
        out = tmp_path / "out"
        code = main(["profile", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} is not UTF-8")
        assert not out.exists()

    def test_unit_slip_in_the_default_box_exits_1(self, tmp_path, capsys):
        # z0 = 3 m would need a default grid of 1.2e9 points
        code, out = run(tmp_path, ["profile"], "[params]\nz0 = 3\n")
        assert code == 1
        assert "z0 + 6 sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[evolve]\nt_final = 1e400\n",
                                      "[params]\nz0 = 1e400um\n"])
    def test_quantity_overflowing_a_double_exits_1(self, tmp_path, capsys, text):
        code, out = run(tmp_path, ["evolve"], text)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 2: quantity '1e400")
        assert not out.exists()

    def test_grid_over_the_point_cap_exits_1(self, tmp_path, capsys):
        # rejected before the grid is allocated; one point more than the cap
        code, out = run(tmp_path, ["evolve"],
                        "[grid]\nn_points = 1048577\n[evolve]\nt_final = 0.1us\n")
        assert code == 1
        assert "need 2 to 1048576 grid points, got 1048577" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, fixed", [
        ("profile", True), ("fields", True), ("evolve", False)])
    def test_z0_inside_the_absorber_edge_exits_1(self, tmp_path, capsys,
                                                  command, fixed):
        # profile and fields reject [params] delta, so the message must not
        # point at it as the way out
        code, out = run(tmp_path, [command], "[params]\nz0 = 0.1um\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "absorber edge" in err and "1.5e-07" in err
        assert (f"fixed for qpot {command}" in err) == fixed
        assert not out.exists()

    def test_every_section_is_read_by_some_command(self):
        read = {name for _, _, sections, _ in _COMMANDS.values()
                for name in sections}
        assert read == set(cfgmod._SCHEMA)

    @pytest.mark.parametrize("command, text", [
        ("fields", "[params]\nc4 = 1e300\n"),  # absorber_strength = c4 / delta**4 is inf
        ("fields", "[params]\nc4 = 1e280\n"),  # a weighted field overflows
        *[(command, "[params]\ntrap_omega = 1e200\n")  # its square overflows
          for command in ("evolve", "compare", "prepare", "converge")],
        ("evolve", "[evolve]\ndt = 1e-320\n"),  # t_final / dt overflows
        pytest.param("evolve", "[evolve]\nt_final = 1000\n", id="step_cap"),
    ])
    def test_out_of_range_value_exits_1_without_traceback(self, tmp_path, command,
                                                          text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        env = {**os.environ,
               "PYTHONPATH": str(Path(qpot.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "qpot.cli", command, "--config",
                               str(cfg), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, t_final, window", [
        ("compare", "t_average_window", "2us", "0"),
        ("compare", "t_average_window", "2us", "-1us"),
        ("fitted", "t_average_window", "3us", "0"),
        ("prepare", "t_window", "2us", "0"),
        ("compare", "t_average_window", None, "0"),
        ("compare", "t_average_window", None, "-1us"),
        ("fitted", "t_average_window", None, "0"),
        ("prepare", "t_window", None, "0"),
        ("sweep", "t_average_window", "2us", "0"),
        ("sweep", "t_average_window", "2us", "-1us"),
        ("sweep", "t_average_window", None, "0"),
        ("sweep", "t_average_window", None, "-1us"),
    ])
    def test_non_positive_window_exits_1(self, tmp_path, capsys, command, key,
                                         t_final, window):
        # with t_final set, such a compare or fitted run used to exit 0 with
        # "averaged ratio None"; without it, the window set t_final and the
        # error named t_final, a key the config does not hold
        evolve = f"[evolve]\nt_final = {t_final}\n\n" if t_final else ""
        code, out = run(tmp_path, [command], f"{evolve}[{command}]\n{key} = {window}\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be positive, got ")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, window, message", [
        ("compare", "t_average_window", "0.15us", "is not a whole number of steps"),
        ("fitted", "t_average_window", "2.5us", "is not a whole number of steps"),
        ("prepare", "t_window", "0.15us", "is not a whole number of steps"),
        ("sweep", "t_average_window", "0.05us", "is 0.5 steps"),
    ])
    def test_window_that_sets_t_final_is_named(self, tmp_path, capsys, command, key,
                                               window, message):
        # with no t_final the window is the run length, at dt = 1 us for fitted
        evolve = "[evolve]\ndt = 1us\n\n" if command == "fitted" else ""
        code, out = run(tmp_path, [command], f"{evolve}[{command}]\n{key} = {window}\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = ")
        assert message in err and "dt = " in err
        assert not out.exists()

    def test_only_sweep_takes_workers(self, capsys):
        for command in set(_COMMANDS) - {"sweep"}:
            with pytest.raises(SystemExit) as err:
                main([command, "--workers", "2"])
            assert err.value.code == 2
            assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--workers", "2"]])
    def test_compare_rejects_sweep_only_and_removed_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compare"] + flag)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestProfile:
    def test_outputs_and_determinism(self, tmp_path):
        code, out = run(tmp_path, ["profile"])
        assert code == 0
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "z_m,profile,re_psi,im_psi,density"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # profile pinned to 0 at the surface
        manifest = (out / "profile_manifest.txt").read_text().splitlines()
        assert manifest[0] == f"# qpot {__version__}"
        # a second run must reproduce the file byte for byte
        data1 = (out / "profile.csv").read_bytes()
        code2, out2 = run(tmp_path / "again", ["profile"])
        assert code2 == 0
        assert (out2 / "profile.csv").read_bytes() == data1


    def test_use_abs_honoured(self, tmp_path):
        code, out = run(tmp_path / "signed", ["profile"])
        assert code == 0
        signed = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert signed[:, 1].min() < 0
        code, out = run(tmp_path / "abs", ["profile"],
                        "[profile]\nuse_abs = true\n")
        assert code == 0
        folded = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert folded[:, 1].min() >= 0
        assert np.array_equal(folded[:, 1], np.abs(signed[:, 1]))
        assert "use_abs = true" in (out / "profile_manifest.txt").read_text()


class TestFields:
    def test_outputs(self, tmp_path, capsys):
        code, out = run(tmp_path, ["fields"])
        assert code == 0
        assert "residual/q peak ratio" in capsys.readouterr().out
        data = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 4
        manifest = (out / "fields_manifest.txt").read_text()
        assert "peak_weighted_q" in manifest
        assert "peak_weighted_residual" in manifest
        assert "[fields]\nsupport_cut = 1e-06\n" in manifest  # the default used

    def test_columns_zeroed_outside_support(self, tmp_path):
        code, out = run(tmp_path, ["fields"])
        assert code == 0
        params = PhysicalParams()
        w_q, _, _ = weighted_fields(default_grid(params), params)
        data = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        outside = ~w_q.valid
        assert outside.any()
        assert np.all(data[outside, 2] == 0.0)
        assert np.all(data[outside, 3] == 0.0)
        inside = w_q.valid
        assert np.allclose(data[inside, 2], w_q.values[inside] / params.hbar)

    def test_cut_leaving_no_support_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, ["fields"], "[fields]\nsupport_cut = 2\n")
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: support_cut = 2.0 leaves no supported point")
        assert not out.exists()

    def test_field_overflowing_over_hbar_exits_1(self, tmp_path, capsys):
        # every weighted field is finite, but its peak over hbar is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning fails the run
            code, out = run(tmp_path, ["fields"], "[params]\nc4 = 1e250\n")
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: weighted field peak \S+ over hbar overflows a double\n",
                            err)
        assert not out.exists()


EVOLVE_CFG = """\
[grid]
n_points = 2048

[evolve]
dt = 0.2us
t_final = 20us
snapshot_stride = 50
packet = gaussian
"""


class TestEvolve:
    def test_record_and_snapshots(self, tmp_path):
        code, out = run(tmp_path, ["evolve"], EVOLVE_CFG)
        assert code == 0
        lines = (out / "record.csv").read_text().splitlines()
        assert lines[0] == "t_s,norm,absorbed_fraction"
        assert len(lines) == 102  # header + 101 samples
        snaps = (out / "snapshots.csv").read_text().splitlines()
        assert snaps[0] == "t_s,z_m,density"
        assert len(snaps) == 1 + 3 * 2048  # t = 0, 50 dt, 100 dt
        manifest = (out / "evolve_manifest.txt").read_text()
        assert "# command: evolve" in manifest
        assert "# packet:" not in manifest  # [evolve] records it
        assert "\npacket = gaussian\n" in manifest[manifest.index("[evolve]"):]

    def test_zero_trap_omega_runs_and_replays(self, tmp_path):
        # trap_omega = 0 leaves the trap out, as c4 = 0 and absorber_strength
        # = 0 leave out their terms, and the manifest records it
        text = "[params]\ntrap_omega = 0\n\n" + EVOLVE_CFG
        code, out = run(tmp_path, ["evolve"], text)
        assert code == 0
        manifest = (out / "evolve_manifest.txt").read_text()
        assert "\ntrap_omega = 0.0\n" in manifest
        code, again = run(tmp_path / "replay", ["evolve"], manifest)
        assert code == 0
        names = sorted(path.name for path in out.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            assert filecmp.cmp(out / name, again / name, shallow=False), name

    def test_snapshots_are_the_captures(self, tmp_path):
        # a stride of 30 does not divide the 100 steps: captures at 0, 30, 60, 90
        text = EVOLVE_CFG.replace("snapshot_stride = 50", "snapshot_stride = 30")
        code, out = run(tmp_path, ["evolve"], text)
        assert code == 0
        assert sorted(os.listdir(out)) == ["evolve_manifest.txt", "record.csv",
                                           "snapshots.csv"]
        cfg = parse_config_text(text)
        params = params_from(cfg)
        grid = grid_from(cfg, params)
        caps = []
        real_evolve(gaussian_packet(grid, params.z0, params.sigma),
                    total_potential(grid, params), params, evolve_from(cfg),
                    capture=lambda t, psi: caps.append((t, psi)),
                    snapshot_stride=cfg["evolve"]["snapshot_stride"])
        assert len(caps) == 4
        rows = [f"{float(t)!r},{z!r},{rho!r}\n" for t, psi in caps
                for z, rho in zip(grid.z.tolist(), (np.abs(psi) ** 2).tolist())]
        expected = "t_s,z_m,density\n" + "".join(rows)
        assert (out / "snapshots.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("existing", [False, True])
    def test_negative_stride_exits_1(self, tmp_path, capsys, existing):
        # rejected as it is parsed; --out is left as it was found
        out = tmp_path / "out"
        if existing:
            out.mkdir()
        text = EVOLVE_CFG.replace("snapshot_stride = 50", "snapshot_stride = -2")
        code, _ = run(tmp_path, ["evolve"], text)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 7: expected a non-negative integer, got -2\n")
        assert os.listdir(out) == [] if existing else not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_unknown_packet_builds_nothing(self, tmp_path, monkeypatch, capsys,
                                           existing):
        # a snapshot run with an unknown packet exits before any grid is built
        # or --out is touched
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr("qpot.config.default_grid", no_grid)
        out = tmp_path / "out"
        if existing:
            out.mkdir()
        text = EVOLVE_CFG.replace("packet = gaussian", "packet = plane")
        code, _ = run(tmp_path, ["evolve"], text)
        assert code == 1
        assert capsys.readouterr().err == "error: line 8: unknown packet 'plane'\n"
        assert os.listdir(out) == [] if existing else not out.exists()

    # a run that blows up at its second capture, and a packet that cannot be
    # built on its grid, after snapshots.csv.part is opened
    @pytest.mark.parametrize("existing, text, error, captures", [
        pytest.param(existing, text, error, captures, id=f"{label}{existing}")
        for label, text, error, captures in [
            ("", EVOLVE_CFG, "non-finite amplitudes at step 51", 2),
            ("unbuildable-", EVOLVE_CFG.replace("n_points = 2048", "n_points = 64")
             .replace("gaussian", "engineered"), "does not resolve the profile", 0)]
        for existing in (False, True)])
    def test_failed_run_leaves_out_as_found(self, tmp_path, monkeypatch, capsys,
                                            existing, text, error, captures):
        written = []
        real_rows = qpot.io.write_snapshot_rows
        real_step = CrankNicolson.step_values

        def rows(fh, z_cells, t, psi):
            written.append(t)
            real_rows(fh, z_cells, t, psi)

        def step(self, u):
            real_step(self, u)
            if len(written) == 2:
                u[5] = np.nan
            return u

        monkeypatch.setattr(qpot.io, "write_snapshot_rows", rows)
        monkeypatch.setattr(CrankNicolson, "step_values", step)
        (tmp_path / "run.cfg").write_text(text)
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "keep.txt").write_text("x")
        code = main(["evolve", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(out)])
        assert code == 1
        assert error in capsys.readouterr().err
        assert len(written) == captures
        if existing:
            assert os.listdir(out) == ["keep.txt"]
        else:
            assert os.listdir(tmp_path) == ["run.cfg"]


COMPARE_CFG = """\
[grid]
n_points = 2048

[evolve]
dt = 0.2us
t_final = 20us

[compare]
t_average_window = 20us
"""


class TestCompare:
    def test_ratio_and_records(self, tmp_path, capsys):
        code, out = run(tmp_path, ["compare"], COMPARE_CFG)
        assert code == 0
        assert "averaged ratio" in capsys.readouterr().out
        ratio = (out / "ratio.csv").read_text().splitlines()
        assert ratio[0] == "t_s,ratio"
        assert len(ratio) > 1
        assert (out / "record_engineered.csv").exists()
        assert (out / "record_gaussian.csv").exists()
        manifest = (out / "compare_manifest.txt").read_text()
        assert "# averaged_ratio: " in manifest
        assert "# ratio_average_note: " in manifest

    def test_t_final_defaults_to_window(self, tmp_path):
        cfg = COMPARE_CFG.replace("t_final = 20us\n", "")
        code, out = run(tmp_path, ["compare"], cfg)
        assert code == 0
        manifest = parse_config_text((out / "compare_manifest.txt").read_text())
        assert manifest["evolve"]["t_final"] == manifest["compare"]["t_average_window"]
        rows = (out / "record_gaussian.csv").read_text().splitlines()
        assert len(rows) == 1 + 101  # header, t = 0 and 100 steps of 0.2 us


SWEEP_CFG = """\
[sweep]
z0_values = 2um, 2.5um
sigma_rule = ratio 0.5
t_average_window = 20us
"""


class TestSweep:
    def test_workers_do_not_change_bytes(self, tmp_path):
        code1, out1 = run(tmp_path / "w1", ["sweep", "--workers", "1"],
                          SWEEP_CFG)
        code2, out2 = run(tmp_path / "w2", ["sweep", "--workers", "2"],
                          SWEEP_CFG)
        assert code1 == 0 and code2 == 0
        b1 = (out1 / "sweep.csv").read_bytes()
        b2 = (out2 / "sweep.csv").read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0].startswith("z0_m,sigma_m,averaged_ratio")
        assert len(lines) == 3
        manifest = (out1 / "sweep_manifest.txt").read_text()
        assert "# workers: 1" in manifest
        assert "# failed_rows: 0" in manifest

    def test_bad_worker_count_exits_1(self, tmp_path, capsys):
        for count in ("0", "-3"):
            code, out = run(tmp_path / count, ["sweep", "--workers", count], SWEEP_CFG)
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: workers must be a positive integer, got {count}\n")
            assert not out.exists()

    def test_unit_slip_in_a_sweep_point_exits_1_before_any_evolve(
            self, tmp_path, capsys, monkeypatch):
        evolved = []
        monkeypatch.setattr("qpot.experiments.evolve", lambda *a: evolved.append(a))
        # z0 = 3 m, a forgotten unit, would need a grid of 4.9e9 points
        code, out = run(tmp_path, ["sweep"], "[sweep]\nz0_values = 2um, 3\n")
        assert code == 1
        assert "check the units" in capsys.readouterr().err
        assert evolved == []
        assert not out.exists()

    def test_failed_row_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        def flaky(psi, potential, params, config):
            if abs(params.z0 - 2.5e-6) < 1e-12:
                raise NumericsError("synthetic blow-up")
            return real_evolve(psi, potential, params, config)

        monkeypatch.setattr("qpot.experiments.evolve", flaky)
        code, out = run(tmp_path, ["sweep", "--workers", "1"], SWEEP_CFG)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "NumericsError: synthetic blow-up" in err
        manifest = (out / "sweep_manifest.txt").read_text()
        assert "# failed_rows: 1" in manifest
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # the failed row is still written
        # 2.5um parses to 2.5 * 1e-6, which repr writes in full
        assert lines[2] == ("2.4999999999999998e-06,1.2499999999999999e-06,,,true,"
                            "NumericsError: synthetic blow-up")


PREPARE_CFG = """\
[prepare]
slope_z0_values = 0.05
t_window = 20us
"""


class TestPrepare:
    def test_single_slope(self, tmp_path):
        code, out = run(tmp_path, ["prepare"], PREPARE_CFG)
        assert code == 0
        lines = (out / "prepare.csv").read_text().splitlines()
        assert lines[0].startswith("slope_per_m,slope_z0,fidelity")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[1]) == pytest.approx(0.05)
        assert float(cells[2]) > 0.99

    def test_both_slope_keys_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, ["prepare"],
                        PREPARE_CFG + "slopes = 2e4\n")
        assert code == 1
        assert "'slopes'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_slope_is_rejected_by_its_key(self, tmp_path, monkeypatch, capsys):
        # sin(0 z) = 0 leaves no packet; the key is named before any is built
        built = []
        monkeypatch.setattr("qpot.experiments.engineered_packet",
                            lambda *a: built.append(a))
        text = PREPARE_CFG.replace("= 0.05", "= 0, 1")
        code, out = run(tmp_path, ["prepare"], text)
        assert code == 1
        assert "slope_z0_values" in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    def test_default_slopes_in_the_manifest_replay(self, tmp_path):
        # no slope key: the manifest records the four K z0 values the run
        # used, and given back as --config it reproduces prepare.csv
        code, out = run(tmp_path, ["prepare"],
                        PREPARE_CFG.replace("slope_z0_values = 0.05\n", ""))
        assert code == 0
        manifest = (out / "prepare_manifest.txt").read_text()
        assert "\nslope_z0_values = 0.05, 0.1, 0.3, 1.0\n" in manifest
        code, again = run(tmp_path / "replay", ["prepare"], manifest)
        assert code == 0
        assert filecmp.cmp(out / "prepare.csv", again / "prepare.csv", shallow=False)
        assert len((out / "prepare.csv").read_text().splitlines()) == 1 + 4

    def test_nothing_absorbed_gives_no_penalty(self, tmp_path):
        # with the absorber off each absorbed fraction is a rounding residue
        # of 1 - norm**2, and a ratio of residues is no penalty
        code, out = run(tmp_path, ["prepare"],
                        "[params]\nabsorber_strength = 0\nz0 = 0.6um\nsigma = 0.1um\n\n"
                        "[grid]\nz_max = 1.5um\nn_points = 257\n\n"
                        "[evolve]\ndt = 0.1us\n\n[prepare]\nt_window = 2us\n")
        assert code == 0
        lines = (out / "prepare.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert [line.split(",")[-1] for line in lines[1:]] == ["nan"] * 4


CONVERGE_CFG = """\
[grid]
n_points = 513

[converge]
packet = gaussian
t_final = 20us
dt_ladder = 8e-7s, 4e-7s
n_refinements = 1
"""


class TestConverge:
    def test_tiny_ladder(self, tmp_path, capsys):
        code, out = run(tmp_path, ["converge"], CONVERGE_CFG)
        assert code == 0
        assert "dz order" in capsys.readouterr().out
        lines = (out / "converge.csv").read_text().splitlines()
        assert lines[0] == "ladder,step,n_points,absorbed_fraction"
        assert len(lines) == 1 + 2 + 2
        manifest = (out / "converge_manifest.txt").read_text()
        assert "# dz_halving_change: " in manifest

    def test_nothing_absorbed_exits_0(self, tmp_path):
        # with the absorber off both dt rungs absorb exactly 0.0, and the
        # change over the halving is 0, not a division by zero; the finer dz
        # rung's rounding residue is read as 0 too, not as a 100% change
        code, out = run(tmp_path, ["converge"],
                        "[params]\nabsorber_strength = 0\n\n[converge]\n"
                        "t_final = 0.8us\ndt_ladder = 8e-7, 4e-7\nn_refinements = 1\n")
        assert code == 0
        manifest = (out / "converge_manifest.txt").read_text()
        assert "# dt_halving_change: 0.0\n" in manifest
        assert "# dz_halving_change: 0.0\n" in manifest

    @pytest.mark.parametrize("line, fragment", [
        ("dt_ladder = 1us", "needs 2 or more dt rungs"),
        ("n_refinements = 0", "needs 2 or more dt rungs"),
        ("n_refinements = -1", "needs 2 or more dt rungs"),
        ("n_refinements = 40", "past 1048576"),  # 512 * 2**40 + 1 points
        ("dt_ladder = 1us, 0.3us", "dt = 3e-07"),
        ("dt_ladder = 1us, 0.25us", "dt_ladder"),
    ])
    def test_bad_ladder_exits_1_before_any_evolve(self, tmp_path, capsys,
                                                  monkeypatch, line, fragment):
        evolved = []

        def bounded(**kwargs):
            assert kwargs["n_points"] <= 2**20, "an oversized grid was built"
            return Grid1D(**kwargs)

        monkeypatch.setattr("qpot.experiments.Grid1D", bounded)
        monkeypatch.setattr("qpot.experiments.evolve",
                            lambda *args: evolved.append(args))
        code, out = run(tmp_path, ["converge"], "[grid]\nn_points = 513\n\n"
                        f"[converge]\npacket = gaussian\nt_final = 20us\n{line}\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert evolved == []
        assert not out.exists()


FITTED_CFG = """\
[evolve]
dt = 0.2us
t_final = 20us

[fitted]
t_average_window = 20us
"""


class TestManifestReplay:
    """Each manifest parses back into the settings its run resolved, and
    given back as --config it reproduces every CSV byte for byte."""

    CONFIGS = {
        "profile": None,
        "fields": None,
        "evolve": EVOLVE_CFG,
        "compare": COMPARE_CFG,
        "sweep": SWEEP_CFG,
        "fitted": FITTED_CFG,
        "prepare": PREPARE_CFG,
        "converge": CONVERGE_CFG,
    }

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_manifest_reproduces_resolved_settings(self, tmp_path, monkeypatch,
                                                   command):
        resolved = {"params": [], "grid": [], "evolve": []}

        def recording(section, real):
            def record(*args, **kwargs):
                value = real(*args, **kwargs)
                resolved[section].append(value)
                return value
            return record

        for section in resolved:
            name = f"{section}_from"
            monkeypatch.setattr(cfgmod, name,
                                recording(section, getattr(cfgmod, name)))
        code, out = run(tmp_path, [command], self.CONFIGS[command])
        monkeypatch.undo()
        assert code == 0
        assert resolved["params"], "the run resolved no params"
        text = (out / f"{command}_manifest.txt").read_text()
        replay = parse_config_text(text)
        params = params_from(replay)
        assert tuple(replay["params"]) == _COMMANDS[command][3]
        replayed = {
            "params": lambda: params,
            "grid": lambda: grid_from(replay, params),
            "evolve": lambda: evolve_from(replay),
        }
        for section, values in resolved.items():
            if values:
                assert section in replay, f"manifest lacks [{section}]"
                assert all(v == replayed[section]() for v in values)

        code, again = run(tmp_path / "replay", [command], text)
        assert code == 0
        names = sorted(path.name for path in out.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:  # the replayed manifest is the same text, too
            assert filecmp.cmp(out / name, again / name, shallow=False), name

    def test_manifest_with_a_zero_stride_replays(self, tmp_path):
        """A study manifest holds no snapshot_stride line; one written while
        EvolveConfig held the stride records "snapshot_stride = 0" under
        [evolve], and it still replays to the same bytes."""
        code, out = run(tmp_path, ["compare"], COMPARE_CFG)
        assert code == 0
        text = (out / "compare_manifest.txt").read_text()
        assert "snapshot_stride" not in text
        # the line sat after t_final, in schema order
        old = re.sub(r"\[evolve\]\ndt = .*\nt_final = .*\n",
                     r"\g<0>snapshot_stride = 0\n", text)
        assert old.count("snapshot_stride = 0") == 1
        code, again = run(tmp_path / "replay", ["compare"], old)
        assert code == 0
        names = sorted(path.name for path in out.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            assert filecmp.cmp(out / name, again / name, shallow=False), name


# A config key is either honoured or rejected. Each case runs a command on
# a config of a few steps, once as given and once with one key changed to
# the value in CHANGED; the change must either make the run exit nonzero
# naming the key or move a CSV byte, the stdout line or a manifest "#" line.
HONOUR_CASES = {
    "profile": (["profile"], {"grid": {"n_points": "1300"}}),
    "fields": (["fields"], {"grid": {"n_points": "1300"}}),
    "evolve": (["evolve"], {"grid": {"n_points": "1300"},
                            "evolve": {"dt": "1us", "t_final": "3us"}}),
    "compare": (["compare"], {"grid": {"n_points": "1300"},
                              "evolve": {"dt": "1us"},
                              "compare": {"t_average_window": "3us"}}),
    # this point's ratio falls to 1 at 16 us, so a t_final past the 3 us
    # window shows as a crossover time
    "sweep": (["sweep", "--workers", "1"], {
        "evolve": {"dt": "1us"},
        "sweep": {"z0_values": "1um", "sigma_rule": "fixed 0.2um",
                  "t_average_window": "3us"}}),
    "fitted": (["fitted"], {"evolve": {"dt": "1us"},
                            "fitted": {"t_average_window": "3us"}}),
    "fitted auto_fit": (["fitted"], {
        "evolve": {"dt": "1us"},
        "fitted": {"auto_fit": "true", "t_average_window": "3us"}}),
    "prepare": (["prepare"], {"grid": {"n_points": "1300"},
                              "evolve": {"dt": "1us"},
                              "prepare": {"slope_z0_values": "0.05",
                                          "t_window": "3us"}}),
    "converge": (["converge"], {
        "grid": {"n_points": "1300"},
        "converge": {"packet": "gaussian", "t_final": "3us",
                     "dt_ladder": "1us, 0.5us", "n_refinements": "1"}}),
}

CHANGED = {
    "params": {"mass": "1.5e-25kg", "c4": "1e-55", "z0": "2.5um",
               "sigma": "0.9um", "delta": "0.2um", "absorber_strength": "1e-28J",
               "trap_omega": "100rad/s"},
    "grid": {"z_max": "9um", "n_points": "1400"},
    "evolve": {"dt": "0.5us", "t_final": "20us", "snapshot_stride": "2",
               "packet": "gaussian"},
    "sweep": {"z0_values": "1.2um", "sigma_rule": "fixed 0.3um",
              "t_average_window": "2us"},
    "compare": {"t_average_window": "2us"},
    "fitted": {"engineered_z0": "1.5um", "engineered_sigma": "0.9um",
               "gaussian_z0": "2.5um", "gaussian_sigma": "0.9um",
               "auto_fit": "true", "t_average_window": "2us"},
    "prepare": {"slope_z0_values": "0.1", "t_window": "2us"},
    "fields": {"support_cut": "1e-3"},
    "profile": {"use_abs": "true"},
    "converge": {"t_final": "4us", "dt_ladder": "0.5us, 0.25us",
                 "n_refinements": "2", "packet": "engineered"},
}
CHANGED_IN_CASE = {("fitted auto_fit", "fitted", "auto_fit"): "false"}

def honour_pairs():
    """(case, section, key) for every key of every section a case reads."""
    return [(case, section, key) for case, (argv, _) in HONOUR_CASES.items()
            for section in _COMMANDS[argv[0]][2] for key in cfgmod._SCHEMA[section]]


def config_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def outcome(case, text):
    """Exit code, stderr, and the stdout line, CSV bytes and manifest "#"
    lines of one in-process run."""
    argv = HONOUR_CASES[case][0]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "run.cfg"), Path(tmp, "out")
        cfg.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv + ["--config", str(cfg), "--out", str(out)])
        files = {}
        for path in sorted(out.iterdir()) if out.exists() else ():
            data = path.read_bytes()
            if path.name.endswith("_manifest.txt"):
                data = [line for line in data.splitlines() if line.startswith(b"#")]
            files[path.name] = data
        return code, stderr.getvalue(), stdout.getvalue().replace(str(out), "OUT"), files


@functools.cache
def base_outcome(case):
    return outcome(case, config_text(HONOUR_CASES[case][1]))


def test_honour_table_covers_every_key():
    """Every command has a case, and every key of the schema a changed
    value, so a new key cannot go unchecked."""
    assert {argv[0] for argv, _ in HONOUR_CASES.values()} == set(_COMMANDS)
    keys = {(section, key) for section in cfgmod._SCHEMA
            for key in cfgmod._SCHEMA[section]}
    pairs = set(honour_pairs())
    assert {(section, key) for _, section, key in pairs} == keys
    assert {(section, key) for section in CHANGED for key in CHANGED[section]} == keys
    assert set(CHANGED_IN_CASE) <= pairs


@pytest.mark.parametrize("case,section,key", honour_pairs())
def test_every_key_is_honoured_or_rejected(case, section, key):
    base = HONOUR_CASES[case][1]
    value = CHANGED_IN_CASE.get((case, section, key), CHANGED[section][key])
    assert base.get(section, {}).get(key) != value
    code, _, *before = base_outcome(case)
    assert code == 0
    changed = {**base, section: {**base.get(section, {}), key: value}}
    code, err, *after = outcome(case, config_text(changed))
    if code:
        assert key in err
    else:
        assert after != before


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Run in a fresh interpreter so that only what `import qpot.cli` loads counts.
TRACER_LOOKUPS = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import qpot.cli
missing = [f"qpot.{m}" for m in tracer.LAYERS if f"qpot.{m}" not in sys.modules]
missing += [f"qpot.{m}.{n}" for m, names in tracer.EXTRA.items() for n in names
            if not hasattr(sys.modules[f"qpot.{m}"], n)]
missing += [f"qpot.{m}.{c}.{n}" for m, classes in tracer.METHODS.items()
            for c, names in classes.items() for n in names
            if not hasattr(getattr(sys.modules[f"qpot.{m}"], c, None), n)]
print("\\n".join(missing))
"""


def test_tracer_finds_every_name_it_wraps():
    """perfbench's tracer wraps qpot by module, function and method name; a
    name it no longer finds silently empties that layer's --trace metrics."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(qpot.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", TRACER_LOOKUPS, str(TRACER)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


RUN = TRACER.with_name("run.py")
LAYERS = ast.literal_eval(next(
    node.value for node in ast.parse(TRACER.read_text()).body
    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LAYERS"))
SPAN_NAME = re.compile(rf"(?:{'|'.join(LAYERS)})\.\w+(?:\.\w+)?")


def _span_names_read():
    """The full span names perfbench/run.py's layer_metrics looks up, less
    the metric names it reports (dict keys) and the spans the tracer makes
    around its own code (its literal wrap names, such as cli.import)."""
    own = {node.args[0].value for node in ast.walk(ast.parse(TRACER.read_text()))
           if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "wrap"
           and isinstance(node.args[0], ast.Constant)}
    fn = next(node for node in ast.parse(RUN.read_text()).body
              if getattr(node, "name", "") == "layer_metrics")
    keys = {id(k) for node in ast.walk(fn) if isinstance(node, ast.Dict)
            for k in node.keys}
    return {node.value for node in ast.walk(fn)
            if isinstance(node, ast.Constant) and id(node) not in keys
            and isinstance(node.value, str) and SPAN_NAME.fullmatch(node.value)
            and node.value not in own}


def test_every_span_name_perfbench_reads_resolves():
    """A per-layer metric reads its spans by "<layer>.<name>"; after a rename
    it would silently read zero, so each name must be a qpot function or
    method that the tracer wraps."""
    names = _span_names_read()
    assert {"potentials.total_potential", "engineering.engineered_packet",
            "engineering.gaussian_packet", "core.default_grid",
            "experiments.absorption_ratio_series", "config.load_config",
            "propagate.CrankNicolson.step_values"} <= names
    unresolved = []
    for name in sorted(names):
        layer, *path = name.split(".")
        obj = importlib.import_module(f"qpot.{layer}")
        for part in path:
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(name)
    assert unresolved == []
