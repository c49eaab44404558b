"""bench/layers.py against this checkout: the children it starts for L0, L1,
L3 and L4 run here and print the figures, with the units, that it reads
back, and its paired ratios resolve only from enough tight pairs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpot

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _sample(name):
    """What one `--sample name` child of bench/layers.py prints last, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(qpot.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(LAYERS), "--sample", name],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_factor_prints_one_timing_per_factorization():
    [[name, (value, unit)]] = _sample("factor").items()
    assert (name, unit) == ("factor_s", "s")
    assert isinstance(value, float) and value > 0


def test_step_layer_splits_the_step():
    figures = _sample("step")
    assert list(figures) == ["step_us", "update_us", "solve_us", "norm_us"]
    assert all(unit == "us" and value > 0 for value, unit in figures.values())


def test_convergence_report_layer():
    [[name, (value, unit)]] = _sample("convergence_report_s").items()
    assert (name, unit) == ("convergence_report_s", "s")
    assert value > 0


def test_cli_import_layer():
    # the start-up time and the memory floor every command pays
    figures = _sample("cli_import_s")
    assert {name: unit for name, (_, unit) in figures.items()} == {
        "cli_import_s": "s", "cli_import_peak_rss_mb": "MB"}
    assert all(value > 0 for value, _ in figures.values())


def test_cli_layer_with_a_relative_pythonpath():
    # the command runs in a directory of its own, not the checkout root
    root = LAYERS.parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "bench/layers.py", "--sample", "cli_sweep"],
                          cwd=root, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    figures = json.loads(proc.stdout.splitlines()[-1])
    assert list(figures) == ["cli_sweep_wall_s", "cli_sweep_peak_rss_mb"]
    assert figures["cli_sweep_wall_s"][0] > 0
    assert figures["cli_sweep_peak_rss_mb"][0] > 0


def test_ratio_needs_five_pairs_to_resolve():
    # in a child, since importing bench/layers.py puts perfbench on sys.path
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import layers\n"
            "tight = [1.0, 1.01, 1.02, 1.01, 1.0]\n"
            "print(json.dumps([layers._ratio(tight[:3], [2 * y for y in tight[:3]]),\n"
            "                  layers._ratio(tight, [2 * y for y in tight])]))")
    proc = subprocess.run([sys.executable, "-c", code, str(LAYERS.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    three, five = json.loads(proc.stdout)
    assert (three["n"], three["resolved"]) == (3, False)
    assert (five["n"], five["resolved"]) == (5, True)
    assert five["median"] == pytest.approx(0.5)


def test_only_a_ratio_outside_the_a_a_band_is_a_change():
    # a resolved x0.94 whose quartile range reaches into 1 +- MAX_SPREAD / 2,
    # as an A/A run read for run_sweep_2w_s (x0.936 [0.934, 0.977]), and a
    # resolved x0.80 wholly outside it
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import layers\n"
            "tight = [1.0, 1.01, 1.02, 1.01, 1.0]\n"
            "a_a = [0.934, 0.936, 0.977, 0.934, 0.98]\n"
            "print(json.dumps([layers._ratio(tight, [x / r for x, r in zip(tight, a_a)]),\n"
            "                  layers._ratio(tight, [x / 0.8 for x in tight])]))")
    proc = subprocess.run([sys.executable, "-c", code, str(LAYERS.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    within, change = json.loads(proc.stdout)
    assert within["median"] == pytest.approx(0.936)
    assert (within["q1"], within["q3"]) == pytest.approx((0.934, 0.977))
    assert (within["resolved"], within["changed"]) == (True, False)
    assert change["median"] == pytest.approx(0.8)
    assert (change["resolved"], change["changed"]) == (True, True)


def test_tier1_s_gets_no_ratio():
    # one run of the suite per side pairs with nothing; every figure sampled
    # in rounds keeps its ratio
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import layers\n"
            "tight = [1.0, 1.01, 1.02, 1.01, 1.0]\n"
            "side = {'tier1_s': ([95.0], 's'), 'step_us': (tight, 'us'),\n"
            "        'cli_compare_wall_s': (tight, 's')}\n"
            "print(json.dumps(layers._ratio_table(side, side)))")
    proc = subprocess.run([sys.executable, "-c", code, str(LAYERS.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)
    assert sorted(table) == ["cli_compare_wall_s", "step_us"]
    assert all(ratio["resolved"] and ratio["median"] == 1.0 for ratio in table.values())


def test_label_of_the_baseline_file_rejected_before_any_child(tmp_path):
    # an empty directory describes as "unknown", so --label unknown would
    # write both sides' figures to one BENCH_unknown.json
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    proc = subprocess.run([sys.executable, str(LAYERS), "--baseline", str(baseline),
                           "--label", "unknown"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert "--label/--out" in proc.stderr


def test_make_reference_runs_against_this_library():
    # nothing else runs perfbench/make_reference.py, which reads the library's
    # config parsers, packets and absorption_ratio_series; two steps per run
    code = ("import json, sys, types; sys.path.insert(0, sys.argv[1])\n"
            "import make_reference as ref\n"
            "evolve = '[evolve]\\ndt = 1us\\nt_final = 2us\\n'\n"
            "sweep = evolve + ('[sweep]\\nz0_values = 1.5um, 2.3um\\n'\n"
            "                  'sigma_rule = ratio 0.5\\nt_average_window = 2us\\n')\n"
            "compare = ('[params]\\nz0 = 2.3um\\nsigma = 1um\\n' + evolve\n"
            "           + '[compare]\\nt_average_window = 2us\\n')\n"
            "spec = types.SimpleNamespace(dt=1e-6, t_final=2e-6)\n"
            "out = {}\n"
            "for point in (0, 1):\n"
            "    eng, gau = (ref.fine_absorbed(sweep, packet, point)\n"
            "                for packet in ('engineered', 'gaussian'))\n"
            "    out[f'sweep{point}'] = [eng, gau, ref.sweep_ratio(spec, eng, gau)]\n"
            "out['compare'] = [ref.fine_absorbed(compare, packet)\n"
            "                  for packet in ('engineered', 'gaussian')]\n"
            "print(json.dumps(out))")
    env = {**os.environ, "PYTHONPATH": str(Path(qpot.__file__).resolve().parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}  # and writes nothing under perfbench/
    proc = subprocess.run([sys.executable, "-c", code, str(LAYERS.parents[1] / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for point in ("sweep0", "sweep1"):
        *records, ratio = out[point]
        assert [len(r) for r in records] == [3, 3]  # t = 0, 1 and 2 us
        assert ratio > 0
    assert [len(r) for r in out["compare"]] == [3, 3]
