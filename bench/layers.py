#!/usr/bin/env python3
"""Per-layer timings of qpot, written to BENCH_<label>.json.

    python3 bench/layers.py                  # label: `git describe --always --dirty`
    python3 bench/layers.py --label e7ceb22 --out BENCH_e7ceb22.json
    python3 bench/layers.py --baseline ../parent   # and BENCH_<its describe>.json

Measures the program in the checkout this file sits in (its `src/`), on
the default grid (4096 points on [0, 10 um]) with z0 = 3 um, sigma = 1 um
and dt = 0.1 us. Every figure is the median of its repeats; the samples
and the machine (perfbench's `environment`) are stored next to it.

- L0 `factor_s`: `CrankNicolson(...)`, the zgttrf factorization, once per
  child, right after the grid and potential are built and before any
  packet is: each sample is its process's first factorization. Whether the
  factors' temporaries page-fault in (a process's first call, or a heap top
  that glibc has trimmed) changes a sample by about 2x; repeats in one
  process would mix the two cases and move the median.
- L1 one step: `step_us` for `step_values`, split into `update_us` (the
  two element-wise operations of u' = 2 A^-1 u - u: 2u into a buffer, then
  the buffer minus u into u), `solve_us` (the zgttrs call the step makes,
  in place on the solver's own buffer holding 2u) and `norm_us` (`vdot`),
  each the mean over a batch of calls. The updates and the norm are raw
  numpy; the solve is the solver's prebuilt ctypes call into numpy's
  LAPACK.
- L2 `evolve_2ms_s`: one 2 ms `evolve` (20,000 steps), no snapshots.
- io: `write_record_csv_s`, `write_csv` on the three columns (t_s, norm,
  absorbed_fraction) of the 20,001-row record of a 2 ms `evolve`, and `write_snapshots_s`, the streaming snapshot writer
  (`begin_snapshots_csv`, then `write_snapshot_rows` per capture) over the
  201 states of that `evolve`, captured every 100 steps
  (`snapshot_stride=100`) and collected once through its `capture`.
- L3: `run_comparison_s` over 2 ms with a 2 ms window;
  `run_fitted_control_s` (default pairing) and `run_preparation_study_s`
  (default four slopes) over 0.2 ms; `convergence_report_s`,
  `qpot.experiments.convergence_report` of the engineered packet over
  0.2 ms on a dt ladder of 0.4, 0.2 and 0.1 us and one dz refinement (4096
  and 8191 points); `run_sweep_1w_s` and
  `run_sweep_2w_s` on perfbench's sweep points (six z0, 0.2 ms) with 1
  and 2 lanes.
- L4: wall time and peak memory of `qpot compare`, the `qpot sweep` on
  2 lanes and the snapshots `qpot evolve`, run as perfbench's production
  configs (z0 = 3 um where the command takes one) in `.bench_build/layers/`
  by perfbench's `launch.run`, which sums peak memory over the process tree
  as perfbench does, with each PYTHONPATH entry made absolute;
  `cli_import_s` and `cli_import_peak_rss_mb`, the start-up time and the
  memory floor every command pays: a fresh `python -c "import qpot.cli"`
  run the same way; and `tier1_s`, one run of the Tier-1 suite (`pytest`
  over `tests/`) per checkout, after the rounds. With a baseline it gets no
  ratio: both sides' seconds print as "one run per side, unpaired".

The machine block adds `qpot_lapack`: the module whose zgttrf and zgttrs
the checkout calls.

Every other figure is sampled in rounds: a round runs each group of
SAMPLES once, in a fresh child process (`--sample NAME`) with perfbench's
`child_env` (BLAS threads pinned to 1); the parent never imports numpy or
qpot. Round 0 warms the caches and is dropped, and the next `--repeats`
rounds are kept, so every figure but `tier1_s` has `--repeats` samples.
One checkout took 4 m 13 s at the default 5 repeats on a 2-vCPU host.

With `--baseline DIR` (another checkout, such as the parent commit) the
same figures are measured for DIR too, by this file with DIR's `src/` on
the path, and written to `BENCH_<DIR's describe>.json` at this checkout's
root. A `--label` or `--out` that names that same file is rejected
before any child starts: two clean copies of one commit describe alike.
DIR must offer the qpot functions this file calls, in the modules it
imports them from (`convergence_report` from `qpot.experiments`,
`write_csv` from `qpot.io`), the solver's ctypes solve
(`propagate._zgttrs` on `CrankNicolson._args`) and `evolve`'s
`snapshot_stride` argument, a field of `EvolveConfig` before; a checkout
from before those moves, that solve or that argument cannot be measured.
In each round the two sides run each group back to back, the side that
goes first alternating from round to round, so a drift of the host's
speed, which on a shared 2-vCPU host is often larger than the change being
measured, falls on both sides alike. Each file also gets
`ratio_to_alternate`: per figure sampled in rounds, the median and
quartiles of the paired ratios, the file's k-th sample over
the other side's, and `resolved`: false, printed as "unresolved", when
either side's samples spread, (q3 - q1) / median, by more than MAX_SPREAD
= 0.10, as heap-layout-bound figures can from one fresh child to the next;
such a ratio cannot show a 10% change. A ratio of fewer than MIN_PAIRS = 5
pairs is unresolved too: the quartiles of 3 samples do not bound this
host's run-to-run spread, so a claim needs `--repeats` 5 or more. With a
baseline, a run took 7 m 25 s and 7 m 47 s on that host.

A resolved ratio is a change, `changed`: true, only when its whole quartile
range lies outside 1 +- MAX_SPREAD / 2, that is below 0.95 or above 1.05;
any other resolved ratio prints as "within A/A". An A/A run (two copies of
one tree, one as `--baseline`) shows why a quartile range that misses 1.0
is not enough: the run order leaves offsets wider than a tight figure's
quartile range. That run read `run_sweep_2w_s` x0.936 [0.934, 0.977],
`cli_sweep_wall_s` x0.970 [0.965, 0.971] and `cli_snapshots_peak_rss_mb`
x1.001 [1.001, 1.001], all resolved, and under this rule none is a change.
A later A/A run at 5 repeats read no figure as changed, 12 within A/A and
11 unresolved; its widest resolved offset was `run_sweep_2w_s` x1.063
[0.971, 1.085].
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import launch  # noqa: E402
import workloads  # noqa: E402
from run import child_env, environment  # noqa: E402

Z0_UM = 3.0
DT = 1e-7  # s
BATCH = 500  # calls per L1 sample
MAX_SPREAD = 0.10  # a side's (q3 - q1) / median above which its ratio is unresolved
MIN_PAIRS = 5  # fewer pairs than this cannot bound the spread, so are unresolved
# the figure groups: each round measures each group in a fresh child per side
SAMPLES = ("factor", "step", "io", "evolve_2ms_s", "run_comparison_s",
           "run_fitted_control_s", "run_preparation_study_s",
           "convergence_report_s", "run_sweep_1w_s", "run_sweep_2w_s",
           "cli_compare", "cli_sweep", "cli_snapshots", "cli_import_s")


def _seconds(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _case():
    """The default-grid case: (params, grid, potential)."""
    from qpot.core import PhysicalParams, default_grid
    from qpot.potentials import total_potential

    params = PhysicalParams(z0=Z0_UM * 1e-6, sigma=1e-6)
    grid = default_grid(params)
    return params, grid, total_potential(grid, params)


def cli(name):
    """One sample of the L4 group `name`, run by perfbench's launcher in a
    directory of its own: `cli_import_s`, the import of `qpot.cli`, or the
    perfbench production run cli_<workload>; its wall time and peak memory."""
    work = ROOT / ".bench_build" / "layers"
    work.mkdir(parents=True, exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        if name == "cli_import_s":
            argv = [sys.executable, "-c", "import qpot.cli"]
        else:
            spec = workloads.PRODUCTION[name.removeprefix("cli_")]
            (cwd / "run.cfg").write_text(spec.config_text(Z0_UM), encoding="utf-8")
            argv = [sys.executable, "-m", "qpot.cli"] + spec.cli_args("run.cfg", "out")
        # qpot runs in cwd, where a relative PYTHONPATH entry would not find it
        path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(os.path.abspath(p) for p in path if p)}
        proc = launch.run(argv, cwd, env)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} failed: {proc.stderr}")
    wall = name if name == "cli_import_s" else f"{name}_wall_s"
    return {wall: (proc.wall_s, "s"),
            f"{name.removesuffix('_s')}_peak_rss_mb": (proc.peak_rss_mb, "MB")}


def inner(layer):
    """One sample of the in-process group `layer` (L0-L3)."""
    import numpy as np

    from qpot.core import PhysicalParams
    from qpot.engineering import engineered_packet
    from qpot.experiments import (
        SweepSpec,
        convergence_report,
        run_comparison,
        run_fitted_control,
        run_preparation_study,
        run_sweep,
    )
    from qpot.io import begin_snapshots_csv, write_csv, write_snapshot_rows
    from qpot import propagate
    from qpot.propagate import CrankNicolson, EvolveConfig, evolve

    params, grid, pot = _case()
    if layer == "factor":  # before any packet: the process's first factorization
        return {"factor_s": (_seconds(lambda: CrankNicolson(grid, pot, params, DT)), "s")}
    psi = engineered_packet(grid, params)
    config = EvolveConfig(dt=DT, t_final=2e-3)
    short = EvolveConfig(dt=DT, t_final=2e-4)

    def step():
        solver = CrankNicolson(grid, pot, params, DT)
        u = psi.values[1:-1].astype(complex)
        b = np.empty_like(u)
        v = np.empty_like(u)

        def update():
            np.multiply(u, 2.0, out=b)
            np.subtract(b, u, out=v)

        def batch(fn):
            def run():
                for _ in range(BATCH):
                    fn()
            return _seconds(run) / BATCH * 1e6

        # step_values may update u in place; every other figure reads only u
        stepped = u.copy()
        out = {"step_us": batch(lambda: solver.step_values(stepped)),
               "update_us": batch(update)}
        np.multiply(u, 2.0, out=solver._col)
        out["solve_us"] = batch(lambda: propagate._zgttrs(*solver._args))
        out["norm_us"] = batch(lambda: np.vdot(u, u))
        return {name: (value, "us") for name, value in out.items()}

    def io():
        captures = []
        record = evolve(psi, pot, params, EvolveConfig(dt=DT, t_final=2e-3),
                        capture=lambda t, state: captures.append((t, state)),
                        snapshot_stride=100)

        def write_snapshots(path):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                z_cells = begin_snapshots_csv(fh, grid.z)
                for t, state in captures:
                    write_snapshot_rows(fh, z_cells, t, state)

        def write_record(path):
            write_csv(path, ("t_s", "norm", "absorbed_fraction"),
                      record.times, record.norms, record.absorbed_fraction)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            return {"write_record_csv_s": (_seconds(lambda: write_record(path)), "s"),
                    "write_snapshots_s": (_seconds(lambda: write_snapshots(path)), "s")}

    sweep = workloads.PRODUCTION["sweep"]
    spec = SweepSpec(z0_values=tuple(z * 1e-6 for z in sweep.z0_um),
                     sigma_rule=("ratio", sweep.sigma_ratio),
                     t_average_window=sweep.t_final)
    sweep_config = EvolveConfig(dt=sweep.dt, t_final=sweep.t_final)
    timed = {
        "evolve_2ms_s": lambda: evolve(psi, pot, params, config),
        "run_comparison_s": lambda: run_comparison(
            params, grid, config, t_average_window=2e-3),
        "run_fitted_control_s": lambda: run_fitted_control(
            config=short, t_average_window=2e-4),
        "run_preparation_study_s": lambda: run_preparation_study(
            params, grid=grid, config=short, t_window=2e-4),
        "convergence_report_s": lambda: convergence_report(
            params, t_final=2e-4, base_grid=grid, dt_ladder=(4e-7, 2e-7, 1e-7),
            n_refinements=1),
        "run_sweep_1w_s": lambda: run_sweep(
            PhysicalParams(), spec, config=sweep_config, workers=1),
        "run_sweep_2w_s": lambda: run_sweep(
            PhysicalParams(), spec, config=sweep_config, workers=2),
    }
    if layer == "step":
        return step()
    if layer == "io":
        return io()
    return {layer: (_seconds(timed[layer]), "s")}


# the module whose zgttrf and zgttrs qpot.propagate calls
LAPACK_PROBE = """
from qpot import propagate
print("numpy.linalg._umath_linalg: "
      + ", ".join(f.__name__ for f in (propagate._zgttrf, propagate._zgttrs)))
"""


def _quartiles(xs):
    """Median and quartiles of paired ratios; one ratio is all three."""
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                      if len(xs) > 1 else xs * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(xs)}


def _spread(xs):
    """(q3 - q1) / median of one side's samples."""
    q = _quartiles(xs)
    return (q["q3"] - q["q1"]) / q["median"]


def _ratio(xs, ys):
    """The paired ratios xs[k] / ys[k]; whether they can be read: at least
    MIN_PAIRS of them, and both sides tight enough, (q3 - q1) / median at
    most MAX_SPREAD; and whether a resolved one is a change: its quartile
    range wholly outside 1 +- MAX_SPREAD / 2."""
    q = _quartiles([x / y for x, y in zip(xs, ys)])
    resolved = q["n"] >= MIN_PAIRS and max(_spread(xs), _spread(ys)) <= MAX_SPREAD
    changed = resolved and (q["q3"] < 1 - MAX_SPREAD / 2 or q["q1"] > 1 + MAX_SPREAD / 2)
    return {**q, "resolved": resolved, "changed": changed}


def _ratio_table(layers, other):
    """ratio_to_alternate: _ratio of each figure sampled in rounds against the
    other side's; tier1_s, one run per side, is paired with nothing."""
    return {name: _ratio(xs, other[name][0])
            for name, (xs, _) in layers.items() if name != "tier1_s"}


def _sides(k, roots):
    """The checkouts in the order of round k: the first side alternates."""
    return roots if k % 2 == 0 else roots[::-1]


def describe(root=ROOT):
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output (default: git describe)")
    parser.add_argument("--out", help="output path (default: BENCH_<label>.json "
                                      "at the checkout root)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds kept after one warm-up round: the samples "
                             "of every figure but tier1_s")
    parser.add_argument("--baseline", metavar="DIR",
                        help="another checkout measured alongside, its runs "
                             "alternating with this one's")
    parser.add_argument("--sample", choices=SAMPLES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sample:
        sample = cli if args.sample.startswith("cli_") else inner
        print(json.dumps(sample(args.sample)))
        return 0
    env = child_env()
    roots = [ROOT] + ([Path(args.baseline).resolve()] if args.baseline else [])
    if len(set(roots)) < len(roots):
        parser.error("--baseline must be another checkout")
    envs = {root: {**env, "PYTHONPATH": str(root / "src")} for root in roots}
    labels = {root: describe(root) for root in roots}
    labels[ROOT] = args.label or labels[ROOT]
    outs = {root: ROOT / f"BENCH_{labels[root]}.json" for root in roots}
    if args.out:
        outs[ROOT] = Path(args.out)
    if args.baseline and outs[ROOT].resolve() == outs[roots[1]].resolve():
        parser.error(f"--label/--out would write this checkout's figures over the "
                     f"baseline's {outs[roots[1]]}")

    def child(root, name):
        # this file measures every checkout, so both run the same operations
        proc = subprocess.run([sys.executable, __file__, "--sample", name],
                              env=envs[root], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"--sample {name} failed in {root}: {proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    layers = {root: {} for root in roots}
    for k in range(args.repeats + 1):
        for name in SAMPLES:
            for root in _sides(k, roots):
                figures = child(root, name)
                if not k:  # round 0 warms the caches
                    continue
                for figure, (value, unit) in figures.items():
                    layers[root].setdefault(figure, ([], unit))[0].append(value)
    for root in roots:
        t0 = time.perf_counter()
        tier1 = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "tests"],
            cwd=root, env=envs[root], capture_output=True, text=True)
        layers[root]["tier1_s"] = ([time.perf_counter() - t0], "s")
        print(f"{root}: {tier1.stdout.strip().splitlines()[-1]}", file=sys.stderr)
    for root in roots:
        result = {
            "label": labels[root],
            "source": describe(root),
            "machine": {**environment(envs[root]), "qpot_lapack": subprocess.run(
                [sys.executable, "-c", LAPACK_PROBE], env=envs[root], capture_output=True,
                text=True, check=True, timeout=60).stdout.strip()},
            "layers": {name: {"median": statistics.median(xs), "unit": unit,
                              "n": len(xs), "samples": xs}
                       for name, (xs, unit) in layers[root].items()},
        }
        if args.baseline:
            other = roots[1 - roots.index(root)]
            result["alternated_with"] = labels[other]
            result["ratio_to_alternate"] = _ratio_table(layers[root], layers[other])
        outs[root].write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
        for name, entry in result["layers"].items():
            line = (f"{name:28s} {entry['median']:.6g} {entry['unit']} "
                    f"(n = {entry['n']})")
            ratio = result.get("ratio_to_alternate", {}).get(name)
            if ratio:
                line += (f"  x{ratio['median']:.3f} "
                         f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}]")
                line += ("" if ratio["changed"] else " within A/A" if ratio["resolved"]
                         else " unresolved")
            elif args.baseline:  # tier1_s
                line += (f"  vs {layers[other][name][0][0]:.6g} s at {labels[other]}, "
                         f"one run per side, unpaired")
            print(line)
        print(f"wrote {outs[root]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
