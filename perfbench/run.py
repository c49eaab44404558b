#!/usr/bin/env python3
"""qpot benchmark: drives the `qpot` CLI end to end and checks every output.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Run it from anywhere inside a source checkout: the program under test is
imported from the checkout's `src/`, never from an installed copy, and the
benchmark refuses to run without it. Scratch files go to
`.bench_build/perfbench/` in the checkout and are removed at the end.

--trace 0 measures the end-to-end metrics: a client runs one command at a
time (closed loop) for --seconds, plus set-up probes that evolve a few
steps only. --trace 1 runs one untraced and one traced unit and reports
the per-layer metrics. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import launch  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_STEPS = 10  # a set-up probe evolves this many steps
BUDGET_S = 175.0  # a run must end within 180 s


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QPOT_WORKERS", None)  # the benchmark passes --workers itself
    for var in THREAD_VARS:  # 2 sweep workers must not oversubscribe 2 cores
        env[var] = "1"
    return env


def _median(xs):
    return statistics.median(xs) if xs else None


def _ratio(a, b):
    """a / b, or None (printed as null) when either is missing or b is 0."""
    return a / b if a is not None and b else None


def _scale(a, factor):
    return None if a is None else a * factor


def _upper(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 11:
        return None
    pct = 100 * (1 - 10 / n)
    for p in (99.9, 99, 95, 90, 75, 50):
        if p <= pct:
            return p, statistics.quantiles(xs, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


# ------------------------------------------------------------ environment


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def environment(env):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = (
        "import json, platform, numpy, scipy\n"
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']\n"
        "print(json.dumps({'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': '%s %s' % (cfg['blas']['name'], cfg['blas'].get('version')),"
        " 'lapack': '%s %s' % (cfg['lapack']['name'], cfg['lapack'].get('version'))}))\n"
    )
    info = json.loads(subprocess.run([sys.executable, "-c", probe], env=env,
                                     capture_output=True, text=True,
                                     check=True, timeout=60).stdout)
    return {"nproc": os.cpu_count(), "cpu": model, "caches": _caches(), **info,
            "threads_pinned": {v: env[v] for v in THREAD_VARS}}


# ------------------------------------------------------------------ runs


class Bench:
    """One benchmark run of one workload: launches, checks, tallies."""

    def __init__(self, spec, reference, seed, env, deadline):
        self.spec = spec
        self.reference = reference
        self.env = env
        self.deadline = deadline
        self.rng = random.Random(seed)
        # every z0 of the set uses the same grid, so cost is seed-independent
        self.z0 = self.rng.choice(spec.z0_um) if spec.command != "sweep" else None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.count = 0

    def launch(self, full=True, workers=None, spans=None):
        """Run the CLI once, check its outputs, return (ProcResult, Outcome)."""
        self.count += 1
        cwd = WORK / f"{self.spec.name}-{os.getpid()}-{self.count}"
        cwd.mkdir(parents=True)
        try:
            t_final = self.spec.t_final if full else PROBE_STEPS * self.spec.dt
            cfg = cwd / "run.cfg"
            cfg.write_text(self.spec.config_text(self.z0, t_final), encoding="utf-8")
            args = self.spec.cli_args(str(cfg), str(cwd / "out"), workers)
            if spans:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--"] + args
            else:
                argv = [sys.executable, "-m", "qpot.cli"] + args
            timeout = max(1.0, self.deadline - time.monotonic())
            proc = launch.run(argv, cwd, self.env, timeout=timeout)
            if proc.returncode != 0:
                units = self.spec.units(full)
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                outcome = workloads.Outcome(
                    units=units, failed=units,
                    errors=(f"exit {proc.returncode}: {tail[0]}",))
            else:
                outcome = workloads.check_outputs(self.spec, cwd / "out", self.z0,
                                                  self.reference, full)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        self.attempted += outcome.units
        self.failed += outcome.failed
        self.errors += outcome.errors
        return proc, outcome

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(bench, seconds, probes, min_units):
    """End-to-end metrics from a closed loop of untraced runs."""
    spec = bench.spec
    bench.launch(full=False)  # warm-up: byte-compiles src/ and fills caches
    setup, wall, rss, rate, rel = [], [], [], [], []

    def unit():
        proc, outcome = bench.launch()
        if not outcome.failed:
            wall.append(proc.wall_s)
            rss.append(proc.peak_rss_mb)
            rate.append(spec.point_steps(bench.z0) / proc.wall_s / 1e6)
            rel.extend(outcome.rel_errs)

    def probe():
        proc, outcome = bench.launch(full=False)
        if not outcome.failed:
            setup.append(proc.wall_s)

    head = [probe] * probes + [unit] * min_units
    bench.rng.shuffle(head)  # the seed sets the order of repeats
    t0 = time.perf_counter()
    for step in head:
        step()
    # a unit takes up to 15 s here; keep room for one to finish in the budget
    while time.perf_counter() - t0 < seconds and time.monotonic() < bench.deadline - 60:
        unit()
    samples = {"wall_s": wall, "setup_s": setup}
    metrics = {
        "wall_s": (_median(wall), "s"),
        "setup_s": (_median(setup), "s"),
        "mpoint_steps_per_s": (_median(rate), "Mpoint-steps/s"),
        "absorbed_rel_err": (max(rel) if rel else None, "1"),
        "peak_rss_mb": (_median(rss), "MB"),
    }
    return metrics, samples


def traced_run(bench):
    """Per-layer metrics from one traced run (sweep: --workers 1)."""
    spec = bench.spec
    bench.launch(full=False)  # warm-up, as in the timed run
    plain, _ = bench.launch()
    serial = plain
    if spec.workers > 1:
        serial, _ = bench.launch(workers=1)
    spans_path = WORK / f"spans-{os.getpid()}.json"
    traced, outcome = bench.launch(workers=1, spans=spans_path)
    try:
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except OSError:
        return {}  # the traced run failed; bench counted it
    finally:
        spans_path.unlink(missing_ok=True)
    if not trace["qpot_file"].startswith(str(SRC)):
        raise SystemExit(f"traced run imported qpot from {trace['qpot_file']}")
    return layer_metrics(trace, traced, plain, serial, outcome, spec.workers)


def layer_metrics(trace, traced, plain, serial, outcome, workers):
    spans = [tuple(s) for s in trace["spans"]]
    own = tracer.self_times(spans)
    names = [s[0] for s in spans]

    def durations(name):
        return [end - start for n, start, end, _, _ in spans if n == name]

    def outermost(prefixes):
        """Total time in spans matching prefixes, not nested in another match."""
        hit = [n.startswith(prefixes) for n in names]
        return sum(end - start for (n, start, end, parent, _), h in zip(spans, hit)
                   if h and (parent < 0 or not hit[parent]))

    step_name = "propagate.CrankNicolson.step_values"
    steps = durations(step_name)
    evolve_idx = [i for i, n in enumerate(names) if n == "propagate.evolve"]
    per_evolve = {i: 0 for i in evolve_idx}
    for n, _, _, parent, _ in spans:
        if n == step_name and parent in per_evolve:
            per_evolve[parent] += 1
    n_steps = sum(per_evolve.values()) or 1
    points = sum((spans[i][4] or 0) * k for i, k in per_evolve.items()) / n_steps
    # arrays one CN step on m interior points reads or writes once: three
    # band rows, two right-hand-side coefficient rows, input, rhs, output
    m = points - 2
    step_bytes = (8 * m - 1) * 16
    step_s = statistics.median(steps) if steps else None
    point_name = "experiments._sweep_point" if workers > 1 else "propagate.evolve"
    point_times = durations(point_name)
    interp = trace["t_start"] - traced.launched_at
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    for n, o in zip(names, own):
        layer_self[tracer.layer_of(n)] += o
    upper = _upper(steps)
    metrics = {
        "propagate.step_us": (_scale(step_s, 1e6), "us"),
        "propagate.step_p99_us": (_scale(upper[1] if upper else max(steps, default=None),
                                         1e6), "us"),
        "propagate.loop_overhead_us": (
            sum(own[i] for i in evolve_idx) / n_steps * 1e6, "us"),
        "propagate.steps": (len(steps), "count"),
        "propagate.evolve_calls": (len(evolve_idx), "count"),
        "propagate.factorizations": (len(durations("propagate.CrankNicolson.__init__")),
                                     "count"),
        "propagate.factor_s": (sum(durations("propagate.CrankNicolson.__init__")), "s"),
        "propagate.n_points": (points, "count"),
        "propagate.step_bytes_computed": (step_bytes, "B"),
        "propagate.step_gbps_computed": (_ratio(step_bytes / 1e9, step_s), "GB/s"),
        "io.write_s": (outermost(("io.",)), "s"),
        "io.bytes_written": (outcome.bytes_written, "B"),
        "io.rows_written": (outcome.rows_written, "count"),
        "experiments.parallel_efficiency": (
            _ratio(sum(point_times), workers * plain.wall_s), "1"),
        "experiments.point_max_over_mean": (
            _ratio(max(point_times, default=None),
                   statistics.mean(point_times) if point_times else None), "1"),
        "experiments.ratio_series_s": (
            sum(durations("experiments.absorption_ratio_series")), "s"),
        "cli.import_s": (sum(durations("cli.import")), "s"),
        "config.load_config_s": (sum(durations("config.load_config")), "s"),
        "potentials.total_potential_s": (
            sum(durations("potentials.total_potential")), "s"),
        "engineering.packet_s": (
            outermost(("engineering.engineered_packet", "engineering.gaussian_packet")),
            "s"),
        "core.default_grid_s": (outermost(("core.default_grid",)), "s"),
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value, "s")
    attributed = sum(layer_self.values())
    metrics.update({
        "trace.interp_start_s": (interp, "s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (serial.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - serial.wall_s, "s"),
        "trace.after_main_s": (
            traced.launched_at + traced.wall_s - trace["t_main_end"], "s"),
        "trace.attributed_share": (attributed / (traced.wall_s - interp), "1"),
        "trace.spans": (len(spans), "count"),
        "trace.span_cost_us": (trace["span_cost_s"] * 1e6, "us"),
    })
    return metrics


# ---------------------------------------------------------------- output


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title, metrics, samples=None):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        note = ""
        if samples and name in samples:
            xs = samples[name]
            up = _upper(xs)
            note = (f"median of n={len(xs)}; p{up[0]:g} {_fmt(up[1])}" if up else
                    f"median of n={len(xs)} (below 11, no upper percentile): "
                    + " ".join(_fmt(x) for x in xs))
        print(f"#   {name:36s} {_fmt(value):>14s} {unit:15s} {note}")


def run_workload(name, seed, seconds, trace, scale, env, deadline):
    spec = workloads.SCALES[scale][name]
    reference = workloads.load_reference(HERE / "reference.json", scale, spec)
    bench = Bench(spec, reference, seed, env, deadline)
    tiny = scale == "tiny"
    samples = None
    if trace:
        metrics = traced_run(bench)
    else:
        metrics, samples = timed_run(bench, seconds, probes=2 if tiny else 5,
                                     min_units=1 if tiny else 3)
    what = "traced per-layer" if trace else "end-to-end"
    z0 = f", z0 = {bench.z0} um" if bench.z0 else ""
    print_table(f"{name}: {what} metrics (seed {seed}{z0})", metrics, samples)
    frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"#   {'failed_frac':36s} {_fmt(frac):>14s} {'1':15s} "
          f"{bench.failed} of {bench.attempted} units")
    for err in bench.errors[:10]:
        print(f"#   FAILED: {err}")
    return bench.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PRODUCTION) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small grids and short runs (harness self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "qpot" / "cli.py").is_file():
        print(f"error: no qpot sources at {SRC}", file=sys.stderr)
        return 2
    scale = "tiny" if args.tiny else "production"
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)
    print("# environment " + json.dumps(environment(env), sort_keys=True))
    if args.workload != "all":
        deadline = time.monotonic() + BUDGET_S
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              scale, env, deadline)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.PRODUCTION:
            for trace in (0, 1):
                deadline = time.monotonic() + BUDGET_S
                part = run_workload(name, args.seed, args.seconds, trace, scale,
                                    env, deadline)
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update(
                    {f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
