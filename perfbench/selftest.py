#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 20 seconds).

    python3 perfbench/selftest.py

It runs every workload in both modes on tiny grids with short evolved
times, checks that each prints exactly the workload and metric names of
BENCHMARK.json, that a corrupted output is counted as failed, and that the
benchmark refuses to run where the qpot sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import launch  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.WORK / "selftest"
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def check_names(declared):
    expect(sorted(w["name"] for w in declared["workloads"]) ==
           sorted(workloads.PRODUCTION), "BENCHMARK.json names the benchmark's workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        for name in workloads.PRODUCTION:
            proc, lines = bench("--tiny", "--workload", name, "--seed", "3",
                                "--seconds", "1", "--trace", str(trace))
            what = f"{name} --trace {trace}"
            if proc.returncode != 0 or not lines:
                expect(False, f"{what} exits 0 ({proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what} prints the result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what} is correct with no failed unit "
                   f"{[ln for ln in lines if 'FAILED' in ln][:3]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{what} prints exactly the {key} metrics of "
                   f"BENCHMARK.json (extra {sorted(set(got) - set(want))}, "
                   f"missing {sorted(set(want) - set(got))})")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what} gives every metric a number")


def corrupt(path, old, new, count=1):
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, count))


def check_corruption():
    """A corrupted output must count as a failed unit."""
    env = run.child_env()
    cases = {
        "compare": [("ratio.csv", "\n1", "\nx1"),  # a cell that does not parse
                    ("record_gaussian.csv", ",0.99", ",1.5")],  # norm increases
        "snapshots": [("snapshots.csv", "\n", "\n1,2\n")],  # a short row
        "sweep": [("sweep.csv", ",false,", ",true,")],  # a row marked failed
    }
    for name, edits in cases.items():
        spec = workloads.TINY[name]
        reference = workloads.load_reference(HERE / "reference.json", "tiny", spec)
        z0 = spec.z0_um[0]
        cwd = SCRATCH / name
        cwd.mkdir(parents=True)
        (cwd / "run.cfg").write_text(spec.config_text(z0))
        argv = [sys.executable, "-m", "qpot.cli"] + spec.cli_args(
            str(cwd / "run.cfg"), str(cwd / "out"))
        proc = launch.run(argv, cwd, env, timeout=120)
        clean = workloads.check_outputs(spec, cwd / "out", z0, reference)
        expect(proc.returncode == 0 and clean.failed == 0,
               f"{name}: clean output passes {clean.errors}")
        pristine = {p.name: p.read_text() for p in (cwd / "out").iterdir()}
        for fname, old, new in edits:
            corrupt(cwd / "out" / fname, old, new)
            bad = workloads.check_outputs(spec, cwd / "out", z0, reference)
            expect(bad.failed >= 1 and bad.units == clean.units,
                   f"{name}: corrupted {fname} counts {bad.failed} of {bad.units} "
                   f"units failed {bad.errors[:1]}")
            (cwd / "out" / fname).write_text(pristine[fname])
        (cwd / "out" / edits[0][0]).unlink()
        gone = workloads.check_outputs(spec, cwd / "out", z0, reference)
        expect(gone.failed == gone.units, f"{name}: a missing file fails every unit")


def check_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc, lines = bench("--workload", "compare", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    expect(proc.returncode != 0 and not any(ln.startswith("{") for ln in lines),
           "without src/ the benchmark exits nonzero and prints no result")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        check_corruption()
        check_refuses_without_sources()
        check_names(declared)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
