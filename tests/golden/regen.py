#!/usr/bin/env python3
"""Rewrite the golden byte corpus that tests/test_golden.py checks.

    PYTHONPATH=src python3 tests/golden/regen.py

Each directory next to this file is one case: `argv.txt` holds the qpot
command line (without --config and --out) and `run.cfg` its config; every
other file in it is what that command wrote. This script reruns each case
into a temporary directory, replaces the case's output files with the new
ones and records the machine the corpus was written on in
`environment.json`. A change that moves corpus bytes names each moved file
in CHANGES.md.
"""

import contextlib
import io
import json
import platform
import shutil
import sys
import tempfile
from importlib import metadata
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
INPUTS = ("argv.txt", "run.cfg")


def cases():
    return sorted(p for p in GOLDEN.iterdir() if (p / "argv.txt").is_file())


def outputs(directory):
    """{name: bytes} of the files a case wrote."""
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
            if p.name not in INPUTS}


def run_case(case, out):
    """Run one case in this process into `out`; returns the exit code."""
    from qpot.cli import main

    argv = (case / "argv.txt").read_text(encoding="utf-8").split()
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--config", str(case / "run.cfg"), "--out", str(out)])


def environment():
    """What the recorded floats depend on beyond qpot: the numpy build, whose
    LAPACK qpot calls, and the CPU features numpy's kernels dispatch on."""
    from numpy._core import _multiarray_umath as umath

    return {
        "machine": platform.machine(),
        "numpy": metadata.version("numpy"),
        "numpy_cpu_features": sorted(k for k, v in umath.__cpu_features__.items() if v),
    }


def main():
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            code = run_case(case, out)
            if code != 0:
                raise SystemExit(f"{case.name}: qpot exited {code}")
            for name in outputs(case):
                (case / name).unlink()
            for path in out.iterdir():
                shutil.copyfile(path, case / path.name)
        print(f"{case.name}: {', '.join(outputs(case))}")
    (GOLDEN / "environment.json").write_text(
        json.dumps(environment(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
