"""Run one child process and measure its wall time and peak memory."""

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    launched_at: float  # time.monotonic() just before the launch
    stderr: str


def _children(pid):
    """Direct children of pid, from /proc (read-only)."""
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids += [int(k) for k in fh.read().split()]
    except OSError:
        pass
    return kids


def _hwm_kb(pid):
    """Peak resident set (VmHWM) of one live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _TreeSampler(threading.Thread):
    """Tracks the peak RSS of every descendant of a process.

    Worker processes of the sweep's pool are read here while they live;
    the last value read is their peak, since VmHWM never decreases.
    """

    def __init__(self, pid, interval=0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peaks = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(self.interval):
            stack = [self.pid]
            while stack:
                pid = stack.pop()
                self.peaks[pid] = max(self.peaks.get(pid, 0), _hwm_kb(pid))
                stack += _children(pid)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv, cwd, env, timeout=170.0):
    """Run argv to completion; stdout and stderr go to files in cwd.

    Peak memory is the child's own peak plus the peaks of its
    descendants, so a process pool counts every worker.
    """
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        sampler = _TreeSampler(proc.pid)
        sampler.start()
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            killer.cancel()
            _kill_group(proc.pid)  # leaves no stray pool worker behind
            sampler.done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-2000:]
    # ru_maxrss is the largest single process among the child and the
    # descendants it reaped; with a pool, the sum of sampled peaks is larger.
    peak_kb = max(usage.ru_maxrss, sum(sampler.peaks.values()))
    return ProcResult(proc.returncode, wall, peak_kb / 1024.0, launched, stderr)
