"""Helpers shared by the workloads: paths, statistics, probes, counters."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))

#: set-up samples per run; setup_s is their median
SETUP_REPS = 5


class Context:
    """Where a run reads and writes: all inside the checkout."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = os.path.join(root, ".perfbench_out",
                                f"{workload}-{seed}-{os.getpid()}")
        self.trace_dir = os.path.join(root, ".perfbench_out", "trace",
                                      workload)
        os.makedirs(self.out, exist_ok=True)

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_ok(count: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q`` percentile."""
    return count * (100.0 - q) / 100.0 >= 10


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def time_to_ready(cmd: List[str], ctx: Context, marker: str,
                  stop=None) -> float:
    """Seconds from launching ``cmd`` until it prints ``marker``.

    ``stop(proc)`` (default: wait) ends the process afterwards; it is
    always waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            env=ctx.env(), cwd=ctx.root)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        if marker not in line:
            raise RuntimeError(f"{cmd[1:3]} did not get ready: {line!r}")
        if stop is not None:
            stop(proc)
        proc.stdout.read()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return t1 - t0


def setup_seconds(mode: str, ctx: Context) -> List[float]:
    """Set-up samples: a fresh interpreter until it can take a chain."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), mode,
           os.path.join(ctx.out, "probe")]
    return [time_to_ready(cmd, ctx, "ready") for _ in range(SETUP_REPS)]
