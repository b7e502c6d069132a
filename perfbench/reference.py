"""A fixed computation that measures how fast the host runs right now.

On a shared two-processor Xeon virtual machine the host's speed drifted by
15-35% over minutes, so the bounded call metrics are call times in units of
this computation's median time over the same run.  It uses numpy alone, so a change to the library cannot change it.

``Reference`` runs it in a helper process, so that its arrays stay out of
the workload's peak memory.  Each sample runs on the processor the workload
last ran on, whose caches it shares; unpinned, the samples followed the
workload's slowdowns less well.  The workload waits while a sample runs, so
the two never compete for a processor.

    python3 perfbench/reference.py    # one timing per line read on stdin
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from time import perf_counter


def reference_s() -> float:
    """Seconds for work with the library's mix: many small array operations
    driven from Python, and one pass over a 4 MiB array.  A version without
    that pass, whose arrays all fit in cache, did not follow the slowdowns
    of score-n32's calls."""
    import numpy as np
    rng = np.random.default_rng(0)
    small, big = rng.standard_normal((64, 8)), rng.standard_normal(1 << 19)
    start = perf_counter()
    for _ in range(2000):
        p = np.exp(small - small.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        float(p[:, 0] @ p[:, 1])
    float(np.log1p(np.exp(big)).sum())
    return perf_counter() - start


def current_cpu():
    """The processor this thread runs on, or None where that is unknown."""
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    cpu = getcpu() if getcpu else -1
    return cpu if cpu >= 0 else None


class Reference:
    """A helper process that times ``reference_s`` on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        cpu = current_cpu()
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(reference_s()), flush=True)
