"""Where the benchmark runs, on what, and how fast that is right now."""

from __future__ import annotations

import os
import pathlib
import platform
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: what :func:`calibrate` takes at this machine class's usual speed (its
#: median on the box the bounds were set on is 94 ms)
REFERENCE_S = 0.100


class BenchError(Exception):
    """The benchmark could not measure (as opposed to: measured a failure)."""


def calibrate() -> float:
    """Host seconds of a fixed loop — the machine's speed at this moment.

    On a shared box the same work takes 0.75x to 1.45x its usual time, in
    regimes that can outlast a whole run; no statistic over repetitions
    removes that.  This loop (interpreter bytecode plus small-array numpy,
    the mix the workloads are made of) runs before and after everything
    that is timed, and timed values are scaled by ``REFERENCE_S / loop
    time``: they read as host time *at reference speed*.  The loop depends
    on nothing in ``src/``, so no change to the program can move it.
    """
    import numpy as np

    t0 = perf_counter()
    field = np.arange(216, dtype=float).reshape(6, 6, 6)
    for _ in range(5):
        acc = 0
        for i in range(60_000):
            acc += i * i
        for i in range(2_000):
            field = np.roll(field, 1, axis=i % 3) * 0.999 + 0.001
    return perf_counter() - t0


def reap_children() -> None:
    """Stop and wait for every process this one started, helpers included.

    ``multiprocessing``'s spawn context (the campaign supervisor's workers)
    starts a resource-tracker daemon that otherwise outlives the run: it
    ends only when it sees this process's pipe close, i.e. after exit,
    unwaited.  Called on every path out of ``bench.run``.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # closing the tracker's "alive" pipe is what makes its main() return
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
    try:  # zombies nobody waited for (none expected)
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def fingerprint() -> dict:
    import numpy

    cpu = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
