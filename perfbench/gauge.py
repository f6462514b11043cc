"""The host-speed gauge: a fixed reference workload, timed in a process of
its own between the benchmark's ops.

The shared host this benchmark was built on changes speed by up to 1.8x,
in phases that last from under a second to minutes, so raw wall times of
runs made minutes apart disagree by more than any useful bound: over ten
`al-sweep` runs made one after another, the mean times of each op kind
spread by 0.23-0.31 (quartile distance over median). The gauge slows with
the host (within one `train-paper` run its reading went from about 42 to
68 ms while the same op slowed by 1.5x), so a run reads it before every op
and once at the end, and takes its times to a host on which the gauge
reads `REFERENCE_S` (see `bench.end_to_end_metrics`). Over those ten runs
the times so taken spread by 0.05-0.10.

The workload mixes the kinds of work the program does: interpreted Python,
small numpy arrays (as in `learner.fit` and single-document inference), a
BLAS matmul (as in paper-size training) and a memory-bound pass (as in the
clustering of `diversity_select`). It runs in a child process that does
nothing else, and only while the benchmark waits for its answer, so no
state the program leaves in the benchmark's process (heap, threads, numpy
or BLAS settings) changes a reading, and the two never compete for the host.

    python3 perfbench/gauge.py   # one reading, in seconds, per input line
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The gauge's reading on the 2-vCPU x86 host the benchmark was built on
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread) in a fast
# phase. It only sets the scale of the times: runs compared with each
# other are made on one host.
REFERENCE_S = 0.040


def _workload():
    import numpy as np
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(20241127)
    X = rng.standard_normal((48, 13))
    y = rng.integers(0, 5, 48)
    A = rng.standard_normal((256, 256))
    B = rng.standard_normal((512, 256))
    P = rng.standard_normal((2000, 8))

    def python():
        table = {}
        for i in range(90000):
            table[i % 211] = (i, i * 0.5)
        return sorted(table.values())

    def small_numpy():
        W = np.zeros((5, 13))
        for _ in range(600):
            z = X @ W.T
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(y)), y] -= 1.0
            W -= 0.01 * (p.T @ X)
        return W

    def matmul():
        for _ in range(12):
            B @ A

    def memory():
        return pdist(P)

    def work():
        python()
        small_numpy()
        matmul()
        memory()

    return work


def serve() -> None:
    """The child's loop: time the workload once per line of input."""
    work = _workload()
    work()  # the first pass pays for first-touch page faults
    for _ in sys.stdin:
        t0 = perf_counter()
        work()
        print(repr(perf_counter() - t0), flush=True)


class Gauge:
    """The gauge's child process, as a context manager: it is stopped and
    waited for on every way out. `read()` returns one reading in seconds
    and keeps it in `readings`."""

    def __init__(self):
        self.readings: list[float] = []
        self._proc = None

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        return self

    def read(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the gauge process ended")
        self.readings.append(float(line))
        return self.readings[-1]

    def __exit__(self, *exc):
        proc, self._proc = self._proc, None
        try:
            proc.stdin.close()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()
        return False


if __name__ == "__main__":
    serve()
