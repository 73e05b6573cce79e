"""Machine-speed probe, run in its own process between measured workers.

    python3 -m calibrator        # with PYTHONPATH=perfbench

On a shared host the machine speed drifts by 20-40% from one ten-second
window to the next, and it moves every workload alike. ``run.py`` starts
this process once per run, before the first worker, and never loads the
package into it. Between workers, when the previous worker's process group
has been killed and reaped, it writes a number of seconds on stdin; the
probe times ``kernel`` again and again for that long and answers with the
median kernel time on one line. Nothing of the measured program runs
while it does, so nothing the program leaves behind can be divided out.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

_A = np.arange(1 << 16, dtype=np.int64)
_B = _A.copy()


def kernel() -> float:
    """Seconds taken by a fixed interpreter-and-numpy kernel (about 15 ms).

    The timed part allocates nothing, so it does not depend on the heap.
    """
    start = time.monotonic_ns()
    acc = 0
    for i in range(120_000):
        acc = (acc + i * i) % 1_000_003
    for _ in range(16):
        np.multiply(_A, 3, out=_B)
        np.remainder(_B, 5, out=_B)
    return (time.monotonic_ns() - start) / 1e9


def probe(seconds: float) -> float:
    """Median kernel time over at least three kernels and ``seconds``."""
    times = [kernel() for _ in range(3)]
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        times.append(kernel())
    return statistics.median(times)


def main() -> int:
    kernel()  # first call pays for page faults and caches
    for line in sys.stdin:
        print(probe(float(line)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
