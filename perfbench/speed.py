"""Host-speed normalisation of wall times.

On a shared host the same op runs at very different speeds from one phase
to the next: one process saw a `spectral-oracle` op take 0.20 s and then
0.37 s, with its CPU time equal to its wall time throughout.  The phases
last seconds to tens of seconds, so a 25 s run can sit wholly in a slow
one, and medians of the same code then differ by a quarter from run to run.

`Speedometer` samples the speed of the host while the benchmark runs.  A
SIGALRM timer interrupts the process every `INTERVAL_S` and times a fixed
reference kernel that never touches spinzero: a small pure-Python loop and
a few 16 x 16 complex matrix products, a few kilobytes of working set.
`scaled(t0, t1)` turns the wall time of an interval into seconds at the
reference speed, the speed at which the kernel takes `REFERENCE_S`:

    scaled = (wall time - kernel time inside the interval)
             * mean(REFERENCE_S / kernel time) over the samples inside it

The mean leaves out samples that took over three times the interval's
median kernel time: now and then one sample takes twenty times as long as
its neighbours, and the interval it falls in ran no slower.  The kernel's
own time is taken out only for work done in this process; a child
process runs beside the handler, not behind it.  An interval that holds no
sample (a command shorter than the interval) takes the nearest samples on
both sides.  The kernel costs about 1% of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
# Kernel time that defines the reference speed: close to the fastest phase
# of the two-core host the baseline was measured on.
REFERENCE_S = 0.0005
# A sample slower than this many times the median of its interval was
# interrupted; host phases differ by less than a factor of two.
OUTLIER = 3.0


def _reference_kernel(matrix, rounds=30, loop=1500) -> float:
    counts: dict[int, int] = {}
    for i in range(loop):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 // 7
    total = 0.0
    for _ in range(rounds):
        total += float(np.trace(matrix @ matrix.conj().T).real)
    return total


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.starts: list[float] = []     # sample start times, increasing
        self.seconds: list[float] = []    # kernel time of each sample
        self._previous = None
        self.warm_up_s = 0.0

    def start(self) -> None:
        t0 = perf_counter()
        for _ in range(20):               # warm the kernel's code paths
            _reference_kernel(self._matrix)
        self.warm_up_s = perf_counter() - t0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _reference_kernel(self._matrix)
        self.starts.append(t0)
        self.seconds.append(perf_counter() - t0)

    def _bounds(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def speed(self, t0: float, t1: float) -> float:
        """Host speed from t0 to t1 (perf_counter) relative to the reference."""
        lo, hi = self._bounds(t0, t1)
        near = self.seconds[lo:hi] or self.seconds[max(lo - 1, 0):lo + 1]
        if not near:
            raise RuntimeError("no host-speed sample was taken")
        cap = OUTLIER * statistics.median(near)
        return statistics.fmean(REFERENCE_S / s for s in near if s <= cap)

    def scaled(self, t0: float, t1: float, in_process: bool = True) -> float:
        """Wall time from t0 to t1 (perf_counter) in seconds at the
        reference speed."""
        lo, hi = self._bounds(t0, t1)
        own = sum(self.seconds[lo:hi]) if in_process else 0.0
        return (t1 - t0 - own) * self.speed(t0, t1)
