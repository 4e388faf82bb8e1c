"""Host-speed normalisation of the benchmark's timings.

On a shared host the speed of one CPU swings by up to 1.7x on timescales
from under a second to a minute, so wall time alone moves by more than any
bound between two runs of the same code. A fixed reference kernel, timed
while the program runs, measures that speed; an op's wall time scaled by it
is the time the op would take on a host that runs the kernel in
`NOMINAL_S`. The program never influences the kernel, so a change to the
program moves the scaled time as it moves wall time.

The kernel is plain Python, so that a fresh process can time it while it
imports numpy; this module imports only the standard library.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds the kernel takes on the nominal host: about its fastest time on a
# 2-CPU cloud host; only the scale of the normalised timings depends on it.
NOMINAL_S = 0.003
PERIOD_S = 0.2


def kernel() -> float:
    """Wall seconds of a fixed mix of integer, float, dict and list work."""
    start = time.perf_counter()
    acc, x = 0, 0.5
    table, items = {}, []
    for i in range(15000):
        acc += (i * 7) % 13
        x = x * 0.999 + 1e-3 * (i & 15)
        table[i & 255] = acc
        if not i & 7:
            items.append(x)
    items.sort()
    return time.perf_counter() - start


class Sampler:
    """Runs `kernel` every `period` seconds of wall time from a SIGALRM handler,
    which Python calls in the main thread between bytecodes, and keeps
    (start, end, kernel seconds) of each sample."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float, float]] = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        seconds = kernel()
        self.samples.append((start, time.perf_counter(), seconds))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, seconds: float) -> float:
        """Wall time of the interval [start, start + seconds] less the
        samples taken inside it, scaled to the nominal host speed.

        Samples fall uniformly in wall time, so the work done is the wall
        time times the mean speed NOMINAL_S / kernel seconds over them. An
        interval that holds no sample takes the speed of the nearest one.
        """
        inside = [s for s in self.samples if start <= s[0] < start + seconds]
        own = seconds - sum(end - begin for begin, end, _ in inside)
        if not inside and self.samples:
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))]
        kernels = [k for _, _, k in inside] or [kernel()]
        return own * statistics.fmean(NOMINAL_S / k for k in kernels)

