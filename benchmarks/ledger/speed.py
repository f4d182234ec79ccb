"""Host speed, sampled while the timed work runs.

The ledger was built on a 2-vCPU virtual machine of a shared host. Its
neighbours change how fast it runs by up to 1.6x, within seconds and
for minutes at a time, with no CPU steal reported, and every raw timing
of a run moves with them. A :class:`SpeedProbe` times a fixed reference
loop every :data:`INTERVAL_S` while the work runs, from a ``SIGALRM``
handler in the benchmark's one thread, so its samples cover the same
stretch of time as the work. The work's time over a stretch, less the
loop's own time there, times :data:`REFERENCE_S` over the mean sample of
that stretch is the time the work would have taken at the reference
speed: the speed at which the loop takes :data:`REFERENCE_S`.

The loop runs only Python and NumPy, never the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe", "reference_loop"]

#: Time from the end of one sample to the start of the next.
INTERVAL_S = 0.04
#: The reference loop's duration at the reference speed: a round figure
#: near its usual 1.6-1.9 ms on the host the ledger was built on.
REFERENCE_S = 0.002

_KEYS = tuple((i % 97, i % 13) for i in range(1500))
_VECTOR = np.arange(64, dtype=float)


def reference_loop() -> float:
    """A fixed mix of interpreter work and small NumPy calls, like a request's."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0.0
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
        acc += math.sqrt(key[0] + 1.0)
    for i in range(250):
        acc += float((_VECTOR * 1.0001 + i).sum())
    return acc


class SpeedProbe:
    """Durations of the reference loop, each with its start time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._active = False

    def sample(self) -> None:
        """Time the reference loop once."""
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        # A tick already pending when sampling stops must not re-arm.
        if self._active:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def sampling(self) -> Iterator["SpeedProbe"]:
        """Sample at the start, every :data:`INTERVAL_S` inside, and at the end."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Reference over measured speed across ``[t0, t1)``: the samples
        taken in it and the one on each side of it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        around = self.samples[max(i - 1, 0) : j + 1]
        return REFERENCE_S * len(around) / math.fsum(around)

    def at_reference(self, t0: float, t1: float) -> float:
        """Seconds of work in ``[t0, t1)``, less the loop's, at the reference speed."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return (t1 - t0 - math.fsum(self.samples[i:j])) * self.scale(t0, t1)

    def time(self, fn: Callable, *args) -> tuple[object, float]:
        """``fn(*args)`` and its duration at the reference speed."""
        with self.sampling():
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        return result, self.at_reference(t0, t1)

    def overall_scale(self) -> float:
        """Reference over measured speed across every sample so far."""
        return REFERENCE_S * len(self.samples) / math.fsum(self.samples)
