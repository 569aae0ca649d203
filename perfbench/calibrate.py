"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants, the speed of the same single-threaded
work drifts by up to ~1.6x over tens of seconds, which is longer than a run.
The benchmark therefore times a fixed calibration kernel (numpy convolution,
a scipy special function and an interpreter loop; no psifrac code) next to
the measured work, and reports each timing scaled to reference speed:

    reported = measured * CAL_REF_S / calibration time measured around it

where the calibration time is the median of the samples taken within
WINDOW_S of the measured interval (always including the samples just
before and just after it).
A change to psifrac moves the reported numbers exactly as it moves the
measured ones.  The raw timings are kept in the result files.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.special import betainc

# calibration time on a quiet 2-core Xeon at the commit that introduced the
# benchmark; a constant, so it cancels when two commits are compared
CAL_REF_S = 0.006
# slow phases of the host last seconds, single samples jitter by ~10%
WINDOW_S = 1.5

_X = np.linspace(0.0, 1.0, 2049)
_W = np.linspace(1.0, 2.0, 2049)
_P = np.linspace(0.01, 0.99, 512)


def sample() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.convolve(_X, _W)
    for _ in range(30):
        betainc(0.5, 0.7, _P)
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    return time.perf_counter() - t0


def at_reference_speed(starts, durations, sample_times, samples) -> list[float]:
    """Scale each interval ``[start, start + duration]`` to reference speed.

    ``sample_times`` (ascending, same clock as ``starts``) and ``samples``
    are the calibration samples taken around the intervals.
    """
    out = []
    for start, dur in zip(starts, durations):
        before = bisect.bisect_right(sample_times, start) - 1
        after = bisect.bisect_left(sample_times, start + dur)
        lo = min(bisect.bisect_left(sample_times, start - WINDOW_S), max(before, 0))
        hi = max(bisect.bisect_right(sample_times, start + dur + WINDOW_S), after + 1)
        out.append(dur * CAL_REF_S / statistics.median(samples[lo:hi]))
    return out
