"""Host-speed probe: times an operation in seconds at a reference speed.

On a shared host the speed of one CPU swings by a quarter within seconds
and drifts over minutes, so the wall time of the same operation does too:
one pinned ``derive_main(Precision.of(1000))`` took 5.8 to 9.7 s in 22 runs
within four minutes.  A timing taken before and after an operation does
not follow a swing in its middle, so the probe samples during it:

every PROBE_INTERVAL_S of the process's CPU time a SIGPROF handler times
`probe_work`, a fixed loop of standard-library `Fraction` and 1000-digit
integer arithmetic: many small Python calls over big integers, like the
library's own work, but none of its code.  The reference time of an
interval is its wall time, less the time the probe itself took, times
PROBE_REF_S over the probe's mean duration inside it.  An operation that
does twice the work reads twice the reference time; a slow moment of the
host is divided out.  The wall times are reported beside the reference
times.

Against one 50-digit ``f21_eval`` request repeated for three minutes with
the probe run between repeats, the request's time varied by a coefficient
of variation of 0.137, its ratio to the probe's by 0.050 (correlation
0.93); a probe of small-integer arithmetic alone tracked it less well
(ratio 0.068, correlation 0.62).
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.02
# the duration of probe_work at the usual speed of the host the benchmark
# was written on (2 cores of a shared x86-64 host, Python 3.11.7); it fixes
# the scale of the reference seconds, not their steadiness
PROBE_REF_S = 0.0002
# samples taken before an operation starts, so that even one shorter than
# PROBE_INTERVAL_S has a speed: the latest sample stands for it
PRIMING_SAMPLES = 5


def probe_work() -> int:
    x = Fraction(1, 3)
    for i in range(1, 16):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    y = 10**1000
    for i in range(50):
        y = y * 7 // 3 + i
    return x.numerator + y % 10


class SpeedProbe:
    """Samples the host's speed between `start` and `stop`."""

    def __init__(self):
        self.ends: list[float] = []  # end time of each sample, ascending
        self.durations: list[float] = []

    def _sample(self, *_signal) -> None:
        begin = perf_counter()
        probe_work()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - begin)

    def start(self) -> None:
        for _ in range(PRIMING_SAMPLES):
            self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def ref_seconds(self, begin: float, end: float) -> float:
        """Reference seconds of the wall interval (begin, end)."""
        return ref_seconds(self.ends, self.durations, begin, end)


def ref_seconds(ends, durations, begin: float, end: float) -> float:
    """`end - begin`, less the probe samples ending inside it, times
    PROBE_REF_S over their mean duration; with no sample inside, the latest
    sample before it gives the speed."""
    lo = bisect.bisect_right(ends, begin)
    hi = bisect.bisect_right(ends, end)
    inside = durations[lo:hi]
    if inside:
        spent = sum(inside)
        return (end - begin - spent) * PROBE_REF_S * len(inside) / spent
    return (end - begin) * PROBE_REF_S / durations[lo - 1]
