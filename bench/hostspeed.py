"""Host speed reference for the benchmark's end-to-end times.

On a shared host the CPU speed a process gets drifts slowly, by up to
about 1.5x over tens of seconds, so the median wall time of one run moves
with the moment the run happens to be made.  Each timed sample is
therefore bracketed by a fixed pure-Python loop, timed just before and
just after it, and the sample is reported scaled to a host on which that
loop takes NOMINAL_S:

    scaled = wall * NOMINAL_S / mean(loop before, loop after)

The loop does not run any pavcal code, so the factor follows the host but
not the program: a change that makes an operation twice as fast halves
its scaled time.  The raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.05        # the loop's time on a 2-vCPU Xeon host when it ran fast
LOOP_ITERATIONS = 1_000_000


def loop_seconds() -> float:
    """Wall seconds of the reference loop, about NOMINAL_S."""
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale from this host's speed around a sample to the nominal speed."""
    return NOMINAL_S * 2.0 / (before + after)
