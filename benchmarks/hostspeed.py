"""Host-speed calibration for a shared machine.

A benchmark host may share its CPUs with other tenants.  Measured on a
2-CPU host shared that way, the same fixed work took from 1.0x to 1.7x
its idle wall time, in episodes lasting seconds to minutes, with CPU
time equal to wall time (no preemption to subtract).  That spread
reaches past the largest regression bound the benchmark may set.

So every timing is scaled by the host's speed at the moment it was taken:
a fixed pure-Python loop that uses nothing from taurank is timed next to
the work, and a time t measured while the loop took p seconds is reported
as t * PROBE_REF_S / p.  On an idle host of the reference speed the factor
is about 1; a later commit cannot change the loop, so the factor cancels
host load and nothing else.  Raw times are kept in the detail files.
"""

from time import perf_counter

PROBE_LOOPS = 60_000
# the loop's time on an idle host of the reference machine (2 CPUs, Python 3.11)
PROBE_REF_S = 0.004


def probe():
    """Seconds the fixed loop takes now."""
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return perf_counter() - t0


def factor(p_before, p_after):
    """Scale for a time measured between two probes."""
    return 2 * PROBE_REF_S / (p_before + p_after)
