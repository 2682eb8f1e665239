"""CPU time at the machine's nominal speed, for times that hold still on a shared host.

A shared virtual machine disturbs timings in two ways.  The host takes the
virtual CPU away for milliseconds at a time; that shows in wall time but not
in this process's CPU time.  And while another tenant keeps the sibling
hardware thread busy, the same pure-Python work runs up to twice as slow;
that shows in CPU time as well, and the share of time spent that way drifts
over seconds and minutes.  So an op is timed by ``cpu_time`` and the
slowdown is measured: a ``SIGALRM`` handler times a small fixed kernel, in
CPU time, every ``PERIOD`` seconds of wall time.  The mean kernel time of
the samples near an interval, over ``NOMINAL_S``, is the kernel's slowdown
during it.  The library's code slows down less than the tight kernel: the
log CPU time of its ops rises with the log of the kernel's slowdown with a
slope of 0.6 to 0.75 (correlation 0.9) on the reference machine, and whole
runs corrected with the full slowdown came out faster the slower the machine
was.  So the interval's CPU time, less the handler's own, divided by the
slowdown raised to ``SENSITIVITY``, is the CPU time of the same work at
nominal speed.
"""

from __future__ import annotations

import bisect
import itertools
import os
import signal
from time import perf_counter, process_time, thread_time

PERIOD = 0.01
# the kernel's median time on the reference machine (2 vCPU Xeon, 2.1 GHz,
# Python 3.11) with the sibling thread idle
NOMINAL_S = 0.00024
# the exponent by which the kernel's slowdown applies to the library's code
SENSITIVITY = 0.8
# samples started this close to an interval (in wall time) count towards its slowdown
MARGIN = 0.2

_PERMS = list(itertools.permutations(range(4)))
_INDEX = {p: i for i, p in enumerate(_PERMS)}


def cpu_time() -> float:
    """CPU time of this process, all its threads and its reaped children."""
    t = os.times()
    return process_time() + t.children_user + t.children_system


def kernel() -> int:
    acc = 0
    for p in _PERMS:
        for q in _PERMS:
            acc += _INDEX[tuple([p[i] for i in q])]
    return acc


class SpeedProbe:
    """Samples the kernel's time every ``PERIOD`` seconds inside a ``with`` block."""

    def __init__(self):
        self.starts: list[float] = []  # wall clock
        self.durations: list[float] = []  # CPU time
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum, frame):
        t0, c0 = perf_counter(), thread_time()
        kernel()
        self.durations.append(thread_time() - c0)
        self.starts.append(t0)

    def slowdown(self) -> float:
        """The kernel's mean slowdown over every sample taken."""
        return sum(self.durations) / len(self.durations) / NOMINAL_S if self.durations else 1.0

    def normalize(self, start: float, end: float, cpu: float) -> float:
        """``cpu``, the CPU time spent from wall-clock ``start`` to ``end``,
        without the probe's own, at nominal speed."""
        own = sum(self.durations[bisect.bisect_left(self.starts, start) : bisect.bisect_left(self.starts, end)])
        window = self.durations[
            bisect.bisect_left(self.starts, start - MARGIN) : bisect.bisect_left(self.starts, end + MARGIN)
        ]
        slowdown = (sum(window) / len(window)) / NOMINAL_S if window else 1.0
        return (cpu - own) / slowdown**SENSITIVITY
