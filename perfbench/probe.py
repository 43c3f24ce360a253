"""A speed probe that measures how fast the shared machine runs, during the timed work.

The benchmark's machine shares its CPUs with other tenants. Over seconds to
minutes the same deterministic request can take up to twice as long, in
wall time and in process CPU time alike, because the CPU itself runs
slower (the kernel's steal-time counter stays near zero). No statistic
taken over a run removes a slow spell that covers the whole run.

``SpeedProbe`` runs a fixed piece of work on an interval timer (SIGALRM)
while requests run, and records how long each probe took. A probe that
takes twice its reference time says the machine runs at half speed. The
worker divides each request's time, less the probes inside it, by the
slowdown the probes around it saw: its time at the reference speed.

The probe is the benchmark's own fixed code, never the program's, so a
change to the program cannot move it. It is a short, tight pure-Python
loop. Contention slows it less than it slows the program (a spell that
makes the probe 1.45 times slower makes requests 1.6-1.8 times slower), so
the correction is partial, never an overshoot: a request timed in a slow
spell still reads slower than one timed in a calm spell, and the fastest
corrected repeat of a request is a calm one whenever the run had one.
"""
from __future__ import annotations

import bisect
import signal
import time
from statistics import median

# The probe's duration when the machine is calm: the lowest decile of its
# durations on a shared 2-CPU Intel Xeon VM (Python 3.11.7). A probe at or
# below it means no slowdown.
REFERENCE_S = 2.3e-4
INTERVAL_S = 0.01  # one probe per 10 ms of wall time: about 2% of it
PAD_S = 0.1  # probes this close to a request also describe its speed
SPOT_PROBES = 40  # back-to-back probes in one spot measurement: about 10 ms


def probe_work() -> int:
    """The fixed work one probe does; returns a value so that none of it is skipped."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def spot_slowdown() -> float:
    """The machine's slowdown now: the median of back-to-back probes over ``REFERENCE_S``, at least 1."""
    durations = []
    for _ in range(SPOT_PROBES):
        t0 = time.perf_counter()
        probe_work()
        durations.append(time.perf_counter() - t0)
    return max(1.0, median(durations) / REFERENCE_S)


class SpeedProbe:
    """Runs ``probe_work`` every ``INTERVAL_S`` while active; records each probe's start and duration.

    Use as a context manager around the timed work. Signal handlers run
    between bytecodes of the main thread, so a probe never splits a numpy
    call; it waits for it to return.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def time_inside(self, start: float, end: float) -> float:
        """Seconds that probes started in [start, end) took; the request did not run then."""
        return sum(self._between(start, end))

    def slowdown(self, start: float, end: float) -> float:
        """The median probe duration in [start - PAD_S, end + PAD_S) over ``REFERENCE_S``, at least 1.

        A long numpy call holds the probes back, so the pad doubles until the
        window holds a probe. With no probe at all there is no sign of a
        slowdown, and it is 1.
        """
        if not self.durations:
            return 1.0
        pad = PAD_S
        durations = self._between(start - pad, end + pad)
        while not durations:
            pad *= 2.0
            durations = self._between(start - pad, end + pad)
        return max(1.0, median(durations) / REFERENCE_S)
