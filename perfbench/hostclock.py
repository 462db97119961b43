"""A clock that reads in reference seconds, and the host counters beside it.

The benchmark's host shares its cores: the same pure-Python work runs at
two speeds, about 2x apart, switching within seconds, while CPU time and
steal ticks barely move.  Wall time alone therefore cannot tell slower code
from a busier host.  HostClock samples the host's speed every INTERVAL_S
by timing a fixed calibration kernel from a SIGALRM handler (in the main
thread, so the run stays one thread), and integrates elapsed wall time
weighted by REF_KERNEL_S / kernel time.  One reference second is the time
in which the kernel would run 1 / REF_KERNEL_S times.  REF_KERNEL_S is about
the fastest the kernel ran on the host the README describes, so there a
time in reference seconds reads at most its wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# About the fastest kernel time seen on the README's host (median 190 µs).
REF_KERNEL_S = 1.0e-4

_A, _B = Fraction(3, 7), Fraction(5, 11)


def _kernel():
    # Fraction arithmetic and tuple hashing, the program's own mix of work.
    s = _A
    seen = {}
    for i in range(16):
        s = s * _B + _A
        seen[(i, s)] = i
    return len(seen)


class HostClock:
    """Reference-second clock; start() arms the sampler, stop() disarms it."""

    def __init__(self):
        self._state = None  # (wall at last sample, reference time then, speed)
        self.samples = []

    def _measure(self):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t1, REF_KERNEL_S / (t1 - t0)

    def _on_alarm(self, signum, frame):
        last_t, last_ref, last_speed = self._state
        t, speed = self._measure()
        # Trapezoid: the speed moved from the previous sample to this one.
        self._state = (t, last_ref + (t - last_t) * 0.5 * (last_speed + speed), speed)

    def start(self):
        t, speed = self._measure()
        self._state = (t, 0.0, speed)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self):
        """Reference seconds since start()."""
        last_t, last_ref, speed = self._state  # one read: the handler swaps it whole
        return last_ref + (time.perf_counter() - last_t) * speed

    def speed_summary(self):
        speeds = [REF_KERNEL_S / d for d in self.samples]
        q = statistics.quantiles(speeds, n=10) if len(speeds) > 1 else speeds * 9
        return {"samples": len(speeds), "median": statistics.median(speeds),
                "p10": q[0], "p90": q[-1]}


def steal_ticks():
    """Host steal ticks of all CPUs from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
