"""Machine-speed probe: scales measured times to one reference speed.

The machines this benchmark runs on share their cores with other work, so
the same Python code runs at a speed that drifts by up to 1.6x within
minutes.  On a shared 2-vCPU Intel Xeon VM, raw wall times of identical
30-second runs spread by 15-30 % (quartile distance over median), more than
any useful regression bound.

The probe is a short fixed loop of mpmath arithmetic and elementary
functions at 192 bits, the kind of work every layer of the solver does.
While a job runs, an interval timer interrupts it every PERIOD_S seconds
and times one probe.  Each measured time then has the probe time taken out
(``work_clock``) and is multiplied by REFERENCE_S / (mean probe time while
it ran): it reads as seconds at the speed where one probe takes
REFERENCE_S.  On that VM this brings the spread of job times over ten
runs to about 2 %.  The probe costs about 2 % of a job's time.

The probe uses a private mpmath context, so it never touches the global
precision the interrupted solver code is using.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import mpmath

PERIOD_S = 0.1
# probe time at the reference speed: about its fastest tenth on a 2-vCPU
# Intel Xeon VM with the pure-python mpmath backend, so that scaled
# times read close to wall times on that machine at full speed
REFERENCE_S = 0.002
_ITERATIONS = 120


class SpeedProbe:
    """Probe samples and the probe time to leave out of measurements."""

    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.prec = 192
        self.samples = []        # duration of every probe, in order
        self.busy = 0.0          # total probe time
        self._running = False

    def _work(self):
        """Complex products and sums (the chi series, Newton) and real
        elementary functions (the period integrals)."""
        c = self.ctx
        z = c.mpc(1, 1) / 3
        w = c.mpc(2, -1) / 7
        s = c.mpc(0)
        for n in range(1, _ITERATIONS + 1):
            s += z * w
            z = z + s / n
        x = c.mpf(1) / 3
        for n in range(_ITERATIONS // 10):
            x = c.cosh(x) / (n + 7) + c.asinh(x)
        return s, x

    def probe(self):
        """Time one probe; re-entry from the timer is skipped."""
        if self._running:
            return
        self._running = True
        try:
            t0 = time.perf_counter()
            self._work()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.busy += dt
        finally:
            self._running = False

    def work_clock(self) -> float:
        """perf_counter with all probe time so far taken out."""
        return time.perf_counter() - self.busy

    @contextmanager
    def sampling(self):
        """Probe every PERIOD_S seconds inside the block, and once on each
        side of it, so even a short block has samples."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """REFERENCE_S over the mean probe time of the samples from `since`."""
        return REFERENCE_S / statistics.fmean(self.samples[since:])
