"""Host-speed probe: a small fixed piece of work timed every 0.1 s inside
a pass, so that a pass's time can be put on a fixed speed scale.

The benchmark's 2-core VM shares its host: each vCPU's speed swings by up
to 1.6x with a correlation time of about a second, independently of the
other vCPU, and drifts by ±25% over minutes.  Raw pass times of the same
code therefore spread by 12-17% (coefficient of variation).  The probe
samples the speed of the pass's own vCPU while the pass runs; scaling the
pass's time by ``REFERENCE_PROBE_S / mean probe time`` cuts that spread to
2-3%.

Each probe runs in a ``SIGALRM`` handler on the main thread with the cyclic
garbage collector off, so a collection over the program's heap is never
charged to the probe, and it is timed in the thread's CPU time, so a wait
for the GIL is not either.  The probes take about 2% of a pass.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# Seconds of CPU one probe takes at the reference speed; times scaled by
# the probe read as seconds at that speed.
REFERENCE_PROBE_S = 0.002


def probe_work() -> Fraction:
    """Fixed work of the kind the program's hot loops do: small-tuple keys,
    dict updates and ``Fraction`` arithmetic."""
    counts = {}
    acc = Fraction(0)
    for i in range(1, 400):
        key = (i % 7, i % 11, i & 3)
        counts[key] = counts.get(key, 0) + i
        acc += Fraction(i % 17 + 1, i % 23 + 1)
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def _probe(self, signum=None, frame=None):
        if self._busy:  # a tick that arrives while a probe runs is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - t0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass shorter than one period still gets a sample
            self._probe()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)
