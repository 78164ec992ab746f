"""CPU speed calibration: times in seconds of a reference CPU at full speed.

A shared 2-CPU host changes speed under the benchmark: on the Xeon the
benchmark was written on, a fixed piece of Python code ran about 1.7x
slower for seconds at a time (probably a busy sibling hyperthread), and
the slow share drifted over minutes, so whole runs on the same inputs
spread by 10% to 25%.  No estimator over one run's own job times removes a
drift slower than the run.

So the benchmark times a fixed snippet, ``reference()``, which uses no
code of the program, while each job runs: every SAMPLE_EVERY_S of the
process's CPU time a SIGVTALRM handler times the snippet twice and keeps
the faster (an interrupt seldom hits both).  The samples are evenly spaced
in time, so the job's time multiplied by its mean sampled speed,
REFERENCE_S / sample, is the work it did in seconds of a CPU on which the
snippet takes REFERENCE_S.  The samples cost about 3% of each job's time,
the same share on every commit.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

# The snippet's time when the machine the benchmark was written on (2-CPU
# Intel Xeon, Python 3.11.7) ran at full speed; it only sets the scale.
REFERENCE_S = 1.0e-4
SAMPLE_EVERY_S = 0.01

# Fraction products summed into a dict, as poly and ratfunc do, and a gcd
# of integers of a few hundred digits, as in reductions that swell.
_P = [Fraction(3 * i - 7, i + 5) for i in range(6)]
_Q = [Fraction(i * i + 1, 2 * i + 3) for i in range(6)]
_X, _Y = 3 ** 400 + 1, 7 ** 300 + 2


def reference():
    out = {}
    for i, a in enumerate(_P):
        for j, b in enumerate(_Q):
            out[i + j] = out.get(i + j, 0) + a * b
    math.gcd(_X * _Y + 1, _Y * 5)
    return out


def sample() -> float:
    """Seconds of the faster of two back-to-back runs of ``reference()``."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Samples the speed of the CPU while a job runs.

    ``start()`` takes one sample and starts the timer; ``stop()`` stops it
    and returns the mean speed over the samples taken since.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum=None, frame=None):
        self.samples.append(sample())

    def start(self):
        self.samples = []
        self._tick()
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
