"""How fast the CPU running this process is, measured beside the program.

A virtual machine on a shared host runs at a speed that is not its own: on
a 2-vCPU KVM guest of a shared Xeon host the same `scan-ep` operation took
from 7 to 13 s within minutes, in level shifts that last seconds to minutes,
so raw wall times of runs a minute apart spread past any usable bound.  A fixed
small scipy integration, timed on the same process while the operation
runs, slows down with it.  The benchmark divides each time by the probe's
time, so the figures it reports are seconds at one reference speed.

`probe` times one integration of a fixed 2x2 complex linear ODE, the kind
of solve the program spends its time in.  A `Sampler` takes one on each
SIGALRM tick while the main thread runs the program, so each sample starts
from the caches the program left.  Over 29 `scan-ep` operations on that
guest, dividing by this probe cut the spread of the times (coefficient of
variation) from 6.4 % to 3.7 %; a probe timed after a warm-up call reacted
about twice as strongly as the program to the host's speed shifts.
"""

import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# Seconds one probe takes at the reference speed.  Times are reported as
# measured * REFERENCE_PROBE_S / probe time.
REFERENCE_PROBE_S = 2e-3
PERIOD_S = 0.1  # a Sampler tick; the probe takes about 2 % of the run

_A = np.array([[0.0, 1.0], [-1.0, -0.01]], dtype=complex)
_Y0 = np.array([1.0, 0.0], dtype=complex)


def _rhs(t, y):
    return (_A @ y) * np.cos(t)


def probe() -> float:
    """Seconds one fixed integration takes now."""
    t0 = time.perf_counter()
    solve_ivp(_rhs, (0.0, 2.0), _Y0, rtol=1e-8, atol=1e-10)
    return time.perf_counter() - t0


def rescale(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took `probe_s`, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


class Sampler:
    """Probes on a wall-clock timer while the main thread does other work.

    `busy_s` is the wall time spent inside the probes, which the caller
    subtracts from the time it measures.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def median(self) -> float:
        """Median sample; one probe taken now when no tick came (a short operation)."""
        return statistics.median(self.samples) if self.samples else probe()
