"""Host speed, sampled during a measured phase, to rescale its wall time.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes (a fixed pure-Python loop ran 8 ms in one
stretch and 11 ms in the next).  Raw wall times of the same code then
spread far more between runs than any change worth measuring.

`Meter` runs a fixed probe kernel (numpy and interpreter work of the
kinds the workloads do, and independent of drccp) every PERIOD seconds
of a measured phase, from a SIGALRM handler in the one benchmark thread.
Probe time is left out of the phase.  Each stretch between two probes is
rescaled by REF_PROBE_S over the host's probe time around it (the median
of the WINDOW - 1 probes nearest to it, which smooths the probe's own
jitter):

    adjusted = sum(stretch_wall * REF_PROBE_S / probe_around_stretch)

so `adjusted` is the wall time the phase would take on a host that runs
the probe in REF_PROBE_S.  The raw wall time is kept next to it.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.4          # s of measured work between probes
WINDOW = 9            # a stretch is scaled by the median of WINDOW - 1 probes
REF_PROBE_S = 0.008   # about the probe time on the reference host: 2-vCPU Xeon VM, 1 BLAS thread

_rng = np.random.Generator(np.random.Philox(key=20240801))
_SMALL = _rng.standard_normal((96, 96))
_DENSE = _rng.standard_normal((400, 400))
_DIST = _rng.uniform(0.0, 3.0, 2000)


def _pivots(A, steps, inner):
    """`steps` dense-simplex-like pivots on a copy of A: a matrix-vector
    product, an argmax, a rank-1 update and `inner` interpreter steps."""
    B, v, acc = A.copy(), A[0].copy(), 0.0
    for step in range(steps):
        y = B @ v
        j = int(np.argmax(np.abs(y)))
        B -= np.outer(B[:, j], y) * 1e-6
        for i in range(inner):
            acc += (i * j + step) % 7 * 0.5
        v[j] += 1.0
    return acc


def _sweeps(d, count):
    """`count` elementwise sweeps over the vector d, as `worst_case_prob`
    makes over a distance profile."""
    acc = 0.0
    for t in d[:count]:
        acc += float(np.mean(np.maximum(0.0, 1.0 - d / t)))
    return acc


def kernel() -> float:
    """Fixed work in three parts of about equal time on the reference host:
    many small pivots with interpreter work (as on the small LPs of
    grid-narrow), two pivots on a 400x400 matrix that leaves the first
    cache levels (as on the 553-row LPs of grid-wide), and sweeps over a
    2000-vector (as the certify-scale oracles make)."""
    return _pivots(_SMALL, 48, 40) + _pivots(_DENSE, 2, 0) + _sweeps(_DIST, 100)


def probe() -> float:
    """Time of one kernel run after a first one, so that the probe reads the
    host's speed and not how much of the kernel's data the workload evicted."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Meter:
    """Raw and speed-adjusted wall time of the phases between start() and
    stop().  Not re-entrant; one meter runs at a time."""

    def __init__(self, period: float | None = PERIOD):
        """period=None probes only at the start and the end of a phase."""
        self.period = period
        self.probes = []     # probe times, in order
        self.stretches = []  # (wall, index of the probe before it)
        self._mark = None

    def start(self):
        for _ in range(WINDOW // 2):
            self.probes.append(probe())
        self._next()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._close()
        for _ in range(WINDOW // 2):
            self.probes.append(probe())
        self._mark = None

    def _next(self):
        self.probes.append(probe())
        self._mark = time.perf_counter()
        if self.period is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def _close(self):
        self.stretches.append((time.perf_counter() - self._mark, len(self.probes) - 1))

    def _on_alarm(self, signum, frame):
        if self._mark is None:
            return
        self._close()
        self._next()

    def phase(self, first: int = 0):
        """(raw, adjusted) wall time of the stretches from index `first` on."""
        raw = adjusted = 0.0
        for wall, k in self.stretches[first:]:
            around = self.probes[max(0, k - WINDOW // 2 + 1):k + WINDOW // 2 + 1]
            raw += wall
            adjusted += wall * REF_PROBE_S / statistics.median(around)
        return raw, adjusted

    def measure(self, fn):
        """Run fn() as one phase; returns (result, raw_s, adjusted_s)."""
        first = len(self.stretches)
        self.start()
        try:
            out = fn()
        finally:
            self.stop()
        raw, adjusted = self.phase(first)
        return out, raw, adjusted
