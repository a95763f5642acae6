"""Host-speed sampling: scale an operation's time to a fixed host speed.

This host runs in fast and slow phases, from under a second to minutes
long, and in a slow phase the process itself runs slower (its CPU time
tracks its wall time).  A reference timed before or after an operation
misses the phases inside it.  So ``Sampler`` interrupts the operation
every ``INTERVAL_S`` seconds (``SIGALRM``) and times one short ``probe``
in the same thread; the operation's own time, without the probes, is
scaled by ``REF_S`` over the probes' mean.  The probe is the same code in
every checkout and calls nothing from ``minkaehler``, so a change to the
program moves the scaled time exactly as it moves the raw one.

The probe does what the program's hot path does: small 4 x 4 solves and a
Horner sweep over a short complex array, driven from Python.  Signal
handlers run between bytecodes, so a probe never interrupts a numpy call
and leaves the program's state alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.00035  # nominal probe time; scaled times are at this host speed
INTERVAL_S = 0.025  # between probes: about 1.5% of the operation's time

_rng = np.random.default_rng(0)
_MATS = _rng.standard_normal((20, 4, 4)) + 4.0 * np.eye(4)
_RHS = _rng.standard_normal((20, 4, 4))
_COEFFS = _rng.standard_normal((36, 33)) + 0j


def probe() -> float:
    """Time one fixed reference computation of about 0.35 ms."""
    t0 = time.perf_counter()
    for a, b in zip(_MATS, _RHS):
        np.linalg.solve(a, b)
    acc = _COEFFS[:, -1][:, None]
    for k in range(31, -1, -1):
        acc = acc * 0.3 + _COEFFS[:, k][:, None]
    return time.perf_counter() - t0


class Sampler:
    """Times one probe every ``INTERVAL_S`` seconds while it is entered.

    After the block, ``raw_s`` is its wall time without the probes and
    ``scaled_s`` that time at the host speed where a probe takes ``REF_S``.
    """

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(probe()))
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.samples)
        self.raw_s = wall - inside
        # a block shorter than one interval gets one probe after it
        self.probe_s = inside / len(self.samples) if self.samples else probe()
        self.scaled_s = self.raw_s * REF_S / self.probe_s
        return False
