"""Host-speed calibration, so that task times compare across host states.

On a shared host the CPU this process gets changes speed, by up to a factor
of two, for seconds to minutes at a time.  The change shows in CPU time as
much as in wall time, so neither removes it.  A fixed kernel, owned by the
benchmark and independent of zollflow, runs right before and right after
each timed step.  Its time measures the host's current speed; a step's time
is scaled by ``REFERENCE_S`` over the mean of the two kernel times around it.
The result reads as the step's time on a host where the kernel takes
``REFERENCE_S`` seconds.  A change to zollflow moves the step and leaves the
kernel as it was, so speed-ups and slow-downs show in full.  Scaling is not
exact: over a twofold swing of the kernel on a 2-core VM, the benchmark's
task times, in blocks of 14 to 28 tasks, moved as the kernel's to a power
of about 0.8 to 0.9.

The kernel mixes the two kinds of work zollflow does: scalar float
arithmetic and function calls in the interpreter (the adaptive geodesic
integrator, root finding) and short numpy array updates in a Python loop
(the explicit flow).
"""

import math
import time

import numpy as np

# kernel seconds on the reference host, about its time on a 2-core cloud VM
# in its faster state; the unit of the scaled times
REFERENCE_S = 0.02
SCALAR_STEPS = 16000
VECTOR_STEPS = 800
VECTOR_NODES = 1024
REPEATS = 3


def _scalar(n):
    def rhs(s, p):
        return math.cos(s) * math.sin(p) + 0.5 * s, math.sin(s) - 0.25 * p

    s, p = 0.3, 0.1
    for _ in range(n):
        a, b = rhs(s, p)
        c, d = rhs(s + 1e-3 * a, p + 1e-3 * b)
        s, p = s + 5e-4 * (a + c), p + 5e-4 * (b + d)
    return s + p


def _vector(n):
    u = np.linspace(0.1, 1.0, VECTOR_NODES)
    lap = np.zeros_like(u)
    for _ in range(n):
        lap[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        u = u + 1e-6 * np.exp(-u) * lap
    return float(u.sum())


def kernel_s():
    """Seconds the kernel takes now: the median of a few short repeats,
    so that one interruption does not count."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _scalar(SCALAR_STEPS)
        _vector(VECTOR_STEPS)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


class Clock:
    """Gives the speed factor around each step.

    ``around(fn)`` returns (fn's result, REFERENCE_S over the mean kernel
    time before and after fn); a time measured inside fn, multiplied by the
    factor, is that time at the reference speed.  The kernel timed after
    one step is reused as the one before the next.
    """

    def __init__(self):
        self._last = None
        self.kernel_times = []

    def _kernel(self):
        k = kernel_s()
        self.kernel_times.append(k)
        return k

    def around(self, fn):
        before = self._last if self._last is not None else self._kernel()
        try:
            result = fn()
        finally:
            self._last = after = self._kernel()
        return result, REFERENCE_S / (0.5 * (before + after))
