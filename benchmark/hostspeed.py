"""Host speed sampling, so that timings can be read at one reference speed.

The shared host this benchmark was built on runs the same code up to twice
as slow for seconds at a time, so raw timings of identical work differ by
10-30 % between runs.  :class:`HostSpeed` runs a fixed calibration kernel
from an interval timer every ``INTERVAL`` seconds while operations run.  The
kernel is benchmark code only: small numpy calls and small allocations, the
mix that tracked both sub-millisecond workloads best.  Operations are timed
with :meth:`HostSpeed.clock`, which leaves out the sampler's own time, and
each block of operations is scaled by ``REFERENCE_KERNEL_S / median kernel
time during the block``.  The program never runs inside the kernel.  With a
fixed amount of work added to the program, the scaled and the raw medians
moved alike, both within the noise of five runs of the true change
(benchmark/README.md).

Set-up, which includes the import of homeplan and so of numpy, is sampled
with :func:`python_kernel_seconds`, a kernel that needs no numpy.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from contextlib import contextmanager
from statistics import median
from time import perf_counter

INTERVAL = 0.01
# Median kernel times on the reference host (2-CPU Xeon VM) in a quiet spell;
# scaled figures read as times on that host at that speed.  The Python
# kernel's reference is the numpy kernel's times its measured ratio, 0.665.
REFERENCE_KERNEL_S = 48e-6
REFERENCE_PYTHON_KERNEL_S = 32e-6

_VALUES = [0.1, 0.4, 0.2, 0.2, 0.1]
# numpy is loaded by the first HostSpeed that samples kernel_seconds, so that
# set-up can sample the import of numpy itself.
np = _ROW = None


def kernel_seconds() -> float:
    """Time one pass of the fixed calibration kernel: small numpy calls and allocations."""
    t0 = perf_counter()
    for _ in range(10):
        np.argsort(-_ROW, kind="stable")
    [dict(a=i, b=str(i)) for i in range(150)]
    return perf_counter() - t0


def python_kernel_seconds() -> float:
    """The same kernel without numpy: small sorts and allocations."""
    t0 = perf_counter()
    for _ in range(10):
        sorted(_VALUES, reverse=True)
    [dict(a=i, b=str(i)) for i in range(150)]
    return perf_counter() - t0


class HostSpeed:
    """Interval-timer sampler of a kernel for one recorder at a time."""

    def __init__(self, kernel=kernel_seconds, interval: float = INTERVAL):
        global np, _ROW
        if kernel is kernel_seconds and np is None:
            import numpy
            np, _ROW = numpy, numpy.array(_VALUES)
        self.kernel = kernel
        self.interval = interval
        self.stolen = 0.0
        self._rec = None

    def clock(self) -> float:
        """perf_counter() minus the time spent in the sampler so far."""
        return perf_counter() - self.stolen

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.kernel()  # refill caches the program evicted; time the second pass
        seconds = self.kernel()
        if self._rec is not None:
            self._rec.cal.append((len(self._rec.op_seconds), seconds))
        self.stolen += perf_counter() - t0

    @contextmanager
    def sampling(self, rec):
        """Sample into ``rec`` (and time its operations with :meth:`clock`) inside the block."""
        self._rec = rec
        rec.clock = self.clock
        self._sample(None, None)  # every phase gets at least one sample
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._rec = None


def speed_factor(cal: list[tuple[int, float]], first: int = 0, end: int | None = None,
                 reference: float = REFERENCE_KERNEL_S) -> float:
    """``reference`` over the median kernel time sampled during ops ``first..end``.

    A sample taken while op ``k`` ran (or just before it) carries index ``k``.
    Falls back to every sample when none fell in the range.
    """
    indices = [i for i, _ in cal]
    lo = bisect_left(indices, first)
    hi = len(cal) if end is None else bisect_left(indices, end)
    window = [s for _, s in cal[lo:hi]] or [s for _, s in cal]
    return reference / median(window)
