"""The machine's speed, sampled while a round runs.

The shared host this benchmark was built on changes speed all the time,
by up to a factor of two within minutes and noticeably within seconds,
with a process's CPU time equal to its wall time: the same code simply
runs slower.  A round's raw
wall time carries that drift.  ``Speedometer`` measures it: every
``INTERVAL_S`` seconds of a round a ``SIGALRM`` handler runs ``kernel``, a
fixed pure-Python permutation closure that belongs to the benchmark and
not to the program, and records how long it took.  The handler runs in the
round's own thread between two bytecodes, so no thread or process is
added, and its time is taken out of the round's wall time.

``norm_wall_s`` rescales each stretch of the round between two kernel
passes by the speed they measured: a stretch of ``d`` seconds bounded by
passes that took ``c`` seconds on average counts as ``d * KERNEL_REF_S /
c``, the time it would have taken on a machine where one kernel pass takes
``KERNEL_REF_S``.  The speed moves within seconds, so the passes next to a
stretch judge it better than a median over a longer time does.  A change to
the program moves it as it moves wall time; a change of machine speed
moves both the stretch and the kernel, and cancels.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.25
# A round figure within the 15-30 ms one kernel pass took on the reference
# machine (bench/README.md); it sets the scale of norm_wall_s.
KERNEL_REF_S = 0.02
PASSES = 30

_POINTS = 13
_GENERATORS = tuple(tuple((a * x + b) % _POINTS for x in range(_POINTS))
                    for a, b in ((2, 1), (3, 0), (1, 5)))


def kernel(passes=PASSES):
    """Close the affine group of Z/13 under composition ``passes`` times.

    Tuples, a set and a dict, as in the program's permutation groups;
    everything it allocates is freed by reference counting."""
    size = 0
    for _ in range(passes):
        identity = tuple(range(_POINTS))
        seen = {identity: 0}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for h in _GENERATORS:
                    gh = tuple(h[i] for i in g)
                    if gh not in seen:
                        seen[gh] = len(seen)
                        nxt.append(gh)
            frontier = nxt
        size += len(seen)
    return size


def timed_kernel():
    """Seconds of one kernel pass, with the garbage collector held off so
    that a collection of the program's objects is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel timings at a fixed interval while a round runs."""

    def __init__(self):
        self.samples = []       # (perf_counter at start, kernel seconds)
        self.start = self.stop = None

    def _tick(self, signum, frame):
        at = time.perf_counter()
        self.samples.append((at, timed_kernel()))

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.stop = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def kernel_s(self):
        """Kernel time spent inside the round."""
        return sum(took for at, took in self.samples[1:-1])

    def wall_s(self):
        """Wall time of the round without the kernel passes in it."""
        return self.stop - self.start - self.kernel_s()

    def norm_wall_s(self):
        """Wall time rescaled, stretch by stretch, to the reference speed."""
        inner = self.samples[1:-1]
        begins = [self.start] + [at + took for at, took in inner]
        ends = [at for at, _ in inner] + [self.stop]
        times = [took for _, took in self.samples]
        # passes j and j + 1 bound stretch j
        return sum((end - begin) * KERNEL_REF_S / ((c0 + c1) / 2)
                   for begin, end, c0, c1 in zip(begins, ends, times,
                                                 times[1:]))
