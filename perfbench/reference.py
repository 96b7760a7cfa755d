"""Reference work that tracks the host's speed.

The benchmark runs on a shared host whose speed for one process swings
by up to a factor of two over seconds to minutes, as other tenants load
the cores the process shares.  Process CPU time follows wall time, so it
does not remove the swing.  While a workload process runs its
operations, a timer therefore interrupts it every PROBE_EVERY_S seconds
to time a fixed piece of pure-Python work that runs no hallmark code,
and each operation's time is scaled by

    REFERENCE_S / mean(reference times during the operation and
                       within WINDOW_S of its start and end)

after the reference time spent inside it is taken off.  Long operations
are sampled while they run, not only at their ends.  A change to
hallmark cannot move the reference, so the scaled times move with
hallmark and not with the host.  The raw times are kept in every record
next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

# Nominal seconds of one reference_work() call: scaled times are the
# seconds the operation would take on a host that runs the reference in
# exactly this long.  A fixed constant, never measured at run time.
REFERENCE_S = 0.012
# Wall-clock period of the timer that runs the reference.
PROBE_EVERY_S = 0.125
# Reference samples this close to an operation's start or end scale it.
WINDOW_S = 0.25


def reference_work() -> int:
    """Close a fixed group of degree 12 breadth-first up to 2000
    elements, then square a packed polynomial over F_31 five times: the
    tuple, set, byte-packing and big-integer operations that hallmark's
    pure kernel and its table arithmetic (gf, modp) spend their time on.
    Contention slows these two kinds of work by different factors, so
    the reference holds both."""
    n = 12
    gens = (tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n)))
    identity = tuple(range(n))
    seen = {identity}
    queue = [identity]
    for g in queue:  # breadth-first: the queue grows while it is read
        for s in gens:
            h = tuple([s[x] for x in g])
            if h not in seen and len(seen) < 2000:
                seen.add(h)
                queue.append(h)
    p, k = 31, 400
    coeffs = [(len(seen) + 7 * i * i) % p for i in range(k)]
    for _ in range(5):
        packed = int.from_bytes(b"".join(c.to_bytes(8, "little") for c in coeffs), "little")
        square = (packed * packed).to_bytes((2 * k - 1) * 8, "little")
        full = [int.from_bytes(square[8 * i:8 * i + 8], "little") % p for i in range(2 * k - 1)]
        coeffs = [(full[i] + full[i + k - 1] + 1) % p for i in range(k)]
    return sum(coeffs)


class SpeedProbe:
    """Reference samples of one process: (midpoint, seconds) pairs on
    the time.perf_counter() clock.

    Inside `with probe:` a SIGALRM timer runs sample() every
    PROBE_EVERY_S seconds.  Python runs the handler in the main thread
    between two bytecodes of whatever is running, so the sample's time
    lies wholly inside the interrupted operation; inside() gives it back.
    """

    def __init__(self):
        self.samples = []
        self._sampling = False
        self._previous = None

    def sample(self) -> float:
        """Run the reference once; return its time."""
        if self._sampling:  # a tick that arrives during a sample
            return 0.0
        self._sampling = True
        try:
            started = time.perf_counter()
            reference_work()
            ended = time.perf_counter()
        finally:
            self._sampling = False
        self.samples.append(((started + ended) / 2, ended - started))
        return ended - started

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def inside(self, start: float, end: float) -> float:
        """Reference seconds spent between `start` and `end`."""
        return sum(s for t, s in self.samples if start <= t <= end)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reference time near [start, end].

        The mean, not the median: an operation's time grows with the
        host's slowdown averaged over its run, and the host flips
        between a fast and a slow state, where a median jumps."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near or [s for _, s in self.samples])
