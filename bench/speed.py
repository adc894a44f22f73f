"""Machine-speed reference that the benchmark's times are normalized by.

On a small shared host the speed of pure Python code drifts, by up to
about 1.75x, over spans from a fraction of a second to minutes, and
process CPU time drifts with it. So the benchmark interleaves short slices
of a fixed reference computation with the library calls it times, and
scales each stretch of timed work by how fast the reference ran around it:

    normalized = raw * REF_S / (median of the nearest reference slices)

A normalized time is the time the work would take on a machine on which
one reference slice takes ``REF_S``. The reference touches nothing of the
library and draws from no shared random stream, so a change to the library
moves normalized times exactly as it moves raw ones at a steady speed.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# nominal duration of one reference slice; about its median on the
# 2-CPU Xeon host the bounds were set on
REF_S = 0.006
# rounds of the compute part and steps of the memory part of a slice
COMPUTE_ROUNDS = 770
CHASE_STEPS = 3360
# reference slices on each side of a stretch of work that set its speed
NEAREST = 3

# the memory part's working set, about 20 MB: a shuffled list of 300 000
# indices walked as a chain, and a dict read at every step
_CHAIN = list(range(300_000))
random.Random(3).shuffle(_CHAIN)
_TABLE = {i: (i * 7) % 1000 for i in range(100_000)}


def reference_work() -> int:
    """Fixed pure-Python work in two parts of about equal time.

    The compute part is the library's mix of operations in cache:
    big-integer arithmetic, tuple hashing, dict updates and list shuffles
    by a private linear congruential generator. The memory part walks a
    chain through a list and a dict larger than a core's caches. When the
    host's speed drifts, the compute part alone swings about 1.4x as far
    as the library's code and the memory part about 0.75x as far;
    together, at about equal time, they swing as far (slope 0.97-1.02 of
    log call time on log slice time, on ``two_request_bulk`` and
    ``location_lp``).
    """
    state = 12345
    table: dict = {}
    acc = 0
    for i in range(COMPUTE_ROUNDS):
        perm = list(range(8))
        for j in range(7, 0, -1):
            state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
            k = (state >> 33) % (j + 1)
            perm[j], perm[k] = perm[k], perm[j]
        key = tuple(perm)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + hash(key) + (1 << (i % 97))) % ((1 << 127) - 1)
    chain, lookup = _CHAIN, _TABLE.get
    j = 1
    for _ in range(CHASE_STEPS):
        j = chain[j]
        acc += lookup(j % 100_000, 0)
    return acc + len(table)


class Speed:
    """Reference slices of one run, as (start, end) perf_counter stamps."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []

    def measure(self) -> None:
        start = perf_counter()
        reference_work()
        self.slices.append((start, perf_counter()))

    @contextmanager
    def during(self, interval: float):
        """Measure a slice every ``interval`` seconds inside the block, from
        a timer signal handled on the main thread between bytecodes; for
        library calls too long to be timed between. No slices when
        ``interval`` is 0."""
        if not interval:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.measure())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median of the NEAREST slices before ``start`` and
        the NEAREST after ``end``."""
        ends = [e for _, e in self.slices]
        lo = bisect.bisect_right(ends, start)
        hi = bisect.bisect_left([s for s, _ in self.slices], end)
        near = self.slices[max(0, lo - NEAREST):lo] + self.slices[hi:hi + NEAREST]
        if not near:
            return 1.0
        return REF_S / statistics.median(e - s for s, e in near)

    def normalize(self, start: float, end: float) -> tuple[float, float]:
        """(raw, normalized) seconds of work in [start, end], leaving out
        the reference slices measured inside it."""
        cuts = [start] + [t for s, e in self.slices if start < s and e < end for t in (s, e)]
        cuts.append(end)
        raw = normalized = 0.0
        for a, b in zip(cuts[::2], cuts[1::2]):
            raw += b - a
            normalized += (b - a) * self.factor(a, b)
        return raw, normalized
