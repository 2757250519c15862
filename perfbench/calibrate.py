"""Machine-speed calibration.

On a shared machine the speed available to one process drifts by tens of
percent from minute to minute (other tenants contend for the same cores
and caches), and the drift hits every run of a workload differently. The
benchmark therefore interleaves short, fixed slices of reference work
with the jobs it times and rescales each measured interval to a nominal
speed: a time t measured while the reference slice took s on average is
reported as t * REF_SLICE_S / s. The reference work uses only the
standard library (Fraction convolutions and a Decimal series, the two
kinds of arithmetic the program spends its time in), so no change to the
program changes it.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left, bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from time import perf_counter

#: nominal duration of one reference slice: the "reference speed" that
#: the end-to-end timings are expressed in
REF_SLICE_S = 0.008

_rng = random.Random(5)
_SMALL = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 4))
          for _ in range(120)]
_TALL = [Fraction(_rng.randint(-2**80, 2**80), _rng.randint(1, 2**80))
         for _ in range(30)]


def reference_slice() -> None:
    """About 8 ms of fixed work: truncated Cauchy products of small and
    tall Fractions, then a 74-digit Decimal series."""
    for xs, rows in ((_SMALL, 12), (_TALL, 6)):
        out = [Fraction(0)] * len(xs)
        for i, a in enumerate(xs[:rows]):
            for j in range(len(xs) - i):
                out[i + j] += a * xs[j]
    with localcontext() as ctx:
        ctx.prec = 74
        x = Decimal(1) / Decimal(7)
        acc = Decimal(0)
        for i in range(1500):
            acc += x ** (i % 40) * (1 - x)


#: seconds between reference slices while jobs run
SLICE_INTERVAL_S = 0.2
#: slices that ran within this many seconds of an interval rescale it...
WINDOW_S = 0.5
#: ...but never fewer than the nearest LEAST_SLICES
LEAST_SLICES = 2


class Speedometer:
    """Collects reference-slice timings during a run and rescales measured
    intervals by the slices that ran near them."""

    def __init__(self):
        self.times = []             # end time of each slice
        self.slices = []            # duration of each slice

    def tick(self) -> None:
        t0 = perf_counter()
        reference_slice()
        t1 = perf_counter()
        self.times.append(t1)
        self.slices.append(t1 - t0)

    def maybe_tick(self) -> None:
        """Run a slice if none ran in the last SLICE_INTERVAL_S seconds."""
        if not self.times or \
                perf_counter() - self.times[-1] >= SLICE_INTERVAL_S:
            self.tick()

    def factor(self, start: float, end: float) -> float:
        """REF_SLICE_S over the mean duration of the slices that ran within
        WINDOW_S of [start, end], or of the LEAST_SLICES nearest ones."""
        while len(self.slices) < LEAST_SLICES:
            self.tick()
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if hi - lo >= LEAST_SLICES:
            near = self.slices[lo:hi]
        else:
            by_distance = sorted(range(len(self.times)), key=lambda i: max(
                start - self.times[i], self.times[i] - end, 0.0))
            near = [self.slices[i] for i in by_distance[:LEAST_SLICES]]
        return REF_SLICE_S / statistics.fmean(near)

    def rescale(self, intervals) -> list:
        """Durations of (start, end) intervals at reference speed."""
        return [(end - start) * self.factor(start, end)
                for start, end in intervals]
