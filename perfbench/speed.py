"""Machine-speed meter: scales wall times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a half, in phases lasting seconds to minutes. The guest cannot see it: CPU
time tracks wall time, and no steal time is reported. So the same round of
the same inputs takes 4.6 s in one phase and 7.0 s in the next.

While the meter runs, a timer signal every ``INTERVAL_S`` runs a fixed
pure-Python loop in the main thread, between two bytecodes of whatever is
running, and records how long the loop took. A span's scaled time is its wall
time, less the time spent in the meter, times the mean of
``REFERENCE_S / sample`` over the samples taken during the span and the one
on each side of it. It reads as seconds on a machine on which the loop takes
``REFERENCE_S``: a change to the program moves it as it moves wall time, and
a change in the host's speed moves it much less.
"""
from __future__ import annotations

import random
import signal
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.05
LOOP_ITERATIONS = 4000
ORIENT_ITERATIONS = 800
# The loop's typical time on a 2-core Xeon VM at 2.0 GHz under Python 3.11.7;
# it sets the scale of the reported times and nothing else.
REFERENCE_S = 0.0014


_rng = random.Random(0)
_COORDS = [(_rng.randrange(10**12), _rng.randrange(10**12)) for _ in range(64)]


def _orient(coords, i, j, k):
    (xi, yi), (xj, yj), (xk, yk) = coords[i], coords[j], coords[k]
    det = (xj - xi) * (yk - yi) - (yj - yi) * (xk - xi)
    return (det > 0) - (det < 0)


def calibration_loop() -> int:
    """What the program does most: small-integer arithmetic, list appends and
    dict stores, then exact orientation tests on 40-bit integer coordinates.

    Each half takes about the same time. On repeated operations of each
    workload, scaling by both halves together left less spread than either
    half alone on three of the four workloads.
    """
    acc, items, table = 0, [], {}
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        items.append(acc)
        table[i & 63] = acc
    coords = _COORDS
    for i in range(ORIENT_ITERATIONS):
        acc += _orient(coords, i & 63, (i + 1) & 63, (i + 5) & 63)
    return acc + len(items) + len(table)


@dataclass(frozen=True)
class Mark:
    start: float
    paused: float
    sample: int


@dataclass(frozen=True)
class Span:
    wall_s: float  # wall time less the time spent in the meter
    first: int  # index of the first sample taken after the span began
    end: int  # index one past the last sample taken before it ended


class SpeedMeter:
    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.paused = 0.0  # total seconds spent in the handler
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        calibration_loop()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.paused += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(signal.SIGALRM, None)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def mark(self) -> Mark:
        return Mark(perf_counter(), self.paused, len(self.samples))

    def span(self, mark: Mark) -> Span:
        wall = perf_counter() - mark.start - (self.paused - mark.paused)
        return Span(wall, mark.sample, len(self.samples))

    def scaled(self, span: Span) -> float:
        """The span's time at the reference speed; call once the meter has stopped."""
        window = self.samples[max(span.first - 1, 0):span.end + 1]
        return span.wall_s * sum(REFERENCE_S / s for s in window) / len(window)

    def factor(self) -> float:
        """Mean reference-to-measured speed over every sample so far."""
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
