"""Timing in reference seconds, so that a shared host's drift cancels out.

The benchmark's hosts are shared, and their speed for pure-Python work swings
by up to 2x within seconds. A `Sampler` installed in a worker interpreter
runs a short slice of fixed reference work every `PERIOD_S` seconds of wall
time, from a SIGALRM handler, so the slices sample the host's speed at the
same moments as the program runs. An interval of the program is then
reported as its wall time minus the slices that ran inside it, multiplied by
`REFERENCE_SLICE_S / slice`, where `slice` is the median slice time within
`NEAR_S` of the interval: seconds on a host where one slice takes
`REFERENCE_SLICE_S`.

The reference work is fixed: no change to reltt can move it. It never
recurses, and the handler swallows its own errors, so a slice cannot change
what the program computes.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

# A round figure near the median slice on the machine of perfbench/DESIGN.md
# (0.8 to 1.4 ms), so that reference seconds stay close to wall seconds there.
REFERENCE_SLICE_S = 0.001
PERIOD_S = 0.05
NEAR_S = 0.25


@dataclass(frozen=True)
class _Node:
    tag: str
    left: object
    index: int


def _reference_slice() -> int:
    """Allocation, pattern matching and dict work of a fixed size."""
    env = {}
    t = None
    for i in range(300):
        t = _Node("app" if i % 3 else "lam", t, i)
        match t:
            case _Node("lam", _, k):
                env[k] = t
            case _Node(_, _Node("lam", _, _), k):
                env.pop(k - 1, None)
    total = 0
    while t is not None:
        match t:
            case _Node(_, left, k):
                total += k
                t = left
    return total + len(env)


class Sampler:
    """Samples the host's speed from a timer while the program runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        try:
            _reference_slice()
        except BaseException:  # never let a slice disturb the program
            return
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end) of the program, in reference seconds."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - NEAR_S <= t < end + NEAR_S]
        if not near:
            near = [d for _, d in self.samples]
        return (end - start - inside) * REFERENCE_SLICE_S / statistics.median(near)
