"""The machine's current speed, from a fixed pure-Python reference loop.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU x86-64
VM with Python 3.11, one fixed loop took between 0.12 and 0.22 s within 40
s, and its ten-second medians moved by 29% over a few minutes.  Process CPU
time spread as much as wall time (the slowdown comes from the host's other
load, not from descheduling), so no run length averages it out.  Over ten
fresh-interpreter passes of each workload, the raw pass times spread by
13-24% (quartile distance over median) and pass time over the median time
of this loop, run during the pass, by 5-11%.

So every time the benchmark reports is a raw time scaled to the reference
speed: ``raw * REF_S / ref``, where ``ref`` is the median time of the
reference chunks run next to it.  The loop imports nothing from braidkit, so
no change to the library moves it.  Never change the loop or ``REF_S``
without measuring the parent again: the scaled figures are comparable only
between runs of the same loop.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds that one reference chunk takes at reference speed (it took
# 3.2-10 ms on the host described above).
REF_S = 0.005


def _chunk() -> int:
    # Integer arithmetic, then tuples hashed into a dict and sorted: equal
    # parts of the interpreter work braidkit does, in a fixed amount.  Of the
    # loops tried, this mix tracked the ops of all four workloads best;
    # creating small frozen objects swung twice as much as the ops did.
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    seen: dict = {}
    for i in range(2_400):
        key = (i % 97, i % 89, i & 255)
        seen[key] = seen.get(key, 0) + 1
    return acc + len(sorted(seen.items()))


def reference_chunk() -> float:
    """Seconds that one reference chunk takes right now."""
    t0 = time.perf_counter()
    _chunk()
    return time.perf_counter() - t0


def scale(ref_times: list[float]) -> float:
    """Factor that turns raw seconds measured next to ``ref_times`` into reference seconds."""
    return REF_S / statistics.median(ref_times)


class Sampler:
    """Runs a reference chunk every ``every`` seconds, from a SIGALRM handler.

    The handler interrupts whatever op is running, between two bytecodes, so
    an op of several seconds is sampled along its whole length.  ``now()``
    is a clock that stops while a chunk runs: intervals read from it (op
    latencies, trace spans) exclude the chunks.
    """

    def __init__(self, every: float):
        self.every = every
        self.paused = 0.0
        self.at: list[float] = []  # on the now() clock
        self.took: list[float] = []
        self.sampling = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, *_signal) -> None:
        if self.sampling:  # a tick that arrived while a chunk ran
            return
        self.sampling = True
        t0 = time.perf_counter()
        took = reference_chunk()
        self.at.append(t0 - self.paused)
        self.took.append(took)
        self.paused += time.perf_counter() - t0
        self.sampling = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float, nearest: int) -> float:
        """Scale for the interval [t0, t1] of ``now()``: the chunks inside it,
        or the ``nearest`` chunks to its middle if fewer ran inside."""
        inside = [d for a, d in zip(self.at, self.took) if t0 <= a <= t1]
        if len(inside) < nearest:
            mid = (t0 + t1) / 2
            order = sorted(range(len(self.at)), key=lambda j: abs(self.at[j] - mid))
            inside = [self.took[j] for j in order[:nearest]]
        return scale(inside)
