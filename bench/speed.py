"""A speed probe that puts the benchmark's times on a fixed scale.

The host's speed drifts: a fixed pure-Python loop runs up to 1.5x slower
for stretches of seconds to minutes, because the vCPUs are shared.  Raw
times from two runs of the same code can therefore differ by more than any
change worth measuring.  The probe is a fixed piece of pure-Python graph
and bit-mask work that does not touch the library.  It runs right before
and right after every timed call, outside the clock, and the call's time is
rescaled by the mean of those two probe durations to the time it would
take on a host where one probe takes ``REFERENCE_S``.

On a 2-vCPU VM, raw per-call times of a fixed library call drifted by 14%
to 16% (quartile distance over median) between 15-s stretches; the scaled
ones by 1% to 3%.  A change to the library cannot speed up the probe, so a
gain in the library shows in full.  Only the untraced run uses it;
per-layer times stay raw.
"""

from __future__ import annotations

import random
import time

# The probe's duration on a 2-vCPU Xeon VM with Python 3.11 while the host
# ran fast; scaled times read close to raw times there.
REFERENCE_S = 0.0005

_N = 40
_RNG = random.Random(5)
_EDGES = tuple((u, v) for u in range(_N) for v in range(u + 1, _N) if _RNG.random() < 0.12)
_MASKS = tuple(sum(1 << w for e in _EDGES for w in e if v in e and w != v) for v in range(_N))


def probe_work() -> int:
    """Breadth-first searches, a greedy colouring and a greedy independent
    set on a fixed graph: the set, dict, list and bit-mask work the library
    does."""
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for u, v in _EDGES:
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for s in range(0, _N, 5):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in sorted(adj[u]):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    colour: dict[int, int] = {}
    for v in sorted(adj, key=lambda x: -len(adj[x])):
        used = {colour[w] for w in adj[v] if w in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    for start in range(_N):
        free, size = ((1 << _N) - 1) & ~(1 << start), 1
        free &= ~_MASKS[start]
        while free:
            low = free & -free
            free &= ~low & ~_MASKS[low.bit_length() - 1]
            size += 1
        total += size
    return total + max(colour.values())


class SpeedProbe:
    """Times calls raw and scaled.  An inactive probe never runs, and its
    scaled time is the raw time."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self._last = self._sample() if active else 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        probe_work()
        spent = time.perf_counter() - start
        self.samples.append(spent)
        return spent

    def timed(self, fn, *args):
        """``(result or exception, raw seconds, scaled seconds)`` of ``fn(*args)``.

        An exception is returned, not raised, so a failed call is timed too.
        """
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        raw = time.perf_counter() - start
        if not self.active:
            return result, raw, raw
        before, self._last = self._last, self._sample()
        return result, raw, raw * REFERENCE_S / ((before + self._last) / 2)
