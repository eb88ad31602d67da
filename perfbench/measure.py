"""Pure measurement arithmetic for the benchmark: percentiles, spans, work models.

Nothing here imports pfexpm or numpy, so the unit tests in perfbench/tests run
without the package and these formulas can be checked by hand.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# binary64 complex entry
COMPLEX_BYTES = 16


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil without floating point
    return ordered[rank - 1]


def samples_beyond(values, threshold: float) -> int:
    """How many samples lie strictly above threshold."""
    return sum(1 for v in values if v > threshold)


def min_samples(pct: int, beyond: int = 10) -> int:
    """Fewest samples for which the pct-th percentile has `beyond` samples above it."""
    if not 0 < pct < 100:
        raise ValueError(f"pct must be in (0, 100), got {pct}")
    return -(-beyond * 100 // (100 - pct))


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Span:
    """One timed region; parent is an index into the tracer's span list."""

    name: str
    request: int
    parent: int | None
    start: float
    end: float = math.nan
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """In-memory spans recorded around calls made by the benchmark itself."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, request: int = -1):
        parent = self._open[-1] if self._open else None
        s = Span(name, request, parent, self._clock())
        self.spans.append(s)
        if parent is not None:
            self.spans[parent].children.append(len(self.spans) - 1)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = self._clock()
            self._open.pop()

    def self_time(self, index: int) -> float:
        """Duration of a span minus the part of it that its child spans cover."""
        s = self.spans[index]
        children = [(self.spans[c].start, self.spans[c].end) for c in s.children]
        return s.duration - covered_length(s.start, s.end, children)

    def self_times(self, name: str) -> list[float]:
        return [self.self_time(i) for i, s in enumerate(self.spans) if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "request": s.request,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": self.self_time(i),
            }
            for i, s in enumerate(self.spans)
        ]


# Work models of the dense engine, computed from (d, n, rhs) alone.  rhs is the
# number of right-hand-side columns each pole pair solves: d for the full
# matrix (identity), 1 for a real vector, 2 for a complex vector (solves with
# A + theta I and its conjugate transpose).


def pair_flops(d: int, rhs: int) -> float:
    """Real flops of one pole pair: complex LU (8/3 d^3) + substitution (8 d^2 per column)."""
    return 8.0 * d**3 / 3.0 + 8.0 * d * d * rhs


def call_flops(d: int, n: int, rhs: int) -> float:
    """Real flops of one call: n/2 pair solves plus n/2 - 1 complex slot additions."""
    pairs = n // 2
    return pairs * pair_flops(d, rhs) + (pairs - 1) * 2.0 * d * rhs


def call_bytes(d: int, n: int, rhs: int) -> int:
    """Operand bytes of one call at one read or write per complex entry.

    Each pair writes its shifted matrix, factors it in place (read + write),
    reads its right-hand sides and writes its slot; the reduction reads every
    slot once and writes the result once.
    """
    pairs = n // 2
    per_pair = COMPLEX_BYTES * (3 * d * d + 2 * d * rhs)
    return pairs * per_pair + COMPLEX_BYTES * d * rhs * (pairs + 1)
