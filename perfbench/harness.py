"""Measurement primitives for the cpgsnn benchmark.

Everything here is independent of the package under test: a closed-loop op
runner, percentiles that refuse to report a tail they have too few samples
for, and an in-memory span tracer with self-time accounting.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make the figure a statement about one or two outliers.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than its tail rule needs."""


class CheckFailed(Exception):
    """An op produced output that failed a correctness check."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly after the interpolation point of quantile q."""
    return n - 1 - math.floor(q * (n - 1))


def min_samples_for(q: float) -> int:
    """Smallest sample count whose q-quantile has MIN_TAIL samples beyond."""
    n = MIN_TAIL + 1
    while samples_beyond(n, q) < MIN_TAIL:
        n += 1
    return n


def tail_percentile(samples, q: float) -> float:
    """Linearly interpolated q-quantile (numpy's default method).

    Raises TooFewSamples unless MIN_TAIL samples lie beyond the point.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0 or samples_beyond(n, q) < MIN_TAIL:
        raise TooFewSamples(
            f"p{100 * q:g} needs {min_samples_for(q)} samples, got {n}"
        )
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- closed-loop runner -------------------------------------------------------


@dataclass
class LoopResult:
    """Latencies (ms) per op kind, plus counts over every attempted op."""

    latencies_ms: dict = field(default_factory=dict)
    items: dict = field(default_factory=dict)  # items per op, by kind
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def run_closed_loop(op, seconds: float, primary: str, min_ops: int,
                    max_seconds: float, max_ops: int | None = None,
                    clock=time.perf_counter) -> LoopResult:
    """Call op(i) back to back, each call starting when the last one ends.

    op returns (kind, items) and raises on failure.  Once `seconds` have
    passed, the loop stops when `min_ops` ops of the primary kind have
    succeeded or when failures outnumber them; it also stops after `max_ops`
    ops or at `max_seconds`.  A failed op counts as attempted; its latency
    is not recorded.
    """
    res = LoopResult()
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        done = len(res.latencies_ms.get(primary, ()))
        if elapsed >= max_seconds or res.attempted == max_ops:
            break
        if elapsed >= seconds and (done >= min_ops or res.failed > done):
            break
        res.attempted += 1
        t0 = clock()
        try:
            kind, items = op(i)
        except Exception as exc:  # an op failure is data, not a crash
            res.failed += 1
            res.failures.append(
                f"op {i}: {type(exc).__name__}: {exc}\n"
                + traceback.format_exc(limit=4)
            )
        else:
            res.latencies_ms.setdefault(kind, []).append(
                1000.0 * (clock() - t0))
            res.items[kind] = items
        i += 1
    return res


def median(samples) -> float:
    return float(statistics.median(samples))


# -- tracing ------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    op_id: int | None


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append((name, self.clock(), parent, self.op_id))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while {top} is open")
        name, start, parent, op_id = self.spans[idx]
        self.spans[idx] = Span(name, start, end, parent, op_id)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result) runs once the span has closed."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out)
            return out

        return traced

    def wrap_iter(self, name: str, fn):
        """A generator function whose every next() is its own span."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another; the covered part is the length of the
    union of their intervals, clipped to the parent's interval.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out
