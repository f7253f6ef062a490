"""In-memory spans around calls into hllrt's layers.

The benchmark records spans from its own files only: it wraps the
public functions it calls (an oracle's insert, a sketch's estimate, a
detector's check) and opens coarse spans (one attack, one phase, one
window) around them. Nothing inside the library is patched.

Every span and every wrapped call pushes a child-time accumulator on
one shared stack, so a span's self time is its duration minus the part
covered by the calls and spans it contains. Coarse spans are kept one
record each; wrapped calls, which run hundreds of thousands of times per
attack, are kept as per-name duration arrays. ``write`` dumps the spans
and per-call summaries as JSON when the run ends.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter_ns


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of ``values``, inclusive method."""
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    cuts = statistics.quantiles(data, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class CallStats:
    """Durations and self times of every call made through one wrapper."""

    __slots__ = ("durations", "self_ns")

    def __init__(self) -> None:
        self.durations = array("q")
        self.self_ns = 0

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total_ns(self) -> int:
        return sum(self.durations)

    def summary(self) -> dict:
        n = self.count
        return {
            "count": n,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "p50_ns": percentile(self.durations, 0.5) if n else 0,
            "p90_ns": percentile(self.durations, 0.9) if n else 0,
        }


class Tracer:
    """Spans and per-call statistics of one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, CallStats] = {}
        self.counts: dict[str, int] = {}
        # stack[0] is the root accumulator; each open span or call adds one.
        self._stack: list[list[int]] = [[0]]
        self._open: list[dict] = []

    # -- coarse spans ------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        record = {
            "id": len(self.spans) + 1,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start_ns": perf_counter_ns(),
            "end_ns": None,
            "self_ns": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record)
        self._stack.append([0])
        return record

    def close(self) -> dict:
        end = perf_counter_ns()
        record = self._open.pop()
        child = self._stack.pop()[0]
        duration = end - record["start_ns"]
        record["end_ns"] = end
        record["self_ns"] = duration - child
        self._stack[-1][0] += duration
        return record

    def unwind(self) -> None:
        """Close every open span, after a unit raised inside them."""
        while self._open:
            self.close()

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    # -- per-call wrappers -------------------------------------------------

    def stats(self, name: str) -> CallStats:
        found = self.calls.get(name)
        if found is None:
            found = self.calls[name] = CallStats()
        return found

    def wrap(self, name: str, fn):
        """``fn`` with each call's duration and self time recorded under ``name``."""
        stats = self.stats(name)
        record = stats.durations.append
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args):
            slot = [0]
            stack.append(slot)
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stack.pop()
                record(duration)
                stats.self_ns += duration - slot[0]
                stack[-1][0] += duration

        return traced

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- output --------------------------------------------------------------

    def write(self, path, context: dict, metrics: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "context": context,
            "metrics": metrics,
            "spans": self.spans,
            "calls": {name: stats.summary() for name, stats in sorted(self.calls.items())},
            "counts": self.counts,
        }
        path.write_text(json.dumps(document, indent=1) + "\n")


def identity_wrap(name: str, fn):
    """The untraced stand-in for ``Tracer.wrap``: returns ``fn`` unchanged."""
    return fn
