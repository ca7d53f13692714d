"""In-memory spans for the traced benchmark run.

A span records a name, start and end (seconds since the tracer was created),
the id of the span that encloses it, and the id of the op it belongs to.
Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self.spans: list[dict] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def ms(self, name: str) -> list[float]:
        """Durations in ms of every span with this name, in recording order."""
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name]

    def roots_ms(self, op: str, names: tuple[str, ...]) -> float:
        """Summed duration of the op's top-level spans whose name is listed."""
        return sum(
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["op"] == op and s["parent"] is None and s["name"] in names
        )

    def self_ms(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and total self time in ms.  Self time is
        a span's duration minus the time its child spans cover; children are
        nested and sequential, so their durations add up."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        table: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = table.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = s["end"] - s["start"]
            row["count"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += (duration - child[s["id"]]) * 1e3
        return table


def median(values) -> float:
    return float(statistics.median(values))


def percentile_exact(values, q: float) -> int:
    """Nearest-rank percentile of integer counts: always one of the values,
    so it repeats exactly when the counts do."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return int(ordered[rank - 1])
