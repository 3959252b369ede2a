"""In-memory span recorder for the traced benchmark run.

Spans wrap only the benchmark's own calls into the package's public
functions; nothing inside the package is instrumented.  Each span has a
name, start, end, parent span and operation id.  Spans stay in memory and
are written out once, when the run ends.
"""

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1] if stack else None
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans and counts when enabled; costs one attribute lookup
    and a shared null context per call when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        record = {"id": len(self.spans), "name": name, "op": self.op_id,
                  "parent": None, "start": None, "end": None}
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name: str, amount: float = 1):
        if self.enabled:
            self.counts[name] += amount


def durations(spans) -> dict:
    """Summed wall time per span name."""
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return out


def self_times(spans) -> dict:
    """Summed self time per span name: each span's duration minus the part
    of it that its child spans cover (children never overlap here, since
    the benchmark calls one function at a time)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
    return out


def call_counts(spans) -> dict:
    out = defaultdict(int)
    for s in spans:
        out[s["name"]] += 1
    return out
