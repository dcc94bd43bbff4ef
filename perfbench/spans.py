"""In-memory spans and counters for the benchmark's traced runs.

A span records one call across a layer boundary: name, start, end, the
span that caused it (its parent on the same thread) and the request id
of the answer it belongs to.  Counters accumulate calls and seconds for
boundaries crossed too often to keep one span per call.  Nothing is
written until the run ends; :meth:`Tracer.chrome_events` then renders
the spans in Chrome trace-event form, which Perfetto opens.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "tid")

    def __init__(self, name: str, start: float, parent: int, rid, tid: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.tid = tid

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans (per-thread nesting) and counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    @contextmanager
    def span(self, name: str, rid=None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent].rid
        record = Span(name, time.perf_counter(), parent, rid, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- summaries ------------------------------------------------------ #

    def self_times(self, t0: float = float("-inf"), t1: float = float("inf")) -> List[Tuple[Span, float]]:
        """(span, self seconds) for spans starting in [t0, t1]."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        return [
            (span, span.end - span.start - child_time[i])
            for i, span in enumerate(self.spans)
            if t0 <= span.start <= t1
        ]

    def by_name(self, t0: float = float("-inf"), t1: float = float("inf")) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, summed self seconds) over spans starting in [t0, t1]."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span, own in self.self_times(t0, t1):
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += own
        return {name: (int(n), s) for name, (n, s) in totals.items()}

    def layer_self(self, t0: float, t1: float) -> Dict[str, float]:
        """layer -> summed self seconds of its spans in [t0, t1]."""
        layers: Dict[str, float] = defaultdict(float)
        for span, own in self.self_times(t0, t1):
            layers[span.layer] += own
        return dict(layers)

    def uncovered_share(self, root: str, t0: float, t1: float) -> float:
        """Share of the time in ``root`` spans (started in [t0, t1]) that no
        child span covers: time the answer spent outside every layer."""
        total = own = 0.0
        for span, self_s in self.self_times(t0, t1):
            if span.name == root:
                total += span.end - span.start
                own += self_s
        return own / total if total else 0.0

    def chrome_events(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        if not self.spans:
            return {"traceEvents": []}
        base = min(span.start for span in self.spans)
        tids = {}
        events = []
        for i, span in enumerate(self.spans):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"id": i, "parent": span.parent}
            if span.rid is not None:
                args["rid"] = span.rid
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - base) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
