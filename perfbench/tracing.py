"""In-memory spans and counters for the traced replay.

A span records its name, an optional kind label (``builtin``, ``custom`` or
``two_factor`` for simulation spans), its parent span and its start and end
on the ``perf_counter`` clock.  One :class:`Tracer` covers one sweep, so all
spans of a sweep share that tracer's ``trace_id``.  Nothing is written out
until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        # [span_id, parent_id, name, kind, start, end]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, kind: str | None = None) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, kind, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, value))

    def durations(self) -> tuple[dict, dict]:
        """Total and self time per span name and per (name, kind).

        Self time is a span's duration minus the time its direct children
        cover; keys are ``name`` and ``(name, kind)``.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for sid, _, name, kind, start, end in self.spans:
            dur = end - start
            for key in (name, (name, kind)):
                total[key] += dur
                self_time[key] += dur - child_time[sid]
        return total, self_time

    def export(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": [
                {"id": sid, "parent": parent, "name": name, "kind": kind,
                 "start": start, "end": end}
                for sid, parent, name, kind, start, end in self.spans
            ],
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }
