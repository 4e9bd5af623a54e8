"""In-memory spans for the traced benchmark run.

A span records a name, start and end (perf_counter seconds), the index of
its parent span, the job it belongs to, and counts of the work it did.
Spans stay in memory until the run writes them out.  Self time is a span's
duration minus the time covered by its direct children; the recorder is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "job": self.job,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Recorder:
    """Collects spans; `span` yields the span's counts dict for the caller to fill."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str | None = None, **counts):
        parent = self._open[-1] if self._open else None
        if job is None:
            job = self.spans[parent].job if parent is not None else ""
        s = Span(name, job, parent, time.perf_counter(), counts=dict(counts))
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s.counts
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


class NullRecorder:
    """The untraced run's recorder: records nothing."""

    def span(self, name: str, job: str | None = None, **counts):
        return nullcontext({})
