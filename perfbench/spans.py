"""In-memory span and counter recorder for the traced benchmark run.

A span is ``[name, parent index, start, end]`` with ``perf_counter`` times;
the parent is whatever span was open when it started, tracked through a
``contextvars`` variable, so nested calls form a tree whose roots are the
benchmark's own per-op spans.  Spans stay in memory until the run ends.
Self time is a span's duration minus the durations of its direct children,
which (calls being strictly nested on one thread) is exactly the part of its
interval no child covers.
"""

from __future__ import annotations

import contextvars
from collections import Counter, defaultdict
from time import perf_counter

_OPEN = contextvars.ContextVar("perfbench_open_span", default=-1)


class Recorder:
    """Spans, counters and distinct-key sets of one phase of a run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)

    def open(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, _OPEN.get(), perf_counter(), None])
        return idx, _OPEN.set(idx)

    def close(self, handle) -> None:
        idx, token = handle
        self.spans[idx][3] = perf_counter()
        _OPEN.reset(token)

    def take(self) -> "Recorder":
        """Hand over everything recorded so far and start empty."""
        done = Recorder()
        done.spans, self.spans = self.spans, []
        done.counts, self.counts = self.counts, Counter()
        done.distinct, self.distinct = self.distinct, defaultdict(set)
        return done

    def by_name(self) -> dict:
        """name -> (self seconds, inclusive seconds, calls)."""
        children = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            s, incl, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (s + end - start - children[i], incl + end - start, calls + 1)
        return out
