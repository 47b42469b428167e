"""In-memory span recorder that wraps library functions from outside.

A span is (name, start, end, parent, instance). Wrappers replace module
globals, so they only see calls made through those names; ``restore()``
puts the originals back. Spans stay in memory until the run writes them.
One tracer records one traced solve.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(int)
        self.instance: str | None = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "instance": self.instance}
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, on_result=None) -> None:
        """Replace ``module.attr`` with a wrapper recording a span named ``attr``.

        ``on_result(tracer, args, kwargs, result)`` runs after each call,
        outside the span. A name the module no longer has is recorded in
        ``missing`` and left alone.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            with self.span(attr):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> dict:
        """{name: (total seconds, call count)} over all spans."""
        out: dict = {}
        for s in self.spans:
            secs, calls = out.get(s["name"], (0.0, 0))
            out[s["name"]] = (secs + s["end"] - s["start"], calls + 1)
        return out

    def self_time(self, name: str) -> float:
        """Summed over spans named ``name``: each span minus its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - child[idx]
            for idx, s in enumerate(self.spans)
            if s["name"] == name
        )
