"""In-memory spans for the traced run: name, start, end and parent span."""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans and work counts, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.last: dict[str, object] = {}  # span name -> what its last call returned
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn, after=None):
        """``fn`` with each call inside a span called ``name``.

        ``after(tracer, result, *args)`` runs once the span has closed, to
        count the work the call did.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.last[name] = result
            if after is not None:
                after(self, result, *args)
            return result

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """(busy seconds, self seconds, calls) per span name.

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, float, int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            busy, own, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (busy + end - start, own + end - start - child[i], calls + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


@contextmanager
def patched(tr: Tracer, targets):
    """Wrap module attributes in spans while the block runs.

    ``targets`` holds (module, attribute, span name, after) tuples.  The
    program looks these attributes up when it calls them, so its own code
    runs, in its own order, with a span around each wrapped call.  The
    originals are put back when the block ends.
    """
    saved = []
    try:
        for module, attr, name, after in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tr.wrap(name, saved[-1][2], after))
        yield tr
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
