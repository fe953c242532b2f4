"""In-memory span recorder for the traced benchmark run.

A span is ``[id, name, start, end, parent, request, src]``:

* ``name`` -- the layer (module path) the span charges time to;
* ``start`` / ``end`` -- seconds since the tracer was created;
* ``parent`` -- id of the span that caused this one, or ``None``;
* ``request`` -- identifier shared by every span of one operation;
* ``src`` -- how the duration was obtained:

  - ``"timed"``: the runner took ``perf_counter`` around a call it made
    into a layer, or around a callback a layer made into a runner-owned
    wrapper (simulation, selection metric, writer);
  - ``"reported"``: the program returned the duration through a public
    value (``PipelineResult.timings``, the ``stats`` dict of a wire
    response, ``QueryStats``).  Its position inside the parent is nominal,
    only its length is measured;
  - ``"replayed"``: the same request executed again one rung lower on the
    serving ladder, outside the parent's interval.  Again only its length
    is meaningful.

Direct children of one span never overlap each other, so the part of a
span its children cover is the sum of their durations, and a span's self
time is its duration minus that sum.  Spans live in a list until
:meth:`Tracer.dump` writes them when the workload ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ID, NAME, START, END, PARENT, REQUEST, SRC = range(7)


class Tracer:
    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def _new(self, name, start, end, parent, request, src) -> list:
        with self._lock:
            span = [len(self.spans), name, start, end, parent, request, src]
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, request=None):
        """Time the enclosed block; nests under this thread's open span."""
        stack = self._stack.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = self._new(
            name, time.perf_counter() - self.epoch, None,
            parent[ID] if parent else None, request, "timed",
        )
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span[END] = time.perf_counter() - self.epoch

    def add(self, name: str, seconds: float, parent: list, src: str) -> list:
        """A child of ``parent`` whose length the runner did not time in
        place (``src`` is ``"reported"`` or ``"replayed"``)."""
        start = parent[START]
        return self._new(
            name, start, start + seconds, parent[ID], parent[REQUEST], src
        )

    def _of(self, request_prefix: str) -> list[list]:
        return [
            s for s in self.spans if (s[REQUEST] or "").startswith(request_prefix)
        ]

    def self_seconds(self, request_prefix: str = "") -> dict[str, float]:
        """Total self time per span name (duration minus direct children)
        over the requests whose id starts with ``request_prefix``.

        Clipped at zero per *name*, not per span, so timer noise on a
        replayed rung that happens to beat its parent cancels out over the
        run instead of biasing the total upwards.
        """
        spans = self._of(request_prefix)
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span[NAME]] += span[END] - span[START] - covered[span[ID]]
        return {name: max(0.0, total) for name, total in totals.items()}

    def durations(self, name: str, request_prefix: str = "") -> list[float]:
        return [
            s[END] - s[START] for s in self._of(request_prefix) if s[NAME] == name
        ]

    def accounted_ratio(self, request_prefix: str) -> float:
        """Share of the operations' time charged to some layer's span
        rather than left in the benchmark's own ``bench.op`` span."""
        total = sum(self.durations("bench.op", request_prefix))
        if not total:
            return 0.0
        return 1.0 - self.self_seconds(request_prefix)["bench.op"] / total

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **header,
            "fields": ["id", "name", "start", "end", "parent", "request", "src"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
