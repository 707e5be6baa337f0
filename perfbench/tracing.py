"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; nothing under ``src/`` is instrumented.  A
span holds its name, start and end (``time.perf_counter`` seconds), the
id of the span open around it on the same thread, and an optional request
id.  Spans stay in memory until :meth:`Tracer.dump` writes them as JSON
lines when the run ends.

A disabled tracer records nothing; ``span`` then costs one attribute
test, so a workload can share one code path between its traced and
untraced parts.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, name, start, end, parent, rid)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on exit
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, rid)

    def record(self, name: str, start: float, end: float, rid: Optional[int] = None) -> None:
        """Add a span measured elsewhere (e.g. a request's due-to-done time)."""
        if not self.enabled:
            return
        with self._lock:
            self.spans.append((len(self.spans), name, start, end, None, rid))

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every finished span called ``name``."""
        return [s[3] - s[2] for s in self.spans if s is not None and s[1] == name]

    def dump(self, path: Path) -> int:
        """Write every finished span as one JSON object per line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        done = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, rid in done:
                row = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                if rid is not None:
                    row["rid"] = rid
                fh.write(json.dumps(row) + "\n")
        return len(done)
