"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, analysis, meta).  Spans are opened only
from the benchmark's own files, around each call into a public function of
the package, around each analysis and each answer check, and around the
whole traced phase.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.analysis = -1

    def open(self, name: str, **meta) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.analysis, meta])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def call(self, name: str, fn, *args, meta: dict | None = None, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span named ``name`` when on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self.open(name, **(meta or {}))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def note(self, **meta) -> None:
        """Attach facts known only after the call to the last closed span."""
        if self.enabled:
            self.spans[-1][5].update(meta)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, analysis, meta in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "analysis": analysis, **meta}
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span, its duration minus the time covered by its direct children."""
    own = [end - start for _n, start, end, _p, _a, _m in spans]
    for _n, start, end, parent, _a, _m in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_of(name: str) -> str:
    return "bench" if name.startswith("bench.") else name.split(".", 1)[0]
