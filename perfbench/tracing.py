"""Spans around calls into semrag's public functions, for the traced run.

The tracer replaces a function under the name its caller looks it up by
(for example ``semrag.pipeline.compile_text``, which ``compile_corpus``
calls, or the ``QueryEngine.search`` method) with a wrapper that records
a span: name, start, end and parent. Spans stay in memory; self time is a
span's duration minus the durations of its child spans. Only public names
of the package are touched, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index]; parent -1 for a root span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.counts: dict[str, float] = {}

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def patch(self, owner: object, attr: str, name: str,
              on_result: Optional[Callable[["Tracer", object], None]] = None) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, traced))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, root: str) -> tuple[dict[str, float], dict[str, int], int]:
        """Total self time and call count per span name under the root spans
        called ``root``, and the number of those roots."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        in_root = [False] * len(self.spans)
        roots = 0
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            in_root[i] = name == root if parent < 0 else in_root[parent]
            if parent < 0 and name == root:
                roots += 1
            if in_root[i]:
                totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
                calls[name] = calls.get(name, 0) + 1
        return totals, calls, roots
