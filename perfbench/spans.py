"""In-memory spans around module-level functions, for the traced run.

``Tracer.wrap`` replaces ``module.attr`` with a wrapper that records a span
``[name, start, end, parent]`` per call; callers that look the function up
through the module (``laguerre.build``) or through the module's globals
(``_clip_cell`` inside ``laguerre.build``) then go through the wrapper.
``Tracer.tap`` only hands each result to a callback, for functions called
too often to span.  ``Tracer.restore`` puts every original back.  A hook
whose attribute no longer exists is skipped, so its metrics are absent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _replace(self, module, attr: str, make) -> bool:
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def wrap(self, module, attr: str, name: str, on_result=None) -> bool:
        """Record a span around every call of ``module.attr``."""

        def make(fn):
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return self._replace(module, attr, make)

    def tap(self, module, attr: str, on_result) -> bool:
        """Pass every result of ``module.attr`` to ``on_result``; no span."""

        def make(fn):
            def tapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(result)
                return result

            return tapped

        return self._replace(module, attr, make)

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the subtree of span ``root``.

        A span's self time is its duration minus its children's durations,
        so the values sum to the root's duration.
        """
        inside = {root}
        own = {root: self.duration(root)}
        for idx in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            if parent not in inside:
                continue
            inside.add(idx)
            own[idx] = end - start
            own[parent] -= end - start
        totals: dict[str, float] = {}
        for idx, value in own.items():
            name = self.spans[idx][0]
            totals[name] = totals.get(name, 0.0) + value
        return totals

    def count(self, name: str, root: int, within: str | None = None) -> int:
        """Spans called ``name`` under ``root`` (and under a ``within`` span if given)."""
        total = 0
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][0] != name:
                continue
            names = set()
            parent = self.spans[idx][3]
            while parent != -1 and parent != root:
                names.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            if parent == root and (within is None or within in names):
                total += 1
        return total
