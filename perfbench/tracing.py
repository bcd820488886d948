"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.patch` replaces a
module attribute with a timing wrapper, so a call is traced exactly where its
caller looks the name up (``nre.ensemble.forward_batch`` is the name
``nre_train`` calls, ``nre.tree.best_split`` the one ``build_tree`` calls).
Nothing under ``src/`` changes. A name the program no longer has is recorded
as absent and its metrics read 0.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index, rows]`` lists, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, rows: int) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, rows]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one phase of the run."""
        rec = self._open(name, 0)
        try:
            yield
        finally:
            self._close(rec)

    def patch(self, target: str, name: str, rows_arg: int | None = None) -> None:
        """Wrap ``module.attr`` (given as ``"module.attr"``) in spans called ``name``.

        ``rows_arg`` names the positional argument whose length is recorded as
        the span's row count.
        """
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(target)
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rows = len(args[rows_arg]) if rows_arg is not None else 0
            rec = self._open(name, rows)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(rec)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self) -> None:
        """Put back every wrapped attribute, last patched first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write every span, as recorded, to a gzipped JSON file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "rows"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


class SpanStats:
    """Per-phase totals over a finished trace.

    A span's phase is its outermost ancestor. Self time is a span's duration
    minus the durations of its direct children; calls do not overlap, so the
    children cover disjoint parts of their parent.
    """

    def __init__(self, spans: list[list]):
        n = len(spans)
        self._root = [0] * n
        self._child_ns = [0] * n
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent < 0:
                self._root[i] = i
            else:
                self._root[i] = self._root[parent]
                self._child_ns[parent] += end - start
        self._spans = spans

    def phase_index(self, phase: str) -> int:
        matches = [i for i, s in enumerate(self._spans) if s[3] < 0 and s[0] == phase]
        if len(matches) != 1:
            raise ValueError(f"expected one phase span {phase!r}, found {len(matches)}")
        return matches[0]

    def _select(self, phase: str, names: tuple[str, ...]):
        root = self.phase_index(phase)
        for i, s in enumerate(self._spans):
            if self._root[i] == root and s[0] in names:
                yield i, s

    def calls(self, phase: str, *names: str) -> int:
        return sum(1 for _ in self._select(phase, names))

    def rows(self, phase: str, *names: str) -> int:
        return sum(s[4] for _, s in self._select(phase, names))

    def seconds(self, phase: str, *names: str) -> float:
        return sum(s[2] - s[1] for _, s in self._select(phase, names)) / 1e9

    def self_seconds(self, phase: str, *names: str) -> float:
        return sum(s[2] - s[1] - self._child_ns[i] for i, s in self._select(phase, names)) / 1e9

    def durations(self, phase: str, *names: str) -> list[float]:
        return [(s[2] - s[1]) / 1e9 for _, s in self._select(phase, names)]
