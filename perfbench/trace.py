"""Outside-in span tracing for the benchmark's traced runs.

The tracer replaces public functions of the system with thin wrappers
that record one span per call, and puts every original back when it is
uninstalled.  Nothing under ``src/`` knows it is being traced: a wrapped
function is either a class attribute (a method, e.g.
``ControlPlane.pump``) or a module attribute in the namespace that calls
it (e.g. ``repro.serve.controlplane.encode_activation_batch``).

A span is ``(span id, name, start, end, thread, parent id, attrs)``:

* ``start`` / ``end`` are ``time.perf_counter()`` seconds;
* ``parent`` is the innermost span open on the same thread when the call
  began (``-1`` at top level), so same-thread nesting is exact;
* ``attrs`` is whatever the wrap point's ``describe`` hook extracted from
  the call -- request ids, a row count, a label -- or ``None``.

Spans on different threads are linked by the analysis
(:mod:`perfbench.layers`) through the request ids the spans carry, never
through ``parent``.  Spans stay in memory until the run ends and
:func:`write_spans` saves them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

#: ``describe(args, kwargs, result) -> attrs`` for one wrap point.
Describe = Callable[[tuple, dict, Any], Any]

_MISSING = object()


@dataclass(frozen=True)
class WrapPoint:
    """One function to wrap: ``owner.attr`` recorded under ``name``."""

    name: str
    owner: Any
    attr: str
    describe: Describe | None = None


@dataclass
class Spans:
    """Columnar spans, sorted by start time (what the analysis reads)."""

    names: list[str]
    name: np.ndarray  # int index into ``names``
    start: np.ndarray
    end: np.ndarray
    thread: np.ndarray  # 0 = the thread that created the tracer
    parent: np.ndarray  # row index of the parent span, -1 at top level
    attrs: list

    def __len__(self) -> int:
        return len(self.start)

    def rows(self, name: str) -> np.ndarray:
        """Row indices of every span called ``name``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def duration(self) -> np.ndarray:
        return self.end - self.start


class Tracer:
    """Wraps functions, records spans, restores the originals.

    Use as a context manager around the traced phase::

        with Tracer(points) as tracer:
            run_workload()
        spans = tracer.spans()
    """

    def __init__(self, points: Sequence[WrapPoint]) -> None:
        self._points = list(points)
        self._ids = itertools.count()
        self._records: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, bool, Any]] = []
        #: Spans on the thread that creates the tracer are thread 0.
        self._main_thread = threading.get_ident()

    # ------------------------------------------------------------------
    # Installing and restoring
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for point in self._points:
            own = point.attr in vars(point.owner)
            original = getattr(point.owner, point.attr)
            self._saved.append((point.owner, point.attr, own, original))
            setattr(point.owner, point.attr, self._wrap(point, original))
        return self

    def uninstall(self) -> None:
        """Put every original back; attributes an owner only inherited
        are deleted again rather than pinned on the owner."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, point: WrapPoint, original: Callable) -> Callable:
        tracer, name, describe = self, point.name, point.describe
        records, ids = self._records, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = _MISSING
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                attrs = None
                if describe is not None and result is not _MISSING:
                    attrs = describe(args, kwargs, result)
                records.append(
                    (span_id, name, start, end, threading.get_ident(), parent, attrs)
                )

        return traced

    # ------------------------------------------------------------------
    # Reading and writing
    # ------------------------------------------------------------------
    def spans(self) -> Spans:
        """Every recorded span, columnar and sorted by start."""
        return spans_from_records(self._records, self._main_thread)


def write_spans(path: Path, spans: Spans, meta: dict) -> Path:
    """Write spans as one compressed ``.npz`` (see the README)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(json.dumps(spans.names)),
        name=spans.name,
        start=spans.start,
        end=spans.end,
        thread=spans.thread,
        parent=spans.parent,
        attrs=np.array(json.dumps(spans.attrs)),
        meta=np.array(json.dumps(meta)),
    )
    return path


def spans_from_records(records: Sequence[tuple], main_thread: int) -> Spans:
    """Columnar :class:`Spans` from raw ``(id, name, start, end, thread,
    parent id, attrs)`` records; parent ids become row indices."""
    ordered = sorted(records, key=lambda r: (r[2], r[0]))
    names: list[str] = []
    index: dict[str, int] = {}
    threads = {main_thread: 0}
    row_of = {record[0]: row for row, record in enumerate(ordered)}
    name = np.empty(len(ordered), dtype=np.int64)
    thread = np.empty(len(ordered), dtype=np.int64)
    parent = np.empty(len(ordered), dtype=np.int64)
    for row, (_, span_name, _, _, ident, parent_id, _) in enumerate(ordered):
        if span_name not in index:
            index[span_name] = len(names)
            names.append(span_name)
        name[row] = index[span_name]
        thread[row] = threads.setdefault(ident, len(threads))
        parent[row] = row_of.get(parent_id, -1)
    return Spans(
        names=names,
        name=name,
        start=np.array([r[2] for r in ordered], dtype=np.float64),
        end=np.array([r[3] for r in ordered], dtype=np.float64),
        thread=thread,
        parent=parent,
        attrs=[r[6] for r in ordered],
    )


def load_spans(path: Path) -> tuple[Spans, dict]:
    """Read a trace written by :func:`write_spans`."""
    with np.load(path) as archive:
        spans = Spans(
            names=json.loads(str(archive["names"])),
            name=archive["name"],
            start=archive["start"],
            end=archive["end"],
            thread=archive["thread"],
            parent=archive["parent"],
            attrs=json.loads(str(archive["attrs"])),
        )
        meta = json.loads(str(archive["meta"]))
    return spans, meta


def self_times(spans: Spans) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are the spans whose ``parent`` is the span (same thread by
    construction).  The covered part is the union of the children's
    intervals clipped to the parent's, so overlapping children count
    once.  Spans on other threads linked by request id are not children
    and never reduce a span's self time.
    """
    durations = spans.end - spans.start
    result = durations.copy()
    children: dict[int, list[int]] = {}
    for row, parent in enumerate(spans.parent):
        if parent >= 0:
            children.setdefault(int(parent), []).append(row)
    for parent, rows in children.items():
        lo, hi = spans.start[parent], spans.end[parent]
        intervals = sorted(
            (max(lo, spans.start[r]), min(hi, spans.end[r])) for r in rows
        )
        covered = 0.0
        cur_start, cur_end = None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        result[parent] = durations[parent] - covered
    return result
