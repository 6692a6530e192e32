"""In-memory span recorder for the traced run.

A span is (name, start, end, parent).  Spans are kept in a list and written
as JSONL once the run ends.  Functions of hilite are wrapped where callers
look them up: a name bound at import time (``from .policy import score``)
is wrapped in the importing module (``hilite.trainer.score``), because
rebinding it in its home module would not reach that caller.

Spans opened on a worker thread with no open span of its own take the main
thread's innermost open span as parent: the trainer's group pool runs
solver calls while the main thread waits inside ``rollout_group``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.starts.append(0.0)
            self.ends.append(0.0)
        stack.append(sid)
        self.starts[sid] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str):
        return _Span(self, name)

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a wrapper recording a span ``name``.

        ``on_result(tracer, result)`` runs after the call, outside the span,
        to count work done (tokens produced, spans made...).
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(self, result)
            return result

        self.patch(module, attr, traced)

    def patch(self, module, attr: str, value) -> None:
        """Set ``module.attr`` to ``value`` until :meth:`unwrap_all`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals
        (children of one parent may overlap when they ran on pool threads)."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(sid)
        out = []
        for sid in range(len(self.names)):
            start, end = self.starts[sid], self.ends[sid]
            covered = 0.0
            cursor = start
            for c in sorted(children.get(sid, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], cursor), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, sorted by self time."""
        selfs = self.self_times()
        rows: dict[str, dict] = {}
        for sid, name in enumerate(self.names):
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[sid] - self.starts[sid]
            row["self_s"] += selfs[sid]
        return dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]))

    def durations(self, name: str, within: str | None = None) -> list[float]:
        """Durations of the ``name`` spans, only those below a ``within``
        span when it is given."""
        return [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names)
            if n == name and (within is None or self._has_ancestor(i, within))
        ]

    def _has_ancestor(self, sid: int, ancestor: str) -> bool:
        p = self.parents[sid]
        while p >= 0 and self.names[p] != ancestor:
            p = self.parents[p]
        return p >= 0

    def write_jsonl(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid,
                    "name": name,
                    "start_us": round((self.starts[sid] - t0) * 1e6, 1),
                    "end_us": round((self.ends[sid] - t0) * 1e6, 1),
                    "parent": self.parents[sid],
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False
