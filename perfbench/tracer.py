"""In-memory span recorder that wraps a program's public functions from outside.

Nothing under ``src/`` records these spans: :class:`Tracer` replaces a
class or instance attribute with a timing wrapper and puts the original
back in :meth:`Tracer.restore`.  Two kinds of boundary:

* :meth:`Tracer.span` records one span per call — name, start, end,
  parent span and request id.  Use it for coarse calls (one search, one
  request, one deepening iteration).
* :meth:`Tracer.count` aggregates calls per ``(name, parent span)`` into
  a call count and total time.  Use it for hot calls (heap ops, game
  moves, table probes), where a span per call would cost more memory
  than the benchmark can spare.

The current span travels in a :mod:`contextvars` variable, so spans stay
correctly parented across ``await`` in concurrent asyncio tasks.  All
wrappers test :attr:`Tracer.enabled` first: with tracing off a wrapped
call costs one attribute load and one branch.  A wrapper also does
nothing in a process other than the one that installed it, so a worker
forked later never records into memory that nobody reads.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import time
from typing import Any, Callable, Optional

#: One finished span: (span_id, parent_id, request_id, name, start_ns, end_ns).
Span = tuple[int, int, str, str, int, int]


class Tracer:
    """Spans and per-boundary counts, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.enabled = False
        #: Counted boundaries record only while this is also set.
        self.counting = True
        self.spans: list[Span] = []
        #: (name, parent span id) -> [calls, total ns]
        self.counts: dict[tuple[str, int], list[int]] = {}
        self._current: contextvars.ContextVar[tuple[int, str]] = contextvars.ContextVar(
            "perfbench_span", default=(0, "")
        )
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # -- recording ----------------------------------------------------------

    def active(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    def _open(self, name: str, request_id: Optional[str]) -> tuple[int, int, str, Any]:
        parent, inherited = self._current.get()
        span_id = next(self._ids)
        rid = request_id if request_id is not None else inherited
        token = self._current.set((span_id, rid))
        return span_id, parent, rid, token

    def _close(self, span_id: int, parent: int, rid: str, name: str, start: int, token: Any) -> None:
        end = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append((span_id, parent, rid, name, start, end))

    def add_count(self, name: str, elapsed_ns: int) -> None:
        """Fold one call of ``name`` into the current span's aggregate."""
        key = (name, self._current.get()[0])
        slot = self.counts.get(key)
        if slot is None:
            self.counts[key] = [1, elapsed_ns]
        else:
            slot[0] += 1
            slot[1] += elapsed_ns

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        request_id: Optional[Callable[..., str]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``request_id(*args)`` names the request a root call belongs to;
        nested calls inherit their parent's request id.
        """
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active():
                    return await original(*args, **kwargs)
                rid = request_id(*args) if request_id is not None else None
                span_id, parent, rid, token = tracer._open(name, rid)
                start = time.perf_counter_ns()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(span_id, parent, rid, name, start, token)

            self.patch(owner, attr, async_wrapper)
            return

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active():
                return original(*args, **kwargs)
            rid = request_id(*args) if request_id is not None else None
            span_id, parent, rid, token = tracer._open(name, rid)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, rid, name, start, token)

        self.patch(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and their total time, per parent span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not (tracer.counting and tracer.active()):
                return original(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.add_count(name, time.perf_counter_ns() - start)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- reading ------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, total ms) of a counted boundary, over every parent."""
        calls = 0
        total_ns = 0
        for (counted, _), (n, ns) in self.counts.items():
            if counted == name:
                calls += n
                total_ns += ns
        return calls, total_ns / 1e6

    def dump(self) -> dict[str, Any]:
        """Spans, counts and per-name self time, as plain JSON data.

        A span's self time is its duration minus the time its child
        spans and its counted calls cover.
        """
        child_ns: dict[int, int] = {}
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for (_, parent), (_, ns) in self.counts.items():
            child_ns[parent] = child_ns.get(parent, 0) + ns
        by_name: dict[str, dict[str, float]] = {}
        for span_id, _, _, name, start, end in self.spans:
            row = by_name.setdefault(name, {"spans": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["spans"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns.get(span_id, 0)) / 1e6
        return {
            "spans": [list(span) for span in self.spans],
            "counts": [
                [name, parent, calls, ns] for (name, parent), (calls, ns) in self.counts.items()
            ],
            "self_time": by_name,
        }


_MISSING = object()
