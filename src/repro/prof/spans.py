"""Nested wall-clock span tracing.

A span is one timed region of the host's work on behalf of the guest —
translating a unit, executing the dispatch loop, patching a chain cell,
servicing a syscall, rolling back speculative state, or running a
timing model.  Spans nest: the tracer keeps a stack, and each distinct
path through that stack becomes one node of the span *tree*, carrying
count, total/min/max wall time, with self time derived at render time
(total minus the children's totals).

Two products come out of one tracer:

* the aggregated tree (:meth:`SpanTracer.tree`) — the ``repro profile``
  report and the folded-stack export read this;
* the raw completed-span list (:attr:`SpanTracer.events`) — the Chrome
  Trace Event export reads this.  The list is capped so a long run
  cannot grow without bound; spills are counted, never silent.

Instrumented layers never hand-write a timed copy of a method.  They
call :func:`bind_spans` once at construction time; with profiling on it
instance-binds span-wrapped versions of the named methods, and with
profiling off it binds nothing, so a default instance keeps calling the
plain class methods.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

#: canonical span names used by the instrumented layers
TRANSLATE = "translate"
EXECUTE = "execute"
CHAIN_PATCH = "chain_patch"
SYSCALL = "syscall"
ROLLBACK = "rollback"
TIMING = "timing_model"

#: default cap on retained raw span events (Chrome trace export)
MAX_EVENTS = 65536


class SpanNode:
    """Aggregate statistics for one path in the span tree."""

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns = 0
        self.max_ns = 0
        self.children: dict[str, SpanNode] = {}

    def record(self, dur_ns: int) -> None:
        if self.count == 0 or dur_ns < self.min_ns:
            self.min_ns = dur_ns
        if dur_ns > self.max_ns:
            self.max_ns = dur_ns
        self.count += 1
        self.total_ns += dur_ns

    @property
    def self_ns(self) -> int:
        """Total time minus the children's totals (never negative)."""
        return max(0, self.total_ns - sum(c.total_ns for c in self.children.values()))

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def as_dict(self) -> dict:
        out: dict = {
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }
        if self.children:
            out["children"] = {
                name: child.as_dict()
                for name, child in sorted(self.children.items())
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanNode {self.name} n={self.count} total={self.total_ns}ns>"


class SpanTracer:
    """Stack-based span tracer building a tree plus a raw event list."""

    __slots__ = ("_clock", "_stack", "_starts", "root", "events",
                 "max_events", "events_dropped", "origin_ns")

    enabled = True

    def __init__(self, clock=time.perf_counter_ns, max_events: int = MAX_EVENTS):
        self._clock = clock
        self.root = SpanNode("root")
        self._stack: list[SpanNode] = [self.root]
        self._starts: list[int] = []
        #: completed spans as (name, depth, start_ns, dur_ns), start times
        #: relative to the tracer's construction
        self.events: list[tuple[str, int, int, int]] = []
        self.max_events = max_events
        self.events_dropped = 0
        self.origin_ns = clock()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append(self._stack[-1].child(name))
        self._starts.append(self._clock())

    def end(self) -> None:
        t1 = self._clock()
        node = self._stack.pop()
        t0 = self._starts.pop()
        node.record(t1 - t0)
        if len(self.events) < self.max_events:
            self.events.append(
                (node.name, len(self._starts), t0 - self.origin_ns, t1 - t0)
            )
        else:
            self.events_dropped += 1

    @contextmanager
    def span(self, name: str):
        """Context manager timing one region; exception-safe."""
        self.begin(name)
        try:
            yield self
        finally:
            self.end()

    # -- reading -----------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._starts)

    def tree(self) -> dict:
        """The aggregated span tree as a JSON-serializable dict."""
        return {
            name: child.as_dict()
            for name, child in sorted(self.root.children.items())
        }

    def paths(self) -> list[tuple[tuple[str, ...], SpanNode]]:
        """Every tree node with its root-relative path, pre-order."""
        out: list[tuple[tuple[str, ...], SpanNode]] = []

        def walk(node: SpanNode, path: tuple[str, ...]) -> None:
            for name in sorted(node.children):
                child = node.children[name]
                out.append((path + (name,), child))
                walk(child, path + (name,))

        walk(self.root, ())
        return out

    def clear(self) -> None:
        self.root = SpanNode("root")
        self._stack = [self.root]
        self._starts = []
        self.events = []
        self.events_dropped = 0
        self.origin_ns = self._clock()


_NULL_CONTEXT = nullcontext()


class NullSpanTracer:
    """Disabled tracer: every call is a no-op, every reader sees emptiness."""

    __slots__ = ()

    enabled = False
    events: tuple = ()
    events_dropped = 0
    origin_ns = 0
    depth = 0

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def span(self, name: str):
        return _NULL_CONTEXT

    def tree(self) -> dict:
        return {}

    def paths(self) -> list:
        return []

    def clear(self) -> None:
        pass


#: shared no-op instance
NULL_SPANS = NullSpanTracer()


def bind_spans(obj, prof, spans: dict[str, str], foreign=()) -> None:
    """Time ``obj``'s methods as spans, when ``prof`` is enabled.

    ``spans`` maps a method name to the span it is timed as; each
    wrapper is bound on the instance over the method it wraps.  With
    profiling off nothing is bound, so the instance's methods keep their
    original bytecode.  Methods named in ``foreign`` also credit their
    elapsed time to ``prof.guest.foreign_ns``: they run nested inside a
    translated unit's timed window (the chain slow path), and the
    dispatch loop deducts that time so the unit is charged only for
    executing guest code.
    """
    if not prof.enabled:
        return
    for method, name in spans.items():
        guest = prof.guest if method in foreign else None
        setattr(obj, method, _span(prof.spans, name, getattr(obj, method), guest))


def _span(tracer, name: str, method, guest):
    begin = tracer.begin
    end = tracer.end
    clock = time.perf_counter_ns

    def spanned(*args, **kwargs):
        t0 = clock()
        begin(name)
        try:
            return method(*args, **kwargs)
        finally:
            end()
            if guest is not None:
                guest.foreign_ns += clock() - t0

    spanned.__wrapped__ = method
    return spanned
