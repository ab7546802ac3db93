"""Distributed tracing over the simulation kernel.

A :class:`Tracer` produces hierarchical :class:`Span` records stamped
with *simulated* time.  Spans are plain context managers::

    with tracer.span("rpc:glare-rdm.get_deployments", src=a, dst=b) as sp:
        ...
        sp.set_attr("resolved", "local")

Context propagation has to respect the process-interaction style of the
kernel: everything runs on one Python thread, but many simulation
processes interleave at ``yield`` points, so a naive global "current
span" would attribute work to the wrong request.  The tracer therefore
keys its active-span table by the kernel's *active process* and hooks
process creation (:attr:`Simulator.spawn_observer`) so a freshly
spawned process inherits the spawner's span — this is what stitches
RPC fan-outs, retry-deadline runner processes and detached GRAM
job bodies into one trace.  For messages that hop between processes the
transport additionally carries an explicit :class:`TraceContext` in the
RPC envelope (see :mod:`repro.net.transport`), mirroring how W3C
``traceparent`` headers ride real wire protocols.

When tracing is off, the :class:`NullTracer` swallows everything at a
cost of one attribute check per instrumentation point, so the Fig 10/11
throughput benches are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simkernel.kernel import Simulator
    from repro.simkernel.process import Process


@dataclass(frozen=True)
class TraceContext:
    """The wire form of a span identity (what RPC metadata carries)."""

    trace_id: int
    span_id: int


class Span:
    """One timed operation; a node in a trace tree.

    Spans are created by :meth:`Tracer.span` and activated by ``with``;
    ``start``/``end`` are simulated-time stamps.  ``parent_id`` is
    ``None`` for trace roots.
    """

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "start", "end", "attrs", "_key", "_prev")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self._key: Any = None
        self._prev: Optional["Span"] = None

    # -- attributes ---------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute."""
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._activate(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        self.tracer._finish(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.4f}s" if self.end is not None else "open"
        return f"<Span {self.name!r} t{self.trace_id}/s{self.span_id} {state}>"


class _NullSpan:
    """Shared do-nothing span for disabled tracing."""

    __slots__ = ()
    trace_id = 0
    span_id = 0
    parent_id = None
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: Dict[str, Any] = {}

    def set_attr(self, key: str, value: Any) -> None:
        pass

    @property
    def context(self) -> Optional[TraceContext]:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every entry point is a near-free no-op."""

    enabled = False

    def bind(self, sim: "Simulator") -> None:
        pass

    def span(self, name: str, parent: Any = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_context(self) -> Optional[TraceContext]:
        return None

    @property
    def spans(self) -> List[Span]:
        return []

    def open_spans(self) -> List[Span]:
        return []

    def leaked_spans(self) -> List[Span]:
        return []


class Tracer:
    """Collects finished spans, keyed into traces.

    Parameters
    ----------
    max_spans:
        Optional retention bound; when set, only the most recent
        ``max_spans`` finished spans are kept (ring buffer), so very
        long experiments cannot grow memory without bound.
    """

    enabled = True

    def __init__(self, max_spans: Optional[int] = None) -> None:
        self.max_spans = max_spans
        self._sim: Optional["Simulator"] = None
        self._finished: List[Span] = []
        self._next_trace = 1
        self._next_span = 1
        #: active span per simulation process (``None`` key = top level,
        #: i.e. code running outside any process, such as test set-up)
        self._current: Dict[Any, Span] = {}
        #: every entered-but-unfinished span, by span id (leak audit)
        self._open: Dict[int, Span] = {}
        self.dropped_spans = 0

    # -- wiring -------------------------------------------------------------

    def bind(self, sim: "Simulator") -> None:
        """Attach to a simulator: clock + process-spawn inheritance."""
        self._sim = sim
        sim.spawn_observer = self._on_spawn

    def _now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    def _ctx_key(self) -> Any:
        if self._sim is None:
            return None
        return self._sim.active_process

    def _on_spawn(self, child: "Process", parent: Optional["Process"]) -> None:
        """A new process inherits the spawner's active span."""
        span = self._current.get(parent)
        if span is not None:
            self._current[child] = span
            # drop the inherited entry once the process terminates so
            # the table does not accumulate dead processes
            child.subscribe(lambda _ev: self._current.pop(child, None))

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, parent: Optional[TraceContext] = None,
             **attrs: Any) -> Span:
        """Create a span (activated on ``with``-entry).

        ``parent`` forces an explicit parent (e.g. restored from RPC
        metadata); otherwise the active span of the current simulation
        process is used, and a fresh trace is started when there is
        none.
        """
        current = self._current.get(self._ctx_key())
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif current is not None:
            trace_id, parent_id = current.trace_id, current.span_id
        else:
            trace_id, parent_id = self._next_trace, None
            self._next_trace += 1
        span_id = self._next_span
        self._next_span += 1
        return Span(self, name, trace_id, span_id, parent_id,
                    self._now(), attrs)

    def _activate(self, span: Span) -> None:
        key = self._ctx_key()
        span._key = key
        span._prev = self._current.get(key)
        self._current[key] = span
        self._open[span.span_id] = span

    def _finish(self, span: Span) -> None:
        span.end = self._now()
        self._open.pop(span.span_id, None)
        if self._current.get(span._key) is span:
            if span._prev is not None:
                self._current[span._key] = span._prev
            else:
                self._current.pop(span._key, None)
        self._finished.append(span)
        if self.max_spans is not None and len(self._finished) > self.max_spans:
            overflow = len(self._finished) - self.max_spans
            del self._finished[:overflow]
            self.dropped_spans += overflow

    # -- read side ----------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All finished spans, in completion order."""
        return self._finished

    def current_context(self) -> Optional[TraceContext]:
        """Trace context of the active span (for RPC metadata)."""
        span = self._current.get(self._ctx_key())
        return span.context if span is not None else None

    def traces(self) -> Dict[int, List[Span]]:
        """Finished spans grouped by trace, each sorted by start time."""
        grouped: Dict[int, List[Span]] = {}
        for span in self._finished:
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start, s.span_id))
        return grouped

    def find(self, name_prefix: str) -> List[Span]:
        """Finished spans whose name starts with ``name_prefix``."""
        return [s for s in self._finished if s.name.startswith(name_prefix)]

    def trace_of(self, span: Span) -> List[Span]:
        """Every finished span sharing ``span``'s trace."""
        return [s for s in self._finished if s.trace_id == span.trace_id]

    def open_spans(self) -> List[Span]:
        """Spans entered but not yet exited, oldest first."""
        return sorted(self._open.values(), key=lambda s: s.span_id)

    def leaked_spans(self) -> List[Span]:
        """Open spans whose owning process can never close them.

        An open span is legitimate while the process that entered it is
        still alive (the run was stopped mid-flight); it is a *leak*
        when that process has terminated — some error path exited
        without closing the span.  Top-level spans (no owning process)
        are counted as leaks too, since nothing will resume them.
        """
        leaked = []
        for span in self.open_spans():
            owner = span._key
            if owner is None or not getattr(owner, "is_alive", False):
                leaked.append(span)
        return leaked

    def clear(self) -> None:
        self._finished.clear()


def span_children(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    """Index a span set by parent id (children sorted by start time)."""
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    for children in index.values():
        children.sort(key=lambda s: (s.start, s.span_id))
    return index


def walk_tree(spans: List[Span]) -> Iterator[tuple]:
    """Depth-first ``(depth, span)`` walk over one trace's span list."""
    index = span_children(spans)
    known = {s.span_id for s in spans}
    roots = [s for s in spans
             if s.parent_id is None or s.parent_id not in known]
    roots.sort(key=lambda s: (s.start, s.span_id))

    def _walk(span: Span, depth: int) -> Iterator[tuple]:
        yield depth, span
        for child in index.get(span.span_id, []):
            yield from _walk(child, depth + 1)

    for root in roots:
        yield from _walk(root, 0)
