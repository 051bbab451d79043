"""In-memory spans around the public entry points of each service layer.

The traced run hosts the daemon's :class:`ServiceHTTPServer` inside the
benchmark process and, for the timed pass only, replaces these entry
points with wrappers that record a ``perf_counter`` span each:

=========  ==========================================================
layer      wrapped entry points
=========  ==========================================================
http       the client's round trip (the root span of every request)
query      ``QueryService.enumerate/open_session/next_page/update/cancel``
           and ``QueryService.normalize``
registry   ``HotGraphRegistry.get_graph/get_plan/apply_update``
graph      the loader a ``get_graph`` miss calls, and ``as_backend``
prep       ``prepare`` and ``reprepare`` as the registry calls them
sessions   ``SessionTable.create/get/remove``
core       ``EnumerationSession.__init__/next_batch/stream/cursor/resume``
=========  ==========================================================

Spans of one request share its request id and name the span that caused
them.  Only one request is in flight at a time (one client, closed loop),
so a span opened on a server thread with nothing open on that thread is
a child of the client's current root span.  A layer's self time is its
spans' durations minus their child spans' durations.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Span:
    __slots__ = ("span_id", "parent", "request", "name", "start", "end", "extra")

    def __init__(self, span_id, parent, request, name, start) -> None:
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.extra: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[Span] = None
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(
            next(self._ids),
            parent.span_id if parent is not None else None,
            parent.request if parent is not None else None,
            name,
            time.perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def root(self, name: str):
        """The client-side span of one request; its id is the request id."""
        span_id = next(self._ids)
        span = Span(span_id, None, span_id, name, time.perf_counter())
        self._root = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._root = None
            self.spans.append(span)

    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if on_result is not None:
                    span.extra = on_result(result)
                return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point (undone by :meth:`uninstall`)."""
        from repro.core.session import EnumerationSession
        from repro.service import registry as registry_module
        from repro.service.query import QueryService
        from repro.service.registry import HotGraphRegistry
        from repro.service.sessions import SessionTable

        tracer = self
        for method in ("enumerate", "open_session", "next_page", "update", "cancel"):
            self._wrap(QueryService, method, f"query.{method}")
        self._wrap(QueryService, "normalize", "query.normalize")
        for method in ("get_plan", "apply_update"):
            self._wrap(HotGraphRegistry, method, f"registry.{method}")
        get_graph = HotGraphRegistry.get_graph

        def traced_get_graph(registry, key, loader):
            def traced_loader():
                with tracer.span("graph.load"):
                    return loader()

            with tracer.span("registry.get_graph"):
                return get_graph(registry, key, traced_loader)

        self._patch(HotGraphRegistry, "get_graph", traced_get_graph)
        # The registry module imported these names; wrap them where it
        # looks them up.
        self._wrap(registry_module, "as_backend", "graph.as_backend")
        self._wrap(registry_module, "prepare", "prep.prepare")
        self._wrap(registry_module, "reprepare", "prep.reprepare")
        for method in ("create", "get", "remove"):
            self._wrap(SessionTable, method, f"sessions.{method}")
        self._wrap(EnumerationSession, "__init__", "core.open")
        self._wrap(EnumerationSession, "next_batch", "core.next_batch")
        self._wrap(EnumerationSession, "cursor", "core.cursor", on_result=lambda token: {"bytes": len(token)})
        stream = EnumerationSession.stream

        def traced_stream(session):
            # The span covers the consumption of the whole stream; the
            # one-shot path drains it with list() in one go.
            with tracer.span("core.stream"):
                yield from stream(session)

        self._patch(EnumerationSession, "stream", traced_stream)
        resume = EnumerationSession.__dict__["resume"].__func__

        def traced_resume(cls, *args, **kwargs):
            with tracer.span("core.resume"):
                return resume(cls, *args, **kwargs)

        self._patch(EnumerationSession, "resume", classmethod(traced_resume))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own
