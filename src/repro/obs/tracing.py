"""Span-based tracing: nested timed regions across threads, processes,
and whole process fleets.

A span is a named, timed region of work with free-form attributes::

    with obs.span("characterize.subarray", serial="S0", subarray=3):
        ...

Spans nest: the span active when a new span starts becomes its parent
(tracked with a :class:`contextvars.ContextVar`, so nesting is correct per
thread and per asyncio task).  Finished spans accumulate in a bounded
process-wide buffer that exporters drain.

**Trace identity.**  Every span belongs to a *trace*: a root span mints a
fresh 32-hex ``trace_id`` and every descendant inherits it, so all the
work done on behalf of one request shares one identifier no matter how
many threads, processes, or hosts it crosses.  The identity travels over
HTTP in a W3C ``traceparent`` header (``00-<trace_id>-<span_id>-01``):
:func:`inject` stamps the active span's context into a header dict, and
:func:`extract` parses an incoming one into a :class:`TraceContext` that
:func:`use_context` installs as the ambient remote parent — the next root
span then joins the caller's trace instead of starting its own.  A
malformed, truncated, or wrong-version header extracts to ``None`` and
the receiver simply starts a fresh trace; propagation failures are never
request failures.

Spans may also carry **links** — references to other traces that caused
or joined this work without being its parent.  The serve scheduler links
each micro-batch span to every request trace folded into the batch.

When observability is disabled, ``span(...)`` returns a shared no-op
context manager: no allocation, no clock reads.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import os
import re
import threading
import time
from dataclasses import dataclass, field

from repro.obs import state as _state

#: Finished-span buffer cap; beyond it new spans are counted, not stored.
MAX_FINISHED_SPANS = 100_000

#: The ``traceparent`` version this library emits.
TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

_current_span: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
#: Remote parent installed by `use_context`; consulted only by root spans.
_remote_context: contextvars.ContextVar["TraceContext | None"] = contextvars.ContextVar(
    "repro_obs_remote_context", default=None
)

_finished: list[dict] = []
_finished_lock = threading.Lock()
_dropped = 0
_ids = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 32-hex (128-bit) trace identifier."""
    return os.urandom(16).hex()


def _new_span_id() -> str:
    """Process-unique 16-hex span id (pid-stamped so merges cannot collide)."""
    return f"{os.getpid() & 0xFFFFFFFF:08x}{next(_ids) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class TraceContext:
    """A remote trace identity: the (trace, span) pair a caller sent us.

    Produced by :func:`extract` from a ``traceparent`` header and consumed
    by :func:`use_context`; a root span started under an installed context
    joins ``trace_id`` with ``span_id`` as its parent.
    """

    trace_id: str
    span_id: str

    def traceparent(self) -> str:
        """This context as a W3C ``traceparent`` header value."""
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01"


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attribute(self, key: str, value: object) -> None:
        return None

    def add_link(self, trace_id: str, span_id: str) -> None:
        return None


_NOOP = _NoopSpan()


@dataclass
class Span:
    """One live span; becomes a plain-dict record when it finishes."""

    name: str
    attributes: dict = field(default_factory=dict)
    span_id: str = field(default_factory=_new_span_id)
    parent_id: str | None = None
    trace_id: str = ""
    links: list = field(default_factory=list)
    start_unix: float = 0.0
    _start_perf: float = 0.0
    _token: object = field(default=None, repr=False)
    _finished: bool = field(default=False, repr=False)

    def __enter__(self) -> "Span":
        parent = _current_span.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            remote = _remote_context.get()
            if remote is not None:
                self.parent_id = remote.span_id
                self.trace_id = remote.trace_id
        if not self.trace_id:
            self.trace_id = new_trace_id()
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._token = _current_span.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start_perf
        _current_span.reset(self._token)
        self._finished = True
        # The record snapshots (rather than aliases) the mutable fields, so
        # a stray set_attribute after exit cannot rewrite history.
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_s": duration,
            "pid": os.getpid(),
            "attributes": dict(self.attributes),
        }
        if self.links:
            record["links"] = [dict(link) for link in self.links]
        if exc_type is not None:
            record["error"] = f"{exc_type.__name__}: {exc}"
        _record_finished(record)

    def set_attribute(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute on the live span.

        After the span has exited its record is immutable; late calls are
        ignored rather than silently mutating (or failing on) history.
        """
        if self._finished:
            return
        self.attributes[key] = value

    def add_link(self, trace_id: str, span_id: str) -> None:
        """Reference another trace that caused or joined this span's work
        without being its parent (e.g. a request folded into a batch)."""
        if self._finished:
            return
        self.links.append({"trace_id": trace_id, "span_id": span_id})

    def context(self) -> TraceContext:
        """This span's identity as a propagatable :class:`TraceContext`."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)


def span(name: str, **attributes: object) -> Span | _NoopSpan:
    """Start a (context-managed) span; a shared no-op while disabled."""
    if not _state.enabled:
        return _NOOP
    return Span(name=name, attributes=attributes)


def current_span() -> Span | None:
    """The span active in this thread/task, if any."""
    return _current_span.get()


def current_context() -> TraceContext | None:
    """The trace identity at this point: the active span's, else the
    ambient remote context installed by :func:`use_context`, else None."""
    active = _current_span.get()
    if active is not None:
        return active.context()
    return _remote_context.get()


@contextlib.contextmanager
def use_context(context: TraceContext | None):
    """Install ``context`` as the ambient remote parent for root spans.

    ``None`` is a no-op (the caller sent no — or a malformed — header and
    root spans should mint fresh traces), so callers can pass
    ``use_context(extract(headers))`` unconditionally.
    """
    if context is None:
        yield
        return
    token = _remote_context.set(context)
    try:
        yield
    finally:
        _remote_context.reset(token)


def inject(headers: dict[str, str] | None = None) -> dict[str, str]:
    """Stamp the current trace identity into ``headers`` (created when
    ``None``) as a W3C ``traceparent``; a no-op with no identity active."""
    if headers is None:
        headers = {}
    context = current_context()
    if context is not None:
        headers["traceparent"] = context.traceparent()
    return headers


def extract(headers: dict[str, str]) -> TraceContext | None:
    """Parse a ``traceparent`` out of lower-cased ``headers``.

    Returns ``None`` — never raises — for a missing, malformed, truncated,
    all-zero, or forbidden-version header: the receiver falls back to a
    fresh trace rather than failing the request over propagation garbage.
    """
    value = headers.get("traceparent")
    if not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip())
    if match is None:
        return None
    version, trace_id, span_id, _flags = match.groups()
    if version == "ff":  # forbidden by the W3C spec
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def _record_finished(record: dict) -> None:
    global _dropped
    with _finished_lock:
        if len(_finished) >= MAX_FINISHED_SPANS:
            _dropped += 1
        else:
            _finished.append(record)


def finished_spans() -> list[dict]:
    """A copy of the finished-span buffer (oldest first)."""
    with _finished_lock:
        return list(_finished)


def take_trace(trace_id: str) -> list[dict]:
    """Remove and return every buffered span belonging to ``trace_id``.

    The slow-request capture uses this after each served request: the
    request's span tree is either persisted (slow) or discarded, so a
    long-running server's buffer is not consumed by routine traffic.
    """
    taken: list[dict] = []
    with _finished_lock:
        kept: list[dict] = []
        for record in _finished:
            if record.get("trace_id") == trace_id:
                taken.append(record)
            else:
                kept.append(record)
        _finished[:] = kept
    return taken


def dropped_spans() -> int:
    """Spans discarded because the buffer was full."""
    return _dropped


def clear() -> None:
    """Empty the buffer and reset the drop counter (test hygiene)."""
    global _dropped
    with _finished_lock:
        _finished.clear()
        _dropped = 0

