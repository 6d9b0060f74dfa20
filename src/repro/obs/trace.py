"""Span tracer for the explain pipeline.

A :class:`Tracer` records a tree of named spans timed with
``time.perf_counter_ns``.  The active tracer lives in a
:class:`contextvars.ContextVar`, so instrumented code never threads a
tracer argument around — call sites just write::

    with span("score_batch") as sp:
        ...
    if sp:
        sp.annotate(predicates=n)

When no tracer is active, :func:`span` returns a shared no-op singleton
whose ``__enter__``/``__exit__``/``annotate`` do nothing and which is
falsy — the ``if sp:`` guard means attribute dicts are never even built
on the disabled path, keeping the off-by-default overhead to one
ContextVar read per call site (``bench_obs_overhead.py`` pins it).

Spans export as a flat JSON-ready list (``id`` / ``parent`` / ``name``
/ ``start_ns`` relative to the trace origin / ``dur_ns`` / ``attrs``)
on :attr:`ScorpionResult.trace <repro.core.scorpion.ScorpionResult>`;
:func:`render_profile` renders the tree as an indented text profile
(the ``--profile`` CLI flag) and :func:`phase_totals` folds it into a
per-phase seconds dict for the eval runner.
"""

from __future__ import annotations

import os
import time
from contextvars import ContextVar

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "phase_totals",
    "render_profile",
    "span",
    "tracing_enabled",
]

_ACTIVE: ContextVar["Tracer | None"] = ContextVar("scorpion_tracer",
                                                  default=None)

_TRUTHY = frozenset(("1", "true", "on", "yes"))


def tracing_enabled() -> bool:
    """``SCORPION_TRACE`` opt-in (off unless ``1``/``true``/``on``/``yes``)."""
    return os.environ.get("SCORPION_TRACE", "").strip().lower() in _TRUTHY


def current_tracer() -> "Tracer | None":
    """The tracer active in this context, or ``None`` when disabled."""
    return _ACTIVE.get()


class _NoopSpan:
    """Falsy do-nothing span returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


class Span:
    """One timed phase; a context manager that ends itself on exit."""

    __slots__ = ("tracer", "id", "parent", "name", "start_ns", "dur_ns",
                 "attrs")

    def __init__(self, tracer: "Tracer", span_id: int, parent: int | None,
                 name: str, start_ns: int):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start_ns = start_ns
        self.dur_ns: int | None = None
        self.attrs: dict = {}

    def annotate(self, **attrs) -> None:
        """Attach key/value attributes (tier counts, sizes, outcomes)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer.end(self)
        return False


class Tracer:
    """Records one explain's span tree; activate around the request."""

    def __init__(self):
        self._origin_ns = time.perf_counter_ns()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._token = None

    # -- context-variable plumbing ----------------------------------
    def activate(self) -> "Tracer":
        """Install as the context's active tracer; returns ``self``."""
        self._token = _ACTIVE.set(self)
        return self

    def deactivate(self) -> None:
        """Uninstall (restores whatever was active before)."""
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None

    # -- span recording ---------------------------------------------
    def _now_ns(self) -> int:
        return time.perf_counter_ns() - self._origin_ns

    def begin(self, name: str) -> Span:
        """Open a span under the current stack top; close it via ``with``."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self, self._next_id, parent, name, self._now_ns())
        self._next_id += 1
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.dur_ns = self._now_ns() - sp.start_ns
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()

    # -- export ------------------------------------------------------
    def export(self) -> list[dict]:
        """Flat JSON-ready span list in recording order."""
        out = []
        for sp in self.spans:
            row = {"id": sp.id, "parent": sp.parent, "name": sp.name,
                   "start_ns": sp.start_ns,
                   "dur_ns": 0 if sp.dur_ns is None else sp.dur_ns}
            if sp.attrs:
                row["attrs"] = dict(sp.attrs)
            out.append(row)
        return out


def span(name: str):
    """Open a span on the active tracer, or the no-op singleton."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NOOP
    return tracer.begin(name)


def render_profile(spans: list[dict]) -> str:
    """Indented text profile of an exported span list (``--profile``)."""
    by_id = {sp["id"]: sp for sp in spans}
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for sp in spans:
        parent = sp.get("parent")
        if parent is None or parent not in by_id:
            roots.append(sp)
        else:
            children.setdefault(parent, []).append(sp)
    lines: list[str] = []

    def emit(sp: dict, depth: int) -> None:
        dur_ms = sp.get("dur_ns", 0) / 1e6
        label = "  " * depth + sp["name"]
        attrs = sp.get("attrs") or {}
        text = " ".join(f"{key}={value}" for key, value in attrs.items())
        line = f"{label:<34} {dur_ms:10.3f} ms"
        if text:
            line += f"  {text}"
        lines.append(line)
        for child in sorted(children.get(sp["id"], []),
                            key=lambda c: c["start_ns"]):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda sp: sp["start_ns"]):
        emit(root, 0)
    return "\n".join(lines)


def phase_totals(spans: list[dict]) -> dict[str, float]:
    """Total seconds per span name (``score_batch`` sums all batches)."""
    totals: dict[str, int] = {}
    for sp in spans:
        totals[sp["name"]] = totals.get(sp["name"], 0) + sp.get("dur_ns", 0)
    return {name: dur / 1e9 for name, dur in totals.items()}
