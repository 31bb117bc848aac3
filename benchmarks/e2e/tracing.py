"""Outside-in span recorder: wraps each layer's public callables, no edits to ``src/``.

The program under test has no timers, so the traced run patches the
*boundaries* between its layers from here: :func:`install` replaces each
callable in :data:`BOUNDARIES` with a wrapper that records one span
``(name, start, end, parent, request)`` into an in-memory :class:`Recorder`.
Per-row functions (``match_*``, ``rows_with_*``) are never wrapped — a
timer there would cost more than the work it times.

Parents follow a :class:`~contextvars.ContextVar`, which asyncio copies into
every task and which each executor thread keeps for itself; a span whose
recorded parent already ended (the update flusher task outlives the request
that started it) becomes a root.  A layer's *self time* is its span minus
the part its child spans cover (:func:`self_times`).

Times are ``time.perf_counter`` readings, which on Linux share one clock
across processes, so server spans and load-generator samples line up.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Iterable

__all__ = ["BOUNDARIES", "Recorder", "Span", "install", "load_spans", "self_times"]

_now = time.perf_counter


class Span:
    """One timed call.  ``note`` carries a boundary-specific observation."""

    __slots__ = ("name", "start", "end", "parent", "request", "note")

    def __init__(self, name: str, start: float, parent: "Span | None", request: "int | None"):
        self.name = name
        self.start = start
        self.end: "float | None" = None
        self.parent = parent
        self.request = request
        self.note = None


class Recorder:
    """Holds the spans of one process; ``enabled`` gates recording at run time."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: "list[Span]" = []
        self.current: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
            "current_span", default=None
        )

    def open(self, name: str, *, start: "float | None" = None, request: "int | None" = None) -> Span:
        """Start a span under the current one and make it current."""
        parent = self.current.get()
        if parent is not None and parent.end is not None:
            parent = None
        if request is None and parent is not None:
            request = parent.request
        span = Span(name, _now() if start is None else start, parent, request)
        self.current.set(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        self.spans.append(span)
        self.current.set(span.parent)

    def wrap(self, name: str, func: Callable, *, leaf_min_s: "float | None" = None,
             note: "Callable[[object], object] | None" = None) -> Callable:
        """*func* with a span around every call.

        ``leaf_min_s`` marks a callable with no traced callees that may run
        very often: it skips the parent bookkeeping and drops calls shorter
        than the threshold (a cached ``Relation.view()`` hit, say).
        """
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                if not self.enabled:
                    return await func(*args, **kwargs)
                span = self.open(name)
                try:
                    result = await func(*args, **kwargs)
                    if note is not None:
                        span.note = note(result)
                    return result
                finally:
                    self.close(span)

            return traced_async

        if leaf_min_s is not None:

            @functools.wraps(func)
            def traced_leaf(*args, **kwargs):
                if not self.enabled:
                    return func(*args, **kwargs)
                start = _now()
                result = func(*args, **kwargs)
                end = _now()
                if end - start >= leaf_min_s:
                    parent = self.current.get()
                    if parent is not None and parent.end is not None:
                        parent = None
                    span = Span(name, start, parent, parent.request if parent else None)
                    span.end = end
                    if note is not None:
                        span.note = note(result)
                    self.spans.append(span)
                return result

            return traced_leaf

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
                if note is not None:
                    span.note = note(result)
                return result
            finally:
                self.close(span)

        return traced

    def records(self) -> "list[dict]":
        """Every finished span as a plain dict (parents by list index)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            {
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": ids.get(id(span.parent)),
                "request": span.request,
                "note": span.note,
            }
            for index, span in enumerate(self.spans)
        ]

    def dump(self, path: str) -> None:
        """Write :meth:`records` as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load_spans(path: str) -> "list[dict]":
    """Read spans written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: "Iterable[dict]") -> "dict[str, list[tuple[float, float]]]":
    """``name -> [(start, self_seconds), …]``: each span minus its children's cover.

    Children of one parent run on one task or thread, so they do not overlap
    each other; a child is clipped to its parent's interval.
    """
    spans = list(spans)
    covered: "dict[int, float]" = defaultdict(float)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            overlap = min(span["end"], parent["end"]) - max(span["start"], parent["start"])
            covered[parent["id"]] += max(0.0, overlap)
    result: "dict[str, list[tuple[float, float]]]" = defaultdict(list)
    for span in spans:
        own = span["end"] - span["start"] - covered[span["id"]]
        result[span["name"]].append((span["start"], max(0.0, own)))
    return result


# -- the layer boundaries --------------------------------------------------------------

#: Calls shorter than this are dropped by leaf wrappers on hot callables: a
#: cached view hit or a trivial plan costs well under it.
LEAF_MIN_S = 20e-6

#: ``span name -> [(module, qualified attribute), …]``.  A function imported
#: by name into another module is patched there too, because that module
#: calls its own binding.  ``leaf`` marks callables with no traced callees.
BOUNDARIES: "dict[str, dict]" = {
    "service.http.dispatch": {"at": [("repro.service.http", "ServiceApp.dispatch")]},
    "service.core.run_query": {"at": [("repro.service.core", "SessionHandle.run_query")]},
    "service.core.enqueue_update": {"at": [("repro.service.core", "SessionHandle.enqueue_update")]},
    "service.core.view_select": {
        "at": [("repro.service.core", "CommittedView.select")],
        "leaf": 0.0,
    },
    "service.core.view_capture": {"at": [("repro.service.core", "CommittedView.capture")]},
    "engine.query.run": {"at": [("repro.engine.query", "QuerySession.run")]},
    "engine.query.update": {"at": [("repro.engine.query", "QuerySession.update")]},
    "engine.maintenance.update": {
        "at": [("repro.engine.maintenance", "MaintainedFixpoint.update")]
    },
    "engine.tabling.lookup": {
        "at": [("repro.engine.tabling", "AnswerTable.lookup")],
        "leaf": 0.0,
        "note": lambda entry: entry is not None,
    },
    "transform.magic.rewrite": {"at": [("repro.transform.magic", "magic_rewrite")]},
    "engine.fixpoint.evaluate": {
        "at": [
            ("repro.engine.fixpoint", "evaluate_program"),
            ("repro.engine.query", "evaluate_program"),
        ]
    },
    "engine.evaluation.plan": {
        "at": [("repro.engine.evaluation", "plan_literal_sequence")],
        "leaf": 0.0,
    },
    "storage.relation.view_rebuild": {
        "at": [("repro.storage.relation", "Relation.view")],
        "leaf": LEAF_MIN_S,
    },
    "io.serialization.rows_to_json": {
        "at": [
            ("repro.io.serialization", "rows_to_json"),
            ("repro.service.core", "rows_to_json"),
        ],
        "leaf": 0.0,
    },
    "io.serialization.instance_from_text": {
        "at": [
            ("repro.io.serialization", "instance_from_text"),
            ("repro.service.core", "instance_from_text"),
        ]
    },
    "parser.parse_program": {
        "at": [
            ("repro.parser.parser", "parse_program"),
            ("repro.parser", "parse_program"),
            ("repro.service.core", "parse_program"),
            ("repro.queries.canonical", "parse_program"),
        ]
    },
    "io.durability.log_commit": {"at": [("repro.io.durability", "SessionDurability.log_commit")]},
    "io.durability.sync": {"at": [("repro.io.durability", "FileSystemShim.fsync")], "leaf": 0.0},
    "io.durability.snapshot": {"at": [("repro.io.durability", "SessionDurability.snapshot")]},
    "io.durability.recover": {"at": [("repro.io.durability", "SessionDurability.recover")]},
}


def install(recorder: Recorder) -> None:
    """Patch every boundary in :data:`BOUNDARIES` to record into *recorder*."""
    import importlib

    for name, spec in BOUNDARIES.items():
        wrapped: "dict[int, Callable]" = {}
        for module_name, qualified in spec["at"]:
            owner = importlib.import_module(module_name)
            *path, attribute = qualified.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            static = isinstance(raw, staticmethod)
            func = raw.__func__ if static else raw
            # One wrapper per underlying function: re-exports share it.
            wrapper = wrapped.get(id(func))
            if wrapper is None:
                wrapper = wrapped[id(func)] = recorder.wrap(
                    name, func, leaf_min_s=spec.get("leaf"), note=spec.get("note")
                )
            setattr(owner, attribute, staticmethod(wrapper) if static else wrapper)
