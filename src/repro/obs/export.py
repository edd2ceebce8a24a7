"""JSONL trace export and import.

One trace is one JSON-Lines document:

* a ``meta`` line — schema version plus allocation identity (function,
  mode, machine, register counts),
* one ``span`` line per span, pre-order, with ``id``/``parent`` links,
  start offsets relative to the root and durations in seconds,
* one ``event`` line per decision event, flattened
  (``kind`` + the event dataclass's fields) and annotated with the
  owning span's id and the enclosing round index,
* a final ``metrics`` line — the :class:`MetricsRegistry` snapshot.

The format is append-only-friendly and versioned; readers tolerate
unknown event kinds (they load as dicts, see
:func:`repro.obs.events.event_from_fields`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from .events import event_fields, event_from_fields
from .metrics import MetricsRegistry
from .span import Span

#: bump when a line's shape changes incompatibly
TRACE_VERSION = 1

_RESERVED = ("type", "kind", "span", "round")


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass
class TraceEvent:
    """One decision event as read back from a trace."""

    kind: str
    span_id: int
    round: int | None
    #: the typed event dataclass (or a dict for unknown kinds)
    event: Any

    def get(self, name: str, default: Any = None) -> Any:
        if isinstance(self.event, dict):
            return self.event.get(name, default)
        return getattr(self.event, name, default)


def trace_meta(result: Any, source: str) -> dict[str, Any]:
    """The identity block of a trace's ``meta`` line for an
    :class:`~repro.regalloc.AllocationResult` (``repro trace`` and the
    served ``trace`` op share it)."""
    machine = result.machine
    return {"function": result.function.name, "mode": result.mode.value,
            "allocator": result.allocator, "machine": machine.name,
            "int_regs": machine.int_regs,
            "float_regs": machine.float_regs, "source": source}


def trace_lines(root: Span, meta: dict[str, Any],
                metrics: MetricsRegistry | None = None) -> Iterator[str]:
    """The JSONL lines of one trace (no trailing newline per line)."""
    yield json.dumps({"type": "meta", "version": TRACE_VERSION,
                      **{k: _json_safe(v) for k, v in meta.items()}},
                     sort_keys=False)

    ids: dict[int, int] = {}
    origin = root.start

    def walk(span: Span, parent: int | None,
             round_index: int | None) -> Iterator[str]:
        span_id = len(ids)
        ids[id(span)] = span_id
        if span.name == "round":
            round_index = span.attrs.get("index")
        yield json.dumps({
            "type": "span", "id": span_id, "parent": parent,
            "name": span.name,
            "start": round(span.start - origin, 9),
            "dur": round(span.duration, 9),
            "attrs": {k: _json_safe(v) for k, v in span.attrs.items()},
        })
        for event in span.events:
            payload = {k: _json_safe(v)
                       for k, v in event_fields(event).items()}
            assert not any(k in payload for k in _RESERVED), payload
            yield json.dumps({"type": "event", "kind": event.kind,
                              "span": span_id, "round": round_index,
                              **payload})
        for child in span.children:
            yield from walk(child, span_id, round_index)

    yield from walk(root, None, None)
    if metrics is not None:
        yield json.dumps({"type": "metrics", **metrics.snapshot()})


def trace_to_text(root: Span, meta: dict[str, Any],
                  metrics: MetricsRegistry | None = None) -> str:
    return "\n".join(trace_lines(root, meta, metrics)) + "\n"


def write_trace(path: str, root: Span, meta: dict[str, Any],
                metrics: MetricsRegistry | None = None) -> None:
    with open(path, "w") as handle:
        for line in trace_lines(root, meta, metrics):
            handle.write(line + "\n")


@dataclass
class TraceDocument:
    """A parsed trace: meta, the span tree, events, metrics."""

    meta: dict[str, Any] = field(default_factory=dict)
    root: Span | None = None
    events: list[TraceEvent] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)

    # -- convenience views ----------------------------------------------------

    def events_of(self, kind: str,
                  round_index: int | None = None) -> list[TraceEvent]:
        return [e for e in self.events
                if e.kind == kind
                and (round_index is None or e.round == round_index)]

    @property
    def rounds(self) -> list[Span]:
        if self.root is None:
            return []
        return [s for s in self.root.walk() if s.name == "round"]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def counter(self, name: str, default: int = 0) -> int:
        return self.metrics.get("counters", {}).get(name, default)


def parse_trace(text: str) -> TraceDocument:
    """Parse the JSONL *text* of one trace back into a document."""
    doc = TraceDocument()
    spans: dict[int, Span] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: not JSON: {exc}")
        rtype = record.get("type")
        if rtype == "meta":
            doc.meta = {k: v for k, v in record.items() if k != "type"}
        elif rtype == "span":
            span = Span(record["name"], record.get("attrs") or None,
                        start=record["start"],
                        end=record["start"] + record["dur"])
            spans[record["id"]] = span
            parent = record.get("parent")
            if parent is None:
                doc.root = span
            else:
                spans[parent].children.append(span)
        elif rtype == "event":
            data = {k: v for k, v in record.items() if k not in _RESERVED}
            event = event_from_fields(record["kind"], data)
            traced = TraceEvent(kind=record["kind"],
                                span_id=record["span"],
                                round=record.get("round"), event=event)
            doc.events.append(traced)
            owner = spans.get(record["span"])
            if owner is not None:
                owner.events.append(event)
        elif rtype == "metrics":
            doc.metrics = {k: v for k, v in record.items() if k != "type"}
        else:
            raise ValueError(f"trace line {lineno}: unknown type {rtype!r}")
    if doc.root is None:
        raise ValueError("trace has no root span")
    return doc


def load_trace(path: str) -> TraceDocument:
    with open(path) as handle:
        return parse_trace(handle.read())
