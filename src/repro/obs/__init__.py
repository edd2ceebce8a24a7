"""Zero-dependency observability: spans, decision events, metrics,
JSONL traces and the ``repro trace`` renderers.

The subsystem has four layers, each usable alone:

* :mod:`~repro.obs.span` — the :class:`Tracer` (hierarchical timing
  spans) and the module-level :data:`NULL_TRACER` no-op,
* :mod:`~repro.obs.events` — typed decision events with provenance
  (spill, coalesce, split, color),
* :mod:`~repro.obs.metrics` — named counters/histograms and the shared
  summary renderers,
* :mod:`~repro.obs.export` / :mod:`~repro.obs.inspect` — JSONL
  round-tripping plus the tree/summary/diff views.
"""

from .events import (EVENT_KINDS, ColorAssigned, CoalesceDecision,
                     DomTreeColorAssigned, MaxlivePressure, RematCost,
                     SpillCandidateChosen, SpillDecision, SplitInserted,
                     SSASpillDecision, event_fields, event_from_fields)
from .export import (TRACE_VERSION, TraceDocument, TraceEvent, load_trace,
                     parse_trace, trace_lines, trace_meta, trace_to_text,
                     write_trace)
from .inspect import render_diff, render_summary, render_tree
from .metrics import (ALLOCATE_LINE_KEYS, BUCKET_BASE, BUCKET_GROWTH,
                      Counter, Histogram, MetricsRegistry, N_BUCKETS,
                      bucket_index, bucket_upper, metrics_from_allocation,
                      percentile, render_prometheus)
from .span import (NULL_TRACER, NullTracer, Span, Tracer, clamp_span,
                   shift_span, span_from_payload, span_to_payload)

__all__ = [
    "ALLOCATE_LINE_KEYS",
    "BUCKET_BASE",
    "BUCKET_GROWTH",
    "N_BUCKETS",
    "bucket_index",
    "bucket_upper",
    "clamp_span",
    "percentile",
    "render_prometheus",
    "shift_span",
    "span_from_payload",
    "span_to_payload",
    "ColorAssigned",
    "CoalesceDecision",
    "Counter",
    "DomTreeColorAssigned",
    "EVENT_KINDS",
    "Histogram",
    "MaxlivePressure",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RematCost",
    "SSASpillDecision",
    "Span",
    "SpillCandidateChosen",
    "SpillDecision",
    "SplitInserted",
    "TRACE_VERSION",
    "TraceDocument",
    "TraceEvent",
    "Tracer",
    "event_fields",
    "event_from_fields",
    "load_trace",
    "metrics_from_allocation",
    "parse_trace",
    "render_diff",
    "render_summary",
    "render_tree",
    "trace_lines",
    "trace_meta",
    "trace_to_text",
    "write_trace",
]
