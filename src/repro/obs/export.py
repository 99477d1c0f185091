"""Span exporters.

Two interchange formats (both written through :mod:`repro.io.jsonio`):

* **JSON-lines** — one span per line, the :meth:`Span.to_dict` form;
  greppable, streamable, the archival format.
* **Chrome ``trace_event``** — a ``{"traceEvents": [...]}`` document of
  complete (``ph: "X"``) events plus instant (``ph: "i"``) events for
  span annotations; drop it into ``chrome://tracing`` / Perfetto.

The human-facing aggregate of a trace is the per-path profile in
:mod:`repro.obs.profile`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import SerializationError
from ..io.jsonio import dump_json, dump_jsonl
from .tracer import Span


def spans_to_jsonl_rows(spans: Sequence[Span]) -> List[dict]:
    return [sp.to_dict() for sp in spans]


def write_spans_jsonl(path: str, spans: Sequence[Span]) -> str:
    """Export spans as JSON-lines; returns the path."""
    return dump_jsonl(path, spans_to_jsonl_rows(spans))


def chrome_trace(spans: Sequence[Span],
                 process_name: str = "repro") -> dict:
    """Spans as a Chrome ``trace_event`` document (times in µs)."""
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process_name},
    }]
    for sp in spans:
        if not sp.finished:
            raise SerializationError(
                f"cannot export unfinished span {sp.name!r}")
        start_us = sp.start_s * 1e6
        events.append({
            "name": sp.name, "cat": "span", "ph": "X",
            "ts": start_us, "dur": sp.duration_s * 1e6,
            "pid": 1, "tid": 1,
            "args": {"span_id": sp.span_id,
                     "parent_id": sp.parent_id, **sp.attrs},
        })
        for ev in sp.events:
            events.append({
                "name": ev.name, "cat": "event", "ph": "i",
                "ts": ev.time_s * 1e6, "pid": 1, "tid": 1, "s": "t",
                "args": {"span_id": sp.span_id, **ev.attrs},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       process_name: str = "repro") -> str:
    """Export spans as a Chrome trace JSON file; returns the path."""
    return dump_json(path, chrome_trace(spans, process_name))
