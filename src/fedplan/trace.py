"""Span recording and validation: the observability surface of an analysis run.

One TraceLog per run, one root span, deterministic counter-based span ids,
and a self-contained JSON-lines export (one span per line) that stays
convertible to richer tracing backends without depending on any.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticBag, ToolError
from .simulator import SimReport


# Not frozen: a span already holds a mutable attributes dict, so freezing
# made it neither hashable nor immutable, and a frozen dataclass costs about
# three times as much to build, which dominated from_sim on large plans.
@dataclass(slots=True)
class Span:
    trace_id: str
    span_id: str
    parent_span_id: str | None
    name: str
    start_ms: float
    end_ms: float
    attributes: dict

    def to_json(self) -> dict:
        return {
            "traceId": self.trace_id,
            "spanId": self.span_id,
            "parentSpanId": self.parent_span_id,
            "name": self.name,
            "startMs": self.start_ms,
            "endMs": self.end_ms,
            "attributes": self.attributes,
        }


@dataclass
class TraceLog:
    trace_id: str = "trace-1"
    spans: list[Span] = field(default_factory=list)
    _counter: int = 0

    def record(
        self,
        name: str,
        parent_span_id: str | None,
        start_ms: float,
        end_ms: float,
        attributes: dict | None = None,
    ) -> str:
        """Append one span; enforces interval validity and parent containment."""
        if end_ms < start_ms:
            raise ToolError("E-BAD-INTERVAL", f"span {name!r} ends before it starts")
        if parent_span_id is not None:
            parent = self.span(parent_span_id)
            if parent is None:
                raise ToolError("E-NO-PARENT", f"unknown parent span {parent_span_id!r}")
            if start_ms < parent.start_ms or end_ms > parent.end_ms:
                raise ToolError(
                    "E-BAD-INTERVAL",
                    f"span {name!r} [{start_ms}, {end_ms}] escapes parent "
                    f"[{parent.start_ms}, {parent.end_ms}]",
                )
        self._counter += 1
        span_id = f"s{self._counter}"
        self.spans.append(
            Span(self.trace_id, span_id, parent_span_id, name, start_ms, end_ms, attributes or {})
        )
        return span_id

    def span(self, span_id: str) -> Span | None:
        for s in self.spans:
            if s.span_id == span_id:
                return s
        return None


def from_sim(report: SimReport) -> TraceLog:
    """Project a simulation timeline into spans: root, one fetch and one parse per request."""
    log = TraceLog(trace_id=f"sim-{report.strategy.value}")
    root = log.record(
        "load",
        None,
        0.0,
        report.time_to_interactive_ms,
        {
            "strategy": report.strategy.value,
            "requests": report.request_count,
            "totalBytes": report.total_bytes,
        },
    )
    for entry in report.timeline:
        log.record(
            "fetch.request",
            root,
            entry.start_ms,
            entry.done_ms,
            {"requestId": entry.request_id, "bytes": entry.size_bytes},
        )
        log.record(
            "parse.module",
            root,
            entry.done_ms,
            entry.parse_done_ms,
            {"requestId": entry.request_id},
        )
    return log


def validate_trace(log: TraceLog) -> list[Diagnostic]:
    """Check TraceLog invariants; empty list iff well-formed."""
    bag = DiagnosticBag()
    by_id: dict[str, Span] = {}
    roots = []
    for s in log.spans:
        if s.span_id in by_id:
            bag.error("E-DUP-SPAN", s.span_id, "span id reused within the trace")
        by_id[s.span_id] = s
        if s.parent_span_id is None:
            roots.append(s.span_id)
        if s.end_ms < s.start_ms:
            bag.error("E-BAD-INTERVAL", s.span_id, "span ends before it starts")
    if not roots:
        bag.error("E-NO-ROOT", "", "trace has no root span")
    elif len(roots) > 1:
        bag.error("E-MULTIROOT", ", ".join(roots), "trace has more than one root span")
    for s in log.spans:
        if s.parent_span_id is None:
            continue
        parent = by_id.get(s.parent_span_id)
        if parent is None:
            bag.error("E-NO-PARENT", s.span_id, f"parent {s.parent_span_id!r} not in trace")
        elif s.start_ms < parent.start_ms or s.end_ms > parent.end_ms:
            bag.error("E-BAD-INTERVAL", s.span_id, "span escapes its parent's interval")
    return bag.items


def export_jsonl(log: TraceLog) -> str:
    """One span per line, stable field order."""
    return "".join(json.dumps(s.to_json()) + "\n" for s in log.spans)
