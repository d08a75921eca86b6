"""Span recording and validation: the observability surface of an analysis run.

One TraceLog per run, one root span, deterministic counter-based span ids,
and a self-contained JSON-lines export (one span per line) that stays
convertible to richer tracing backends without depending on any.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

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
    # Span id -> span, so that record() finds a parent in O(1) however deep
    # the nesting. The first span wins on a duplicate id, as a scan would.
    _by_id: dict[str, Span] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_id = {s.span_id: s for s in reversed(self.spans)}

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
            parent = self._by_id.get(parent_span_id)
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
        span = Span(self.trace_id, span_id, parent_span_id, name, start_ms, end_ms, attributes or {})
        self.spans.append(span)
        self._by_id.setdefault(span_id, span)
        return span_id

    def span(self, span_id: str) -> Span | None:
        return self._by_id.get(span_id)


def from_sim(report: SimReport) -> TraceLog:
    """Project a simulation timeline into spans: root, one fetch and one parse per request.

    The root is s1, and the k-th timeline entry's fetch and parse spans are
    s{2k} and s{2k+1}, the ids record() would give. They are built in one
    loop rather than by 2n record() calls. One chain check per entry,
    0 <= start <= done <= parse done <= TTI, stands for the containment
    record() enforces on both spans; unlike record()'s, it also fails on NaN.
    """
    trace_id = f"sim-{report.strategy.value}"
    tti = report.time_to_interactive_ms
    if tti < 0.0:
        raise ToolError("E-BAD-INTERVAL", "span 'load' ends before it starts")
    attributes = {
        "strategy": report.strategy.value,
        "requests": report.request_count,
        "totalBytes": report.total_bytes,
    }
    spans = [Span(trace_id, "s1", None, "load", 0.0, tti, attributes)]
    n = 1
    for entry in report.timeline:
        start, done, parse_done = entry.start_ms, entry.done_ms, entry.parse_done_ms
        if not 0.0 <= start <= done <= parse_done <= tti:
            raise ToolError(
                "E-BAD-INTERVAL",
                f"request {entry.request_id} times [{start}, {done}, {parse_done}] are not "
                f"ordered within the load [0.0, {tti}]",
            )
        rid = entry.request_id
        fetch = {"requestId": rid, "bytes": entry.size_bytes}
        spans.append(Span(trace_id, f"s{n + 1}", "s1", "fetch.request", start, done, fetch))
        spans.append(Span(trace_id, f"s{n + 2}", "s1", "parse.module", done, parse_done, {"requestId": rid}))
        n += 2
    return TraceLog(trace_id, spans, n)


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
    """One span per line, stable field order.

    Each line is byte-identical to `json.dumps(span.to_json())` for any span,
    with json.dumps's defaults (ASCII escapes, ", " and ": " separators, NaN
    and Infinity as bare words). Strings, finite floats, ints and None are
    written directly, and an attributes dict with `str` keys field by field,
    which saves a json.dumps call, and the encoder it builds, per span.

    Each distinct value is encoded once per call. Two memos, local to the
    call and dropped when it returns, hold the text of every `str` and of
    every finite non-zero `float` seen so far. Each is consulted only for
    values of exactly its type, so 1, 1.0, True and an IntEnum 1 never share
    text. 0.0 and -0.0 compare equal, so zeros stay out of the float memo.
    NaN and the infinities, subclasses, containers and attributes dicts with
    a non-`str` key go to json.dumps, unmemoised. Span ids bypass the memo:
    each is unique in a well-formed trace, so a lookup would only miss.
    """
    strings: dict[str, str] = {}
    floats: dict[float, str] = {}

    # The slow path: a value not in a memo. Memo texts are never empty, so
    # `memo.get(v) or encode(v)` takes it only on a miss.
    def encode(v) -> str:
        t = type(v)
        if t is str:
            text = strings[v] = encode_basestring_ascii(v)
            return text
        if t is float and v - v == 0.0:  # finite
            text = float.__repr__(v)
            if v:
                floats[v] = text
            return text
        if t is int:
            return int.__repr__(v)
        if v is None:
            return "null"
        return json.dumps(v)

    lines = []
    for s in log.spans:
        trace_id = s.trace_id
        trace_id = (type(trace_id) is str and strings.get(trace_id)) or encode(trace_id)
        span_id = s.span_id
        span_id = encode_basestring_ascii(span_id) if type(span_id) is str else encode(span_id)
        parent = s.parent_span_id
        parent = (type(parent) is str and strings.get(parent)) or encode(parent)
        name = s.name
        name = (type(name) is str and strings.get(name)) or encode(name)
        start = s.start_ms
        start = (type(start) is float and floats.get(start)) or encode(start)
        end = s.end_ms
        end = (type(end) is float and floats.get(end)) or encode(end)
        attributes = s.attributes
        if type(attributes) is dict:
            fields = []
            for k, v in attributes.items():
                if type(k) is not str:
                    attributes = json.dumps(attributes)
                    break
                t = type(v)
                if t is str:
                    v = strings.get(v) or encode(v)
                elif t is float:
                    v = floats.get(v) or encode(v)
                elif t is int:
                    v = int.__repr__(v)
                else:
                    v = encode(v)
                fields.append(f"{strings.get(k) or encode(k)}: {v}")
            else:
                attributes = "{" + ", ".join(fields) + "}"
        else:
            attributes = json.dumps(attributes)
        lines.append(
            f'{{"traceId": {trace_id}, "spanId": {span_id}, "parentSpanId": {parent}, '
            f'"name": {name}, "startMs": {start}, "endMs": {end}, "attributes": {attributes}}}\n'
        )
    return "".join(lines)
