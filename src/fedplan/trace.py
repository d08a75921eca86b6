"""Span recording and validation: the observability surface of an analysis run.

One TraceLog per run, one root span, deterministic counter-based span ids,
and a self-contained JSON-lines export (one span per line) that stays
convertible to richer tracing backends without depending on any.

A log made by `from_sim` is a projection of the simulation timeline. It
holds the timeline as columns and builds its `Span` objects on the first
read of anything that needs them: `spans`, `span()`, `record()`,
`validate_trace`, equality or repr. Until then, `export_jsonl` writes its
lines straight from the columns, so a what-if query that only exports its
trace never makes a `Span`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import copysign, inf
from operator import attrgetter, le
from typing import NamedTuple

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
    # Not a field. A log from from_sim holds its _Projection here, and no
    # `spans` or `_by_id`, until the first read of either builds them.
    _projection = None

    def __post_init__(self) -> None:
        self._by_id = {s.span_id: s for s in reversed(self.spans)}

    def __getattr__(self, name: str):
        # Called only for an attribute the instance does not hold.
        projection = self._projection
        if projection is None or name not in ("spans", "_by_id"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._projection = None
        self.spans = projection.spans()
        self.__post_init__()
        return getattr(self, name)

    def record(
        self,
        name: str,
        parent_span_id: str | None,
        start_ms: float,
        end_ms: float,
        attributes: dict | None = None,
    ) -> str:
        """Append one span; enforces interval validity and parent containment.

        Both checks are written so that a NaN bound fails them.
        """
        if not start_ms <= end_ms:
            raise ToolError("E-BAD-INTERVAL", f"span {name!r} ends before it starts")
        if parent_span_id is not None:
            parent = self._by_id.get(parent_span_id)
            if parent is None:
                raise ToolError("E-NO-PARENT", f"unknown parent span {parent_span_id!r}")
            if not (parent.start_ms <= start_ms and end_ms <= parent.end_ms):
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


_ENTRY_COLUMNS = attrgetter("request_id", "start_ms", "done_ms", "parse_done_ms", "size_bytes")


class _Projection(NamedTuple):
    """A simulation timeline as columns, one row per entry, in timeline order."""

    trace_id: str
    tti: float
    attributes: dict  # the root span's
    ids: tuple
    starts: tuple
    dones: tuple
    parse_dones: tuple
    sizes: tuple

    def root(self) -> Span:
        return Span(self.trace_id, "s1", None, "load", 0.0, self.tti, self.attributes)

    def spans(self) -> list[Span]:
        """The root, then a fetch span and a parse span per entry: s1 ... s{2n+1}."""
        n = len(self.ids)
        trace_id = self.trace_id
        fetches = map(
            Span, repeat(trace_id), map("s{}".format, range(2, 2 * n + 2, 2)), repeat("s1"),
            repeat("fetch.request"), self.starts, self.dones,
            [{"requestId": rid, "bytes": size} for rid, size in zip(self.ids, self.sizes)],
        )
        parses = map(
            Span, repeat(trace_id), map("s{}".format, range(3, 2 * n + 3, 2)), repeat("s1"),
            repeat("parse.module"), self.dones, self.parse_dones, [{"requestId": rid} for rid in self.ids],
        )
        return [self.root(), *chain.from_iterable(zip(fetches, parses))]

    def export(self) -> str | None:
        """The JSON lines of `spans()`, or None when a row holds a value the
        row template would not write as json.dumps does.

        The root line goes through the generic encoder. Each entry's fetch
        and parse lines come from one %-template: ids and sizes must be exact
        ints and times exact floats, finite and not -0.0. from_sim's check put
        every time in [0.0, TTI] with NaN excluded, so the times are finite
        if the largest parse end is, and -0.0 is their only possible negative
        sign. Each distinct time is formatted once.
        """
        ids, starts, dones, parse_dones, sizes = self.ids, self.starts, self.dones, self.parse_dones, self.sizes
        times = (*starts, *dones, *parse_dones)
        if (
            not {*map(type, ids), *map(type, sizes)} <= {int}
            or not set(map(type, times)) <= {float}
            or max(parse_dones, default=0.0) == inf
            or min(map(copysign, repeat(1.0), times), default=1.0) < 0.0
        ):
            return None
        distinct = set(times)
        text = dict(zip(distinct, map(float.__repr__, distinct))).__getitem__
        trace_id = encode_basestring_ascii(self.trace_id).replace("%", "%%")
        row = (
            f'{{"traceId": {trace_id}, "spanId": "s%d", "parentSpanId": "s1", "name": "fetch.request", '
            '"startMs": %s, "endMs": %s, "attributes": {"requestId": %d, "bytes": %d}}\n'
            f'{{"traceId": {trace_id}, "spanId": "s%d", "parentSpanId": "s1", "name": "parse.module", '
            '"startMs": %s, "endMs": %s, "attributes": {"requestId": %d}}\n'
        )
        n = len(ids)
        rows = zip(
            range(2, 2 * n + 2, 2), map(text, starts), map(text, dones), ids, sizes,
            range(3, 2 * n + 3, 2), map(text, dones), map(text, parse_dones), ids,
        )
        return _encode_spans([self.root()]) + "".join(map(row.__mod__, rows))


def from_sim(report: SimReport) -> TraceLog:
    """Project a simulation timeline into spans: root, one fetch and one parse per request.

    The root is s1, and the k-th timeline entry's fetch and parse spans are
    s{2k} and s{2k+1}, the ids record() would give. The log holds the
    timeline as columns and builds the spans when first read (see the module
    docstring). The checks run here: one chain per entry,
    0 <= start <= done <= parse done <= TTI, stands for the containment
    record() enforces on both spans, and like record()'s it fails on NaN.
    Times must be numbers; other values raise TypeError, not E-BAD-INTERVAL.
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
    ids, starts, dones, parse_dones, sizes = tuple(zip(*map(_ENTRY_COLUMNS, report.timeline))) or ((),) * 5
    # Column-wise at C speed; the first bad entry is looked up only on failure.
    if not (
        all(map(le, repeat(0.0), starts))
        and all(map(le, starts, dones))
        and all(map(le, dones, parse_dones))
        and all(map(le, parse_dones, repeat(tti)))
    ):
        for rid, start, done, parse_done in zip(ids, starts, dones, parse_dones):
            if not 0.0 <= start <= done <= parse_done <= tti:
                raise ToolError(
                    "E-BAD-INTERVAL",
                    f"request {rid} times [{start}, {done}, {parse_done}] are not "
                    f"ordered within the load [0.0, {tti}]",
                )
    # No __init__: the log holds neither `spans` nor `_by_id` until first read.
    log = TraceLog.__new__(TraceLog)
    log.trace_id = trace_id
    log._counter = 1 + 2 * len(ids)
    log._projection = _Projection(trace_id, tti, attributes, ids, starts, dones, parse_dones, sizes)
    return log


def validate_trace(log: TraceLog) -> list[Diagnostic]:
    """Check TraceLog invariants; empty list iff well-formed.

    The interval checks are written so that a NaN bound fails them.
    """
    bag = DiagnosticBag()
    by_id: dict[str, Span] = {}
    roots = []
    for s in log.spans:
        if s.span_id in by_id:
            bag.error("E-DUP-SPAN", s.span_id, "span id reused within the trace")
        by_id[s.span_id] = s
        if s.parent_span_id is None:
            roots.append(s.span_id)
        if not s.start_ms <= s.end_ms:
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
        elif not (parent.start_ms <= s.start_ms and s.end_ms <= parent.end_ms):
            bag.error("E-BAD-INTERVAL", s.span_id, "span escapes its parent's interval")
    return bag.items


def export_jsonl(log: TraceLog) -> str:
    """One span per line, stable field order.

    Each line is byte-identical to `json.dumps(span.to_json())` for any span,
    with json.dumps's defaults (ASCII escapes, ", " and ": " separators, NaN
    and Infinity as bare words). A log from from_sim whose spans were never
    read is written from its timeline columns when their values allow it
    (see `_Projection.export`); every other log goes through `_encode_spans`.
    """
    projection = log._projection
    text = None if projection is None else projection.export()
    return _encode_spans(log.spans) if text is None else text


def _encode_spans(spans: list[Span]) -> str:
    """The generic encoder of export_jsonl.

    Strings, finite floats, ints and None are written directly, and an
    attributes dict with `str` keys field by field, which saves a json.dumps
    call, and the encoder it builds, per span.

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
    for s in spans:
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
