from __future__ import annotations

import enum
import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedplan.diagnostics import ToolError
from fedplan.graph import build_graph
from fedplan.manifest import load_workspace
from fedplan.planner import LoadStrategy, plan
from fedplan.shares import build_share_scope, resolve_shares
from fedplan.simulator import NetworkModel, SimReport, TimelineEntry, simulate
from fedplan.trace import Span, TraceLog, export_jsonl, from_sim, validate_trace

from conftest import FIXTURES, deadline
from oracles import reference_from_sim

NET = NetworkModel(rtt_ms=100, bandwidth_bytes_per_ms=100, parse_ms_per_kb=0)


def _report(strategy=LoadStrategy.LAZY, fixture="fig1"):
    w, _ = load_workspace(str(FIXTURES / fixture / "host" / "federation.json"))
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    return simulate(plan(g, res, strategy), NET)


def test_record_nested_spans():
    log = TraceLog()
    root = log.record("analysis", None, 0, 500)
    child = log.record("resolve.shares", root, 10, 40)
    assert [s.span_id for s in log.spans] == [root, child] == ["s1", "s2"]
    assert log.span(child).parent_span_id == root


def test_record_rejects_escaping_child():
    log = TraceLog()
    root = log.record("analysis", None, 0, 500)
    with pytest.raises(ToolError) as err:
        log.record("fetch.request", root, 10, 600)
    assert err.value.code == "E-BAD-INTERVAL"


def test_record_rejects_unknown_parent():
    log = TraceLog()
    with pytest.raises(ToolError) as err:
        log.record("fetch.request", "s99", 0, 1)
    assert err.value.code == "E-NO-PARENT"


def test_record_rejects_negative_interval():
    log = TraceLog()
    with pytest.raises(ToolError) as err:
        log.record("analysis", None, 10, 5)
    assert err.value.code == "E-BAD-INTERVAL"


def test_record_ids_are_deterministic_counters():
    a, b = TraceLog(), TraceLog()
    for log in (a, b):
        root = log.record("analysis", None, 0, 10)
        log.record("step", root, 1, 2)
    assert [s.span_id for s in a.spans] == [s.span_id for s in b.spans]


def test_from_sim_single_request():
    p_report = _report()
    single = _report(LoadStrategy.SSR)
    log = from_sim(single)
    assert len(log.spans) == 3
    root, fetch, parse = log.spans
    assert root.name == "load" and root.start_ms == 0.0
    assert root.end_ms == single.time_to_interactive_ms
    assert fetch.name == "fetch.request"
    assert (fetch.start_ms, fetch.end_ms) == (
        single.timeline[0].start_ms,
        single.timeline[0].done_ms,
    )
    assert parse.name == "parse.module"
    assert (parse.start_ms, parse.end_ms) == (
        single.timeline[0].done_ms,
        single.timeline[0].parse_done_ms,
    )
    assert validate_trace(log) == []
    assert p_report.request_count * 2 + 1 == len(from_sim(p_report).spans)


def test_from_sim_lazy_chain_has_seven_nonoverlapping_fetches():
    log = from_sim(_report(LoadStrategy.LAZY))
    assert len(log.spans) == 7
    fetches = sorted(
        ((s.start_ms, s.end_ms) for s in log.spans if s.name == "fetch.request")
    )
    for (_, prev_end), (start, _) in zip(fetches, fetches[1:]):
        assert start >= prev_end


def test_from_sim_bytes_sum_matches_total():
    for strategy in LoadStrategy:
        report = _report(strategy, fixture="fig1_shared")
        log = from_sim(report)
        fetched = sum(
            s.attributes["bytes"] for s in log.spans if s.name == "fetch.request"
        )
        assert fetched == report.total_bytes
        assert len(log.spans) == 1 + 2 * report.request_count
        assert validate_trace(log) == []


def test_from_sim_empty_report():
    empty = SimReport(LoadStrategy.LAZY, 0.0, 0.0, 0, 0, 0, 0, ())
    log = from_sim(empty)
    assert len(log.spans) == 1
    assert log.spans[0].start_ms == log.spans[0].end_ms == 0.0
    assert validate_trace(log) == []


def test_validate_detects_multiple_roots():
    log = TraceLog(
        spans=[
            Span("t", "s1", None, "a", 0, 10, {}),
            Span("t", "s2", None, "b", 0, 10, {}),
        ]
    )
    assert [d.code for d in validate_trace(log)] == ["E-MULTIROOT"]


def test_validate_allows_overlapping_siblings():
    log = TraceLog(
        spans=[
            Span("t", "s1", None, "root", 0, 100, {}),
            Span("t", "s2", "s1", "a", 0, 60, {}),
            Span("t", "s3", "s1", "b", 40, 90, {}),
        ]
    )
    assert validate_trace(log) == []


def test_validate_detects_orphans_and_duplicates():
    log = TraceLog(
        spans=[
            Span("t", "s1", None, "root", 0, 100, {}),
            Span("t", "s1", "s9", "dup", 0, 10, {}),
        ]
    )
    codes = sorted(d.code for d in validate_trace(log))
    assert codes == ["E-DUP-SPAN", "E-NO-PARENT"]


def test_validate_empty_log():
    assert [d.code for d in validate_trace(TraceLog())] == ["E-NO-ROOT"]


def test_export_jsonl_round_trips():
    log = from_sim(_report())
    lines = export_jsonl(log).splitlines()
    assert len(lines) == len(log.spans)
    first = json.loads(lines[0])
    assert list(first) == [
        "traceId",
        "spanId",
        "parentSpanId",
        "name",
        "startMs",
        "endMs",
        "attributes",
    ]
    assert first["parentSpanId"] is None
    assert first["traceId"] == "sim-lazy"


def test_record_nests_a_long_chain_in_linear_time():
    log = TraceLog()
    parent = log.record("root", None, 0, 20_000)
    with deadline(5):
        for i in range(1, 20_000):
            parent = log.record("step", parent, i, 20_000)
    assert parent == "s20000"
    assert log.span("s20000").parent_span_id == "s19999"


def test_span_lookup_keeps_the_first_of_duplicate_ids():
    first = Span("t", "s1", None, "root", 0, 10, {})
    log = TraceLog(spans=[first, Span("t", "s1", None, "dup", 0, 1, {})], _counter=1)
    assert log.span("s1") is first
    log.record("child", "s1", 2, 9)
    assert log.span("s2").parent_span_id == "s1"


def _single_request_report(start, done, parse_done, tti):
    entry = TimelineEntry(0, start, start, done, parse_done, 100)
    return SimReport(LoadStrategy.SSR, tti, tti, 100, 1, 1, 1, (entry,))


@pytest.mark.parametrize(
    "times",
    [(0.0, 5.0, 12.0, 10.0), (-1.0, 5.0, 8.0, 10.0), (6.0, 5.0, 8.0, 10.0), (0.0, 5.0, 4.0, 10.0)],
    ids=["parse-past-tti", "starts-before-load", "fetch-reversed", "parse-reversed"],
)
def test_from_sim_rejects_entry_outside_the_load(times):
    with pytest.raises(ToolError) as err:
        from_sim(_single_request_report(*times))
    assert err.value.code == "E-BAD-INTERVAL"


def test_record_after_from_sim_continues_the_counter():
    report = _report(LoadStrategy.LAZY)
    log = from_sim(report)
    n = report.request_count
    assert [s.span_id for s in log.spans] == [f"s{i}" for i in range(1, 2 * n + 2)]
    last_parse = log.spans[-1]
    child = log.record("after", last_parse.span_id, last_parse.start_ms, last_parse.end_ms)
    assert child == f"s{2 * n + 2}"
    assert validate_trace(log) == []


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_text = st.text(max_size=8)
# Values that equal one another but are written differently, drawn often so
# that one log repeats them: export_jsonl's memos must keep them apart.
_NAN, _INF = float("nan"), float("inf")
_traps = st.sampled_from([0.0, -0.0, 1, 1.0, True, _Level.LOW, _NAN, _INF, -_INF, "s1"])
_scalar = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities included
    | _text
    | st.sampled_from(list(_Level))
    | _traps
)
_key = _text | st.integers() | st.floats() | st.booleans() | st.none()
_json_value = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_key, inner, max_size=3),
    max_leaves=8,
)
_time = st.integers() | st.floats() | _traps
_span = st.builds(
    Span,
    _text,
    _text,
    st.none() | _text,
    _text,
    _time,
    _time,
    st.dictionaries(_text, _json_value, max_size=4) | st.dictionaries(_key, _json_value, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_span, max_size=4))
@example([Span("t\u00e9\x00\n\u2028", "s1", None, "\ud83d\ude00", 0, 1.5, {})])
@example([Span("t", "s1", "s0", "n", float("nan"), float("inf"), {"a": -float("inf"), "b": True})])
@example([Span("t", "s1", None, "n", 1, 2, {"level": _Level.HIGH, 3: "x", "nested": {"k": [1.0, None]}})])
@example(
    # One log that repeats every value a memo could confuse, in both orders.
    [
        Span("s1", "s1", None, "s1", 0.0, -0.0, {"z": 0.0, "nz": -0.0, "id": "s1"}),
        Span("s1", "s2", "s1", "s1", -0.0, 0.0, {"nz": -0.0, "z": 0.0, "s1": "s1"}),
        Span("s1", "s3", "s1", "t", 1.0, 1, {"f": 1.0, "i": 1, "b": True, "e": _Level.LOW}),
        Span("s1", "s4", "s1", "t", 1, 1.0, {"b": True, "e": _Level.LOW, "i": 1, "f": 1.0}),
        Span("s1", "s5", "s1", "t", True, _Level.LOW, {"e": _Level.LOW, "b": True, "f": 1.0}),
        Span("s1", "s6", "s1", "t", _NAN, _NAN, {"nan": _NAN, "inf": _INF, "ninf": -_INF}),
        Span("s1", "s7", "s1", "t", -_INF, _INF, {"ninf": -_INF, "inf": _INF, "nan": float("nan")}),
    ]
    + [Span("s1", f"s{i}", "s1", "t", i % 3 + 0.5, i % 5 + 0.25, {"at": i % 3 + 0.5}) for i in range(8, 40)]
)
def test_export_jsonl_equals_json_dumps_per_span(spans):
    log = TraceLog(spans=spans)
    assert export_jsonl(log) == "".join(json.dumps(s.to_json()) + "\n" for s in log.spans)


_NAN_INTERVALS = [(_NAN, _NAN), (0.0, _NAN), (_NAN, 1.0)]


@pytest.mark.parametrize("start, end", _NAN_INTERVALS)
def test_record_rejects_a_nan_interval(start, end):
    log = TraceLog()
    with pytest.raises(ToolError) as err:
        log.record("a", None, start, end)
    assert err.value.code == "E-BAD-INTERVAL"
    assert log.spans == []


@pytest.mark.parametrize("start, end", _NAN_INTERVALS + [(0.0, _INF)])
def test_record_rejects_a_child_of_a_nan_parent(start, end):
    log = TraceLog(spans=[Span("t", "s1", None, "a", _NAN, _NAN, {})], _counter=1)
    with pytest.raises(ToolError) as err:
        log.record("b", "s1", start, end)
    assert err.value.code == "E-BAD-INTERVAL"


@pytest.mark.parametrize("start, end", _NAN_INTERVALS)
def test_record_rejects_a_nan_child(start, end):
    log = TraceLog()
    log.record("a", None, 0.0, 10.0)
    with pytest.raises(ToolError) as err:
        log.record("b", "s1", start, end)
    assert err.value.code == "E-BAD-INTERVAL"


def test_validate_rejects_nan_intervals():
    nan_root = TraceLog(
        spans=[Span("t", "s1", None, "a", _NAN, _NAN, {}), Span("t", "s2", "s1", "b", 0.0, _INF, {})]
    )
    assert [(d.code, d.path) for d in validate_trace(nan_root)] == [
        ("E-BAD-INTERVAL", "s1"),
        ("E-BAD-INTERVAL", "s2"),
    ]
    nan_child = TraceLog(
        spans=[Span("t", "s1", None, "a", 0.0, 10.0, {}), Span("t", "s2", "s1", "b", _NAN, 5.0, {})]
    )
    assert [(d.code, d.path) for d in validate_trace(nan_child)] == [
        ("E-BAD-INTERVAL", "s2"),
        ("E-BAD-INTERVAL", "s2"),
    ]


_READS = {
    "spans": lambda log: log.spans,
    "span": lambda log: log.span("s2"),
    "record": lambda log: log.record("after", "s1", 0.0, 0.0),
    "validate_trace": validate_trace,
    "eq": lambda log: log == TraceLog(log.trace_id),
    "repr": repr,
}


@pytest.mark.parametrize("read", list(_READS))
def test_from_sim_builds_spans_on_first_read(read):
    report = _report(LoadStrategy.PREFETCH, fixture="fig1_shared")
    log = from_sim(report)
    text = export_jsonl(log)
    assert "spans" not in vars(log)  # exported from the timeline columns
    _READS[read](log)
    assert "spans" in vars(log)
    assert log.spans[: 1 + 2 * report.request_count] == reference_from_sim(report)
    assert log._counter == 1 + 2 * report.request_count + (read == "record")
    assert export_jsonl(from_sim(report)) == text


# Times and ints of two kinds. Plain ones, which the row template of
# export_jsonl can write, repeat across columns so that rows share times.
# Traps equal a plain value but are written differently, or are not finite.
_plain_time = st.sampled_from([0.0, 0.1, 1.0, 2.5, 7.0, 5e-324, 1e300]) | st.floats(min_value=0.0, max_value=1e4)
_trap_time = st.sampled_from([-0.0, 0, 1, 7, True, _Level.LOW, _INF, _NAN, -1.0])
_plain_int = st.integers(min_value=0, max_value=3) | st.integers(min_value=-(2**80), max_value=2**80)
_trap_int = st.booleans() | st.sampled_from(list(_Level))
# Any object with a `value` stands in for a strategy: the trace id is built
# from its value, which may need escaping in JSON or in a %-template.
_strategy = st.sampled_from(list(LoadStrategy)) | st.builds(
    SimpleNamespace, value=st.sampled_from(["%", "%s", "%d%%", "\u00e9\n\"", 5]) | _text
)


@st.composite
def _sim_reports(draw):
    plain = draw(st.booleans())
    time = _plain_time if plain else _plain_time | _trap_time
    number = _plain_int if plain else _plain_int | _trap_int
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        times = draw(st.lists(time, min_size=3, max_size=3))
        if draw(st.integers(min_value=0, max_value=4)):  # mostly ordered
            times.sort()
        start, done, parse_done = times
        entries.append(TimelineEntry(draw(number), start, start, done, parse_done, draw(number)))
    last = max((e.parse_done_ms for e in entries), default=0.0)
    tti = draw(st.sampled_from([last, last, _INF, _NAN, -0.0, -1.0]) | time)
    return SimReport(draw(_strategy), tti, tti, draw(number), len(entries), 1, 1, tuple(entries))


@settings(max_examples=200, deadline=None)
@given(_sim_reports())
@example(_single_request_report(0.0, 5.0, 5.0, 5.0))
@example(_single_request_report(-0.0, 0.0, 0.0, 1.0))
@example(_single_request_report(0, 1, 2, 3))
@example(_single_request_report(1.0, 2.0, 2.0, _INF))
@example(SimReport(SimpleNamespace(value="%d"), 2.0, 2.0, 1, 1, 1, 1, (TimelineEntry(3, 0.5, 0.5, 1.0, 2.0, 9),)))
def test_from_sim_projection_matches_the_eager_reference(report):
    try:
        expected = reference_from_sim(report)
    except ToolError as exc:
        with pytest.raises(ToolError) as err:
            from_sim(report)
        assert (err.value.code, err.value.message) == (exc.code, exc.message)
        return
    text = export_jsonl(from_sim(report))
    assert text == "".join(json.dumps(s.to_json()) + "\n" for s in from_sim(report).spans)
    built = from_sim(report)
    assert built.spans == expected
    assert export_jsonl(built) == text
