from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedplan.diagnostics import ToolError
from fedplan.graph import Edge, ModuleGraph, ModuleNode, build_graph, waterfall_depth
from fedplan.manifest import load_workspace
from fedplan.planner import FetchRequest, LoadPlan, LoadStrategy, Trigger, longest_chain, plan, required_bytes
from fedplan.shares import build_share_scope, empty_resolution, resolve_shares
from fedplan.simulator import NetworkModel, compare_strategies, network_from_json, simulate

from conftest import FIXTURES, deadline
from oracles import exact_simulate, fluid_integrate

FAST_NET = NetworkModel(rtt_ms=100, bandwidth_bytes_per_ms=100, max_concurrent=6, parse_ms_per_kb=0)


def request(rid, payload, size, deps=(), trigger=Trigger("root"), dynamic=False):
    return FetchRequest(
        id=rid,
        payload=frozenset(payload),
        size_bytes=size,
        depends_on=frozenset(deps),
        trigger=trigger,
        dynamic_trigger=dynamic,
    )


def make_plan(requests, strategy=LoadStrategy.LAZY, root=("a", "root"), duplicate=0):
    return LoadPlan(strategy, tuple(requests), duplicate, root)


def fig1_pipeline(fixture="fig1"):
    w, _ = load_workspace(str(FIXTURES / fixture / "host" / "federation.json"))
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    return g, res


def test_single_request_closed_form():
    p = make_plan([request(0, [("a", "root")], 10000)])
    report = simulate(p, FAST_NET)
    assert report.time_to_interactive_ms == pytest.approx(200.0, abs=1e-9)
    entry = report.timeline[0]
    assert (entry.start_ms, entry.headers_ms, entry.done_ms) == (0.0, 100.0, 200.0)


def test_lazy_chain_600ms():
    g, res = fig1_pipeline()
    report = simulate(plan(g, res, LoadStrategy.LAZY), FAST_NET)
    assert report.time_to_interactive_ms == pytest.approx(600.0, abs=1e-9)
    assert report.time_to_first_render_ms == pytest.approx(200.0, abs=1e-9)
    assert report.waterfall_rounds == 3
    # Fetch phases never overlap in a pure chain.
    spans = sorted((e.start_ms, e.done_ms) for e in report.timeline)
    for (_, prev_done), (start, _) in zip(spans, spans[1:]):
        assert start >= prev_done


def test_prefetch_fig1_derived_by_fluid_oracle():
    # Value derived with the independent fair-share integrator (see oracles
    # .fluid_integrate) and frozen: manifest and entry share the link until
    # 140 ms, the entry finishes alone at 220 ms, and the two remote modules
    # split the link from 240 ms until 440 ms.
    g, res = fig1_pipeline()
    p = plan(g, res, LoadStrategy.PREFETCH)
    report = simulate(p, FAST_NET)
    assert report.time_to_interactive_ms == pytest.approx(440.0, abs=1e-9)
    assert report.time_to_first_render_ms == pytest.approx(220.0, abs=1e-9)
    oracle = fluid_integrate(p, FAST_NET, dt=0.05)
    assert max(times[2] for times in oracle.values()) == pytest.approx(440.0, abs=0.5)
    for entry in report.timeline:
        start, done, parse_done = oracle[entry.request_id]
        assert start == pytest.approx(entry.start_ms, abs=0.5)
        assert done == pytest.approx(entry.done_ms, abs=0.5)
        assert parse_done == pytest.approx(entry.parse_done_ms, abs=0.5)


def test_engine_matches_fluid_oracle_on_slow_net():
    g, res = fig1_pipeline("fig1_shared")
    net = NetworkModel(
        rtt_ms=80,
        bandwidth_bytes_per_ms=40,
        max_concurrent=2,
        parse_ms_per_kb=0.5,
        interaction_delay_ms=30,
    )
    for strategy in LoadStrategy:
        p = plan(g, res, strategy)
        report = simulate(p, net)
        oracle = fluid_integrate(p, net, dt=0.05)
        for entry in report.timeline:
            assert oracle[entry.request_id][2] == pytest.approx(entry.parse_done_ms, abs=0.5)


def test_fair_share_n_equal_transfers():
    n = 3
    p = make_plan(
        [request(i, [("a", f"m{i}")], 10000) for i in range(n)], root=("a", "m0")
    )
    report = simulate(p, FAST_NET)
    for entry in report.timeline:
        # Each of n simultaneous equal transfers takes n * (size / bandwidth).
        assert entry.done_ms - entry.headers_ms == pytest.approx(n * 100.0, abs=1e-9)
    assert report.max_observed_concurrency == n


def test_concurrency_cap_queues_fifo():
    net = NetworkModel(rtt_ms=100, bandwidth_bytes_per_ms=100, max_concurrent=1)
    p = make_plan([request(i, [("a", f"m{i}")], 10000) for i in range(3)], root=("a", "m0"))
    report = simulate(p, net)
    assert report.max_observed_concurrency == 1
    ordered = sorted(report.timeline, key=lambda e: e.request_id)
    assert [e.start_ms for e in ordered] == [0.0, 200.0, 400.0]


def test_dependency_gates_on_parse_completion():
    net = NetworkModel(rtt_ms=100, bandwidth_bytes_per_ms=100, parse_ms_per_kb=5)
    p = make_plan(
        [
            request(0, [("a", "root")], 10000),
            request(1, [("a", "child")], 10000, deps=[0], trigger=Trigger("parse", ("a", "root"))),
        ]
    )
    report = simulate(p, net)
    by_id = {e.request_id: e for e in report.timeline}
    assert by_id[0].parse_done_ms == pytest.approx(250.0)  # 200 + 10kb * 5ms/kb
    assert by_id[1].start_ms == pytest.approx(250.0)


def test_interaction_delay_applies_to_dynamic_triggers_only():
    net = NetworkModel(rtt_ms=100, bandwidth_bytes_per_ms=100, interaction_delay_ms=500)
    p = make_plan(
        [
            request(0, [("a", "root")], 10000),
            request(1, [("a", "lazy")], 10000, deps=[0], dynamic=True),
            request(2, [("a", "eagerly")], 10000, deps=[0], dynamic=False),
        ]
    )
    report = simulate(p, net)
    by_id = {e.request_id: e for e in report.timeline}
    assert by_id[2].start_ms == pytest.approx(200.0)
    assert by_id[1].start_ms == pytest.approx(700.0)


def test_ssr_compose_and_hydration():
    net = NetworkModel(
        rtt_ms=100,
        bandwidth_bytes_per_ms=100,
        parse_ms_per_kb=1.0,
        server_compose_ms=50,
        hydration_factor=1.5,
    )
    p = make_plan([request(0, [("a", "root")], 10000)], strategy=LoadStrategy.SSR)
    report = simulate(p, net)
    entry = report.timeline[0]
    assert entry.headers_ms == pytest.approx(150.0)  # rtt + compose
    assert entry.done_ms == pytest.approx(250.0)
    assert entry.parse_done_ms == pytest.approx(250.0 + 10 * 1.0 * 1.5)
    # A non-SSR plan ignores compose and hydration.
    plain = simulate(make_plan([request(0, [("a", "root")], 10000)]), net)
    assert plain.timeline[0].parse_done_ms == pytest.approx(210.0)


def test_byte_conservation_and_causality_fig1():
    g, res = fig1_pipeline("fig1_shared")
    for strategy in LoadStrategy:
        p = plan(g, res, strategy)
        report = simulate(p, FAST_NET)
        assert report.total_bytes == required_bytes(p)
        assert sum(e.size_bytes for e in report.timeline) == report.total_bytes
        parse_done = {e.request_id: e.parse_done_ms for e in report.timeline}
        for r in p.requests:
            entry = next(e for e in report.timeline if e.request_id == r.id)
            for dep in r.depends_on:
                assert entry.start_ms >= parse_done[dep] - 1e-9


def test_lazy_chain_closed_form_law():
    # Pure chain, parse=0: TTI = depth * rtt + sum(size) / bandwidth.
    sizes = [4000, 8000, 2000, 6000]
    nodes = {("a", f"m{i}"): ModuleNode(("a", f"m{i}"), sizes[i], "internal") for i in range(4)}
    edges = tuple(
        Edge(("a", f"m{i}"), ("a", f"m{i+1}"), "static") for i in range(3)
    )
    g = ModuleGraph(nodes, edges, ("a", "m0"))
    p = plan(g, empty_resolution(), LoadStrategy.LAZY)
    net = NetworkModel(rtt_ms=70, bandwidth_bytes_per_ms=50, max_concurrent=99, parse_ms_per_kb=0)
    report = simulate(p, net)
    expected = waterfall_depth(g) * 70 + sum(sizes) / 50
    assert report.time_to_interactive_ms == pytest.approx(expected, abs=1e-9)


def test_rtt_monotonicity_sweep():
    g, res = fig1_pipeline("fig1_shared")
    for strategy in LoadStrategy:
        previous = None
        for rtt in (20.0, 100.0, 350.0):
            net = NetworkModel(rtt_ms=rtt, bandwidth_bytes_per_ms=100, parse_ms_per_kb=0)
            report = simulate(plan(g, res, strategy), net)
            if previous is not None:
                assert report.time_to_interactive_ms >= previous - 1e-9
            previous = report.time_to_interactive_ms


def test_deadlock_detected():
    p = make_plan(
        [
            request(0, [("a", "root")], 100, deps=[1]),
            request(1, [("a", "b")], 100, deps=[0]),
        ]
    )
    with pytest.raises(ToolError) as err:
        simulate(p, FAST_NET)
    assert err.value.code == "E-DEADLOCK"


def test_duplicate_request_ids_are_rejected():
    # Merged by id, the plan would report 2 requests and 13000 bytes.
    p = make_plan(
        [
            request(0, [("a", "root")], 1000),
            request(1, [("a", "b")], 5000, deps=[0]),
            request(1, [("a", "c")], 7000, deps=[0]),
        ]
    )
    with pytest.raises(ToolError) as err:
        simulate(p, FAST_NET)
    assert err.value.code == "E-DUP-REQUEST"
    assert "request id 1 " in err.value.message


def test_deadlock_after_root_finishes():
    # The root runs to completion; only then are the remaining requests stuck.
    p = make_plan(
        [
            request(0, [("a", "root")], 100),
            request(1, [("a", "b")], 100, deps=[2]),
            request(2, [("a", "c")], 100, deps=[1]),
        ]
    )
    with pytest.raises(ToolError) as err:
        simulate(p, FAST_NET)
    assert err.value.code == "E-DEADLOCK"


def test_rounds_of_a_1200_request_chain():
    p = make_plan(
        [request(i, [("a", f"m{i}")], 1000, deps=[i - 1] if i else ()) for i in range(1200)],
        root=("a", "m0"),
    )
    with deadline(10):
        report = simulate(p, FAST_NET)
    assert report.waterfall_rounds == longest_chain(p) == 1200


def test_empty_plan_report():
    report = simulate(make_plan([]), FAST_NET)
    assert report.time_to_interactive_ms == 0.0
    assert report.request_count == 0


def test_compare_strategies_order_and_inequalities():
    g, res = fig1_pipeline("fig1_shared")
    reports = compare_strategies(g, res, FAST_NET)
    assert [r.strategy for r in reports] == list(LoadStrategy)
    by_strategy = {r.strategy: r for r in reports}
    assert (
        by_strategy[LoadStrategy.PREFETCH].time_to_interactive_ms
        <= by_strategy[LoadStrategy.LAZY].time_to_interactive_ms
    )
    assert by_strategy[LoadStrategy.EAGER].total_bytes > by_strategy[LoadStrategy.LAZY].total_bytes


def test_single_module_degenerate_graph():
    nodes = {("a", "m"): ModuleNode(("a", "m"), 10000, "entry")}
    g = ModuleGraph(nodes, (), ("a", "m"))
    res = empty_resolution()
    net = NetworkModel(
        rtt_ms=100, bandwidth_bytes_per_ms=100, parse_ms_per_kb=0, server_compose_ms=30
    )
    reports = compare_strategies(g, res, net)
    times = {r.strategy: r.time_to_interactive_ms for r in reports}
    assert times[LoadStrategy.LAZY] == times[LoadStrategy.PREFETCH] == times[LoadStrategy.EAGER]
    assert times[LoadStrategy.SSR] == times[LoadStrategy.LAZY] + 30


def test_network_from_json_rejects_bad_fields():
    with pytest.raises(ToolError):
        network_from_json({"bandwidthBytesPerMs": 0})
    with pytest.raises(ToolError):
        network_from_json({"nope": 1})
    with pytest.raises(ToolError):
        network_from_json({"rttMs": "fast"})
    with pytest.raises(ToolError):
        network_from_json([1, 2])
    with pytest.raises(ToolError):
        network_from_json({"maxConcurrent": 2.7})
    net = network_from_json({"rttMs": 5, "maxConcurrent": 2.0})
    assert net.rtt_ms == 5.0 and net.bandwidth_bytes_per_ms == 100.0 and net.max_concurrent == 2


def _random_dag_plan(rng: random.Random):
    n = rng.randint(1, 12)
    requests = []
    for i in range(n):
        deps = [j for j in range(i) if rng.random() < 0.3]
        requests.append(
            request(
                i,
                [("a", f"m{i}")],
                rng.randint(0, 20) * 500,
                deps=deps,
                dynamic=bool(deps) and rng.random() < 0.3,
            )
        )
    return make_plan(requests, root=("a", "m0"))


def test_random_plans_respect_cap_causality_conservation():
    rng = random.Random(11)
    for _ in range(40):
        p = _random_dag_plan(rng)
        cap = rng.randint(1, 4)
        net = NetworkModel(
            rtt_ms=rng.choice([0.0, 50.0]),
            bandwidth_bytes_per_ms=rng.choice([25.0, 200.0]),
            max_concurrent=cap,
            parse_ms_per_kb=rng.choice([0.0, 1.0]),
            interaction_delay_ms=rng.choice([0.0, 40.0]),
        )
        report = simulate(p, net)
        assert report.max_observed_concurrency <= cap
        assert report.total_bytes == required_bytes(p)
        parse_done = {e.request_id: e.parse_done_ms for e in report.timeline}
        for r in p.requests:
            entry = next(e for e in report.timeline if e.request_id == r.id)
            assert entry.start_ms <= entry.headers_ms <= entry.done_ms <= entry.parse_done_ms
            for dep in r.depends_on:
                assert entry.start_ms >= parse_done[dep] - 1e-9


def test_missing_root_request_is_a_diagnostic():
    p = make_plan([request(0, [("a", "other")], 100)], root=("a", "root"))
    with pytest.raises(ToolError) as err:
        simulate(p, FAST_NET)
    assert err.value.code == "E-UNPLANNABLE"


def assert_matches_exact(p, net, report):
    exact = exact_simulate(p, net)
    assert len(report.timeline) == len(exact)
    for entry in report.timeline:
        got = (entry.start_ms, entry.headers_ms, entry.done_ms, entry.parse_done_ms)
        for value, want in zip(got, exact[entry.request_id]):
            assert math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-9), (entry, want)


def _tenths(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda x: x / 10)


@st.composite
def _plans_and_nets(draw):
    n = draw(st.integers(1, 60))
    requests = [
        request(
            i,
            [("a", f"m{i}")],
            draw(st.integers(0, 9000)),
            deps=draw(st.sets(st.integers(0, i - 1), max_size=4)) if i else (),
            dynamic=draw(st.booleans()),
        )
        for i in range(n)
    ]
    net = NetworkModel(
        rtt_ms=draw(_tenths(0, 2000)),
        bandwidth_bytes_per_ms=draw(_tenths(10, 20000)),
        max_concurrent=draw(st.integers(1, 8)),
        parse_ms_per_kb=draw(_tenths(0, 30)),
        server_compose_ms=draw(_tenths(0, 500)),
        hydration_factor=draw(_tenths(10, 20)),
        interaction_delay_ms=draw(_tenths(0, 3000)),
    )
    strategy = draw(st.sampled_from(list(LoadStrategy)))
    return make_plan(requests, strategy=strategy, root=("a", "m0")), net


# Drawing a 60-request plan can be slow on a loaded host; that is not a failure.
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_plans_and_nets())
def test_engine_matches_exact_reference(case):
    p, net = case
    with deadline(10):
        report = simulate(p, net)
    assert_matches_exact(p, net, report)
    assert report.waterfall_rounds == longest_chain(p)


def test_flat_prefetch_1000_requests_ends_and_matches_exact():
    # Long runs of parallel flows: a flow's last step can be below one ulp of
    # t, so the loop must end without draining bytes per flow in floats.
    rng = random.Random(0)
    p = make_plan(
        [request(i, [("a", f"m{i}")], rng.randint(500, 8000)) for i in range(1000)],
        strategy=LoadStrategy.PREFETCH,
        root=("a", "m0"),
    )
    net = NetworkModel(rtt_ms=60, bandwidth_bytes_per_ms=1500, max_concurrent=6)
    with deadline(10):
        report = simulate(p, net)
    assert_matches_exact(p, net, report)
