"""Acceptance suite: eight oracle- and law-based criteria, one per test.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure) and asserts the criterion at its stated tolerance.
"""

from __future__ import annotations

import json
import random

from fedplan.cli import run as cli_run
from fedplan.graph import (
    Edge,
    KIND_SHARED,
    ModuleGraph,
    ModuleNode,
    build_graph,
    waterfall_depth,
)
from fedplan.interfaces import (
    ArrayType,
    FunctionType,
    PrimitiveType,
    RecordField,
    RecordType,
    UnknownType,
    is_subtype,
)
from fedplan.manifest import load_workspace
from fedplan.planner import LoadStrategy, longest_chain, plan, required_bytes
from fedplan.semver import Version, intersect, parse_range, satisfies
from fedplan.shares import ShareScope, build_share_scope, empty_resolution, resolve_shares
from fedplan.simulator import NetworkModel, simulate
from fedplan.trace import from_sim, validate_trace

from conftest import FIXTURES, REPO_ROOT, shared_spec
from oracles import all_versions, oracle_satisfies, random_range_text
from test_cli import GOLDEN_MATRIX

PARSELESS_NET = NetworkModel(
    rtt_ms=100, bandwidth_bytes_per_ms=100, max_concurrent=6, parse_ms_per_kb=0
)

LOADABLE_FIXTURES = (
    "fig1",
    "fig1_shared",
    "fallback",
    "conflict_singleton",
    "bidirectional",
    "type_mismatch",
)


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} [{title}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} [{title}] failed: {detail}"


def _pipeline(fixture: str):
    w, _ = load_workspace(str(FIXTURES / fixture / "host" / "federation.json"))
    scope = build_share_scope(w)
    res = resolve_shares(scope)
    g, _ = build_graph(w, res)
    return g, res, scope


def test_criterion_1_semver_oracle_equivalence():
    versions = all_versions(5)
    assert len(versions) == 216
    rng = random.Random(20240601)
    ranges = [random_range_text(rng) for _ in range(520)]
    mismatches = 0
    for text in ranges:
        r = parse_range(text)
        for t in versions:
            if satisfies(r, Version(*t)) != oracle_satisfies(text, t):
                mismatches += 1
    for a_text, b_text in zip(ranges, ranges[1:]):
        both = intersect(parse_range(a_text), parse_range(b_text))
        for t in versions:
            expect = oracle_satisfies(a_text, t) and oracle_satisfies(b_text, t)
            if satisfies(both, Version(*t)) != expect:
                mismatches += 1
    _verdict(
        1,
        "semver oracle equivalence",
        mismatches == 0,
        f"216 versions x {len(ranges)} ranges + {len(ranges) - 1} intersections, "
        f"{mismatches} mismatches",
    )


def _random_scope(rng: random.Random) -> ShareScope:
    apps = ["host"] + [f"app{i}" for i in range(rng.randint(1, 4))]
    entries = []
    for name in apps:
        for package in [f"pkg{i}" for i in range(rng.randint(1, 3))]:
            if rng.random() < 0.35:
                continue
            provided = (
                f"{rng.randint(0, 3)}.{rng.randint(0, 3)}.{rng.randint(0, 3)}"
                if rng.random() < 0.8
                else None
            )
            entries.append(
                (
                    name,
                    shared_spec(
                        package,
                        rng.choice([f"^{rng.randint(0, 3)}.0.0", "~1.2.0", "*"]),
                        provided,
                        singleton=rng.random() < 0.5,
                        strict=rng.random() < 0.3,
                        size=rng.randint(1, 9) * 1000,
                    ),
                )
            )
    return ShareScope("host", tuple(entries))


def test_criterion_2_share_resolution_laws():
    rng = random.Random(777)
    scopes = 220
    failures = 0
    for _ in range(scopes):
        scope = _random_scope(rng)
        res = resolve_shares(scope)
        singleton_apps = {
            (a, s.package) for a, s in scope.entries if s.singleton
        }
        if any((app, pkg) in singleton_apps for app, pkg, _ in res.fallbacks):
            failures += 1  # a singleton forked into a private copy
        expected_dup = sum(
            next(
                s.size_bytes
                for a, s in scope.entries
                if a == app and s.package == pkg
            )
            for app, pkg, _ in res.fallbacks
        )
        if res.duplicate_bytes != expected_dup:
            failures += 1
        if json.dumps(resolve_shares(scope).to_json()) != json.dumps(res.to_json()):
            failures += 1
    _verdict(
        2,
        "share-resolution laws",
        failures == 0,
        f"{scopes} randomized scopes, {failures} law violations",
    )


def test_criterion_3_fig1_end_to_end():
    g_plain, res_plain, _ = _pipeline("fig1")
    g_shared, res_shared, _ = _pipeline("fig1_shared")
    module_nodes = [n for n in g_shared.nodes.values() if n.kind != KIND_SHARED]
    shared_nodes = [n for n in g_shared.nodes.values() if n.kind == KIND_SHARED]
    checks = {
        "plain nodes": len(g_plain.nodes) == 3,
        "module nodes": len(module_nodes) == 3,
        "shared nodes": len(shared_nodes) == 1,
        "depth": waterfall_depth(g_plain) == 3,
        "lazy chain": longest_chain(plan(g_plain, res_plain, LoadStrategy.LAZY)) == 3,
        "prefetch chain": longest_chain(plan(g_plain, res_plain, LoadStrategy.PREFETCH)) <= 2,
        "depth with shared": waterfall_depth(g_shared) == 3,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(3, "Fig. 1 fixture end-to-end", not failed, f"failed checks: {failed or 'none'}")


def _random_module_graph(rng: random.Random) -> ModuleGraph:
    n = rng.randint(1, 20)
    keys = []
    for i in range(n):
        app_name = "app0" if i == 0 else f"app{rng.randint(0, 2)}"
        keys.append((app_name, f"m{i}"))
    nodes = {
        key: ModuleNode(key, rng.randint(0, 40) * 500, "entry" if i == 0 else "internal")
        for i, key in enumerate(keys)
    }
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.22:
                edges.append(Edge(keys[i], keys[j], rng.choice(["static", "dynamic"])))
    return ModuleGraph(nodes, tuple(edges), keys[0])


def test_criterion_4_simulator_laws():
    rng = random.Random(31337)
    graphs = [_random_module_graph(rng) for _ in range(50)]
    res = empty_resolution()
    violations = []

    for gi, g in enumerate(graphs):
        for strategy in LoadStrategy:
            p = plan(g, res, strategy)
            report = simulate(p, PARSELESS_NET)
            if report.total_bytes != required_bytes(p) or report.total_bytes != sum(
                e.size_bytes for e in report.timeline
            ):
                violations.append(f"g{gi}/{strategy.value}: conservation")
            parse_done = {e.request_id: e.parse_done_ms for e in report.timeline}
            requests = {r.id: r for r in p.requests}
            for e in report.timeline:
                if any(e.start_ms < parse_done[d] - 1e-9 for d in requests[e.request_id].depends_on):
                    violations.append(f"g{gi}/{strategy.value}: causality")
            if report.max_observed_concurrency > PARSELESS_NET.max_concurrent:
                violations.append(f"g{gi}/{strategy.value}: concurrency cap")
        # rtt monotonicity, 3-point sweep on the lazy plan.
        previous = None
        for rtt in (10.0, 120.0, 400.0):
            net = NetworkModel(rtt_ms=rtt, bandwidth_bytes_per_ms=100, parse_ms_per_kb=0)
            tti = simulate(plan(g, res, LoadStrategy.LAZY), net).time_to_interactive_ms
            if previous is not None and tti < previous - 1e-9:
                violations.append(f"g{gi}: rtt monotonicity")
            previous = tti

    # Lazy closed-form law on pure chains: TTI = depth * rtt + sum(bytes) / bw.
    for ci in range(10):
        length = rng.randint(1, 8)
        bw = rng.choice([50.0, 100.0])
        sizes = [rng.randint(1, 30) * int(bw) for _ in range(length)]
        keys = [("a", f"c{i}") for i in range(length)]
        nodes = {k: ModuleNode(k, sizes[i], "internal") for i, k in enumerate(keys)}
        edges = tuple(Edge(keys[i], keys[i + 1], "static") for i in range(length - 1))
        chain = ModuleGraph(nodes, edges, keys[0])
        rtt = rng.choice([0.0, 70.0, 150.0])
        net = NetworkModel(rtt_ms=rtt, bandwidth_bytes_per_ms=bw, max_concurrent=10, parse_ms_per_kb=0)
        report = simulate(plan(chain, res, LoadStrategy.LAZY), net)
        expected = waterfall_depth(chain) * rtt + sum(sizes) / bw
        if abs(report.time_to_interactive_ms - expected) > 1e-9:
            violations.append(f"chain{ci}: closed form off by "
                              f"{report.time_to_interactive_ms - expected}")

    _verdict(
        4,
        "simulator laws",
        not violations,
        f"50 graphs x 4 strategies + 10 chains, violations: {violations[:3] or 'none'}",
    )


def test_criterion_5_strategy_inequalities():
    failures = []
    for fixture in LOADABLE_FIXTURES:
        g, res, scope = _pipeline(fixture)
        lazy_plan = plan(g, res, LoadStrategy.LAZY)
        prefetch = simulate(plan(g, res, LoadStrategy.PREFETCH), PARSELESS_NET)
        lazy = simulate(lazy_plan, PARSELESS_NET)
        if prefetch.time_to_interactive_ms > lazy.time_to_interactive_ms + 1e-9:
            failures.append(f"{fixture}: prefetch {prefetch.time_to_interactive_ms} "
                            f"> lazy {lazy.time_to_interactive_ms}")
        eager_bytes = required_bytes(plan(g, res, LoadStrategy.EAGER))
        lazy_bytes = required_bytes(lazy_plan)
        if eager_bytes < lazy_bytes:
            failures.append(f"{fixture}: eager bytes {eager_bytes} < lazy {lazy_bytes}")
        fallback_apps = {(app, pkg) for app, pkg, _ in res.fallbacks}
        for package in scope.packages():
            participants = scope.entries_for(package)
            bound = [a for a, _s in participants if (a, package) not in fallback_apps]
            if len(bound) >= 2 and eager_bytes <= lazy_bytes:
                failures.append(f"{fixture}: {package} shared by {len(bound)} but not strict")
    _verdict(
        5,
        "strategy inequalities",
        not failures,
        f"{len(LOADABLE_FIXTURES)} fixtures, failures: {failures or 'none'}",
    )


def _random_type(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.35:
        return rng.choice(
            [PrimitiveType("string"), PrimitiveType("number"), PrimitiveType("boolean"), UnknownType()]
        )
    pick = rng.random()
    if pick < 0.33:
        return ArrayType(_random_type(rng, depth + 1))
    if pick < 0.66:
        names = rng.sample(["a", "b", "c", "d"], rng.randint(0, 3))
        return RecordType(
            tuple(
                RecordField(name, _random_type(rng, depth + 1), rng.random() < 0.3)
                for name in names
            )
        )
    params = tuple(_random_type(rng, depth + 1) for _ in range(rng.randint(0, 2)))
    return FunctionType(params, _random_type(rng, depth + 1))


def test_criterion_6_subtyping_properties():
    rng = random.Random(4242)
    pools = [[_random_type(rng) for _ in range(40)] for _ in range(25)]
    term_count = sum(len(pool) for pool in pools)
    counterexamples = 0
    for pool in pools:
        for t in pool:
            if not is_subtype(t, t):
                counterexamples += 1
        rel = {
            (i, j): is_subtype(a, b)
            for i, a in enumerate(pool)
            for j, b in enumerate(pool)
        }
        n = len(pool)
        for i in range(n):
            for j in range(n):
                if not rel[(i, j)]:
                    continue
                for k in range(n):
                    if rel[(j, k)] and not rel[(i, k)]:
                        counterexamples += 1
    # Record-width monotonicity: widening the actual never breaks subtyping.
    for _ in range(500):
        expected = _random_type(rng)
        actual = _random_type(rng)
        if isinstance(actual, RecordType) and is_subtype(actual, expected):
            taken = {f.name for f in actual.fields}
            extra = next(n for n in ("zz", "yy", "xx") if n not in taken)
            widened = RecordType(actual.fields + (RecordField(extra, _random_type(rng)),))
            if not is_subtype(widened, expected):
                counterexamples += 1
    _verdict(
        6,
        "subtyping properties",
        counterexamples == 0,
        f"{term_count} terms, depth <= 4, {counterexamples} counterexamples",
    )


def test_criterion_7_trace_well_formedness():
    checked = 0
    bad = 0
    for fixture in LOADABLE_FIXTURES:
        g, res, _ = _pipeline(fixture)
        for strategy in LoadStrategy:
            for net in (
                PARSELESS_NET,
                NetworkModel(
                    rtt_ms=50,
                    bandwidth_bytes_per_ms=40,
                    max_concurrent=2,
                    parse_ms_per_kb=1,
                    server_compose_ms=30,
                    hydration_factor=2,
                    interaction_delay_ms=25,
                ),
            ):
                report = simulate(plan(g, res, strategy), net)
                log = from_sim(report)
                checked += 1
                if validate_trace(log) != []:
                    bad += 1
                if len(log.spans) != 1 + 2 * report.request_count:
                    bad += 1
    _verdict(
        7,
        "trace well-formedness",
        bad == 0,
        f"{checked} simulated reports, {bad} violations",
    )


def test_criterion_8_cli_contract(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("FEDPLAN_COLOR", "0")
    failures = []
    for golden, expected_code, argv in GOLDEN_MATRIX:
        code = cli_run(list(argv))
        out = capsys.readouterr().out
        want = (FIXTURES / "golden" / golden).read_text()
        if code != expected_code:
            failures.append(f"{golden}: exit {code} != {expected_code}")
        if out != want:
            failures.append(f"{golden}: output drift")
        if golden.endswith(".json"):
            try:
                json.loads(out)
            except ValueError:
                failures.append(f"{golden}: not valid JSON")
    for argv, expected in [
        (["validate", "fixtures/missing/federation.json"], 2),
        (
            [
                "simulate",
                "fixtures/fig1/host/federation.json",
                "--strategy",
                "lazy",
                "--net",
                "fixtures/nets/bad.json",
            ],
            2,
        ),
        (["plan", "fixtures/fig1/host/federation.json", "--strategy", "warp"], 2),
    ]:
        code = cli_run(list(argv))
        capsys.readouterr()
        if code != expected:
            failures.append(f"{argv}: exit {code} != {expected}")
    _verdict(
        8,
        "CLI contract",
        not failures,
        f"{len(GOLDEN_MATRIX)} golden cases + 3 usage cases, failures: {failures or 'none'}",
    )
