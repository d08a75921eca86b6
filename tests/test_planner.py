from __future__ import annotations

import random
from dataclasses import replace

from fedplan.diagnostics import has_errors
from fedplan.graph import KIND_SHARED, Edge, ModuleGraph, ModuleNode, build_graph, waterfall_depth
from fedplan.manifest import load_workspace, validate_workspace
from fedplan.planner import (
    LoadStrategy,
    MANIFEST_PSEUDO_MODULE,
    longest_chain,
    plan,
    required_bytes,
)
from fedplan.semver import parse_version
from fedplan.shares import build_share_scope, empty_resolution, resolve_shares, shared_node

from conftest import FIXTURES, app, module, shared_spec, workspace
from test_acceptance import LOADABLE_FIXTURES


def fig1():
    w, _ = load_workspace(str(FIXTURES / "fig1" / "host" / "federation.json"))
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    return g, res


def shared_two_apps():
    w, _ = load_workspace(str(FIXTURES / "fig1_shared" / "host" / "federation.json"))
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    return g, res


def test_lazy_chain_matches_waterfall_depth():
    g, res = fig1()
    p = plan(g, res, LoadStrategy.LAZY)
    assert len(p.requests) == 3
    assert longest_chain(p) == waterfall_depth(g) == 3
    by_payload = {next(iter(r.payload)): r for r in p.requests}
    entry = by_payload[("host", "entry")]
    header = by_payload[("remote", "./Header")]
    nav = by_payload[("remote", "./Nav")]
    assert entry.depends_on == frozenset()
    assert header.depends_on == {entry.id}
    assert nav.depends_on == {header.id}
    assert header.dynamic_trigger and not nav.dynamic_trigger
    assert entry.trigger.kind == "root"
    assert header.trigger == header.trigger.__class__("parse", ("host", "entry"))


def test_prefetch_shape():
    g, res = fig1()
    p = plan(g, res, LoadStrategy.PREFETCH)
    assert len(p.requests) == 4  # manifest round + 3 nodes
    manifest = p.requests[0]
    assert manifest.trigger.kind == "manifest"
    assert manifest.size_bytes == 2000
    assert manifest.payload == {("remote", MANIFEST_PSEUDO_MODULE)}
    node_requests = p.requests[1:]
    for r in node_requests:
        app_name = next(iter(r.payload))[0]
        if app_name == "host":
            assert r.depends_on == frozenset()
        else:
            assert r.depends_on == {manifest.id}
    assert longest_chain(p) == 2


def test_prefetch_manifest_bytes_knob():
    g, res = fig1()
    p = plan(g, res, LoadStrategy.PREFETCH, manifest_bytes=500)
    assert p.requests[0].size_bytes == 500


def test_prefetch_host_only_has_no_manifest_round():
    w = workspace(app("host", entry="entry", modules=(module("entry", size=100),)))
    res = empty_resolution()
    g, _ = build_graph(w, res)
    p = plan(g, res, LoadStrategy.PREFETCH)
    assert len(p.requests) == 1
    assert longest_chain(p) == 1


def test_ssr_single_request():
    g, res = fig1()
    p = plan(g, res, LoadStrategy.SSR)
    assert len(p.requests) == 1
    only = p.requests[0]
    assert only.payload == set(g.nodes)
    assert only.size_bytes == sum(n.size_bytes for n in g.nodes.values())
    assert only.trigger.kind == "root"


def test_eager_one_request_per_app_with_private_copies():
    g, res = shared_two_apps()
    p = plan(g, res, LoadStrategy.EAGER)
    assert [r.id for r in p.requests] == [0, 1]
    host_req, remote_req = p.requests
    assert ("host", "react@18.2.0") in host_req.payload
    assert ("remote", "react@18.1.0") in remote_req.payload
    assert host_req.depends_on == frozenset() and remote_req.depends_on == frozenset()
    assert host_req.size_bytes == 10000 + 130000
    assert remote_req.size_bytes == 20000 + 130000
    # One extra full copy beyond the canonical provider copy.
    assert p.duplicate_bytes == 130000


def test_required_bytes_examples():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", size=1000, static=("big",), dynamic=("remote/./A",)),),
            remotes=("remote",),
            shared=(shared_spec("big", "^1.0.0", "1.0.0", size=130000),),
        ),
        app(
            "remote",
            modules=(module("./A", size=2000, static=("./B", "big")), module("./B", size=3000)),
            exposes=(("./A", "./A"),),
            shared=(shared_spec("big", "^1.0.0", size=130000),),
        ),
    )
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    assert required_bytes(plan(g, res, LoadStrategy.SSR)) == 136000
    assert required_bytes(plan(g, res, LoadStrategy.LAZY)) == 136000
    # Eager bundles the shared package privately into both applications.
    assert required_bytes(plan(g, res, LoadStrategy.EAGER)) == 136000 + 130000


def test_payload_union_covers_reachable_set():
    from fedplan.graph import reachable_set

    g, res = shared_two_apps()
    required = reachable_set(g, True)
    for strategy in (LoadStrategy.LAZY, LoadStrategy.PREFETCH, LoadStrategy.SSR):
        p = plan(g, res, strategy)
        covered = set()
        for r in p.requests:
            assert r.payload, "payloads must be nonempty"
            assert not (covered & r.payload), "no node fetched twice"
            covered |= r.payload
        assert {k for k in covered if k[1] != MANIFEST_PSEUDO_MODULE} >= required


def test_prefetch_without_manifest_round_equals_lazy_bytes():
    for fixture in ("fig1", "fig1_shared", "fallback"):
        w, _ = load_workspace(str(FIXTURES / fixture / "host" / "federation.json"))
        res = resolve_shares(build_share_scope(w))
        g, _ = build_graph(w, res)
        lazy = required_bytes(plan(g, res, LoadStrategy.LAZY))
        prefetch = plan(g, res, LoadStrategy.PREFETCH)
        manifest_bytes = sum(
            r.size_bytes for r in prefetch.requests if r.trigger.kind == "manifest" and r.id == 0
        )
        assert required_bytes(prefetch) - manifest_bytes == lazy


def test_eager_at_least_lazy_bytes():
    for fixture in ("fig1", "fig1_shared", "fallback"):
        w, _ = load_workspace(str(FIXTURES / fixture / "host" / "federation.json"))
        res = resolve_shares(build_share_scope(w))
        g, _ = build_graph(w, res)
        lazy = required_bytes(plan(g, res, LoadStrategy.LAZY))
        eager = required_bytes(plan(g, res, LoadStrategy.EAGER))
        assert eager >= lazy


def test_lazy_contracts_intra_app_cycles():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(
                module("entry", size=100, static=("./a",)),
                module("./a", size=200, static=("./b",)),
                module("./b", size=300, static=("./a",)),
            ),
        )
    )
    res = empty_resolution()
    g, _ = build_graph(w, res)
    p = plan(g, res, LoadStrategy.LAZY)
    assert len(p.requests) == 2
    cycle_request = next(r for r in p.requests if len(r.payload) == 2)
    assert cycle_request.payload == {("host", "./a"), ("host", "./b")}
    assert cycle_request.size_bytes == 500
    assert longest_chain(p) == waterfall_depth(g) == 2


def test_long_chain_depth_without_recursion():
    n = 1200
    keys = [("a", f"m{i:04d}") for i in range(n)]
    nodes = {key: ModuleNode(key, 100, "internal") for key in keys}
    edges = tuple(Edge(a, b, "static") for a, b in zip(keys, keys[1:]))
    g = ModuleGraph(nodes, edges, keys[0])
    assert waterfall_depth(g) == n
    assert longest_chain(plan(g, empty_resolution(), LoadStrategy.LAZY)) == n


def test_eager_duplicates_are_not_negative_when_the_provider_is_unbundled():
    # The host bundles its own react; the winning version comes from a remote
    # none of whose modules is reachable, so only one copy is bundled.
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", size=100, static=("react",)),),
            remotes=("remote",),
            shared=(shared_spec("react", "^18.0.0", "18.1.0", size=1000),),
        ),
        app(
            "remote",
            modules=(module("./A", size=2000),),
            exposes=(("./A", "./A"),),
            shared=(shared_spec("react", "^18.0.0", "18.2.0", size=5000),),
        ),
    )
    res = resolve_shares(build_share_scope(w))
    assert res.bindings == {"react": (parse_version("18.2.0"), "remote")}
    g, _ = build_graph(w, res)
    eager = plan(g, res, LoadStrategy.EAGER)
    [bundle] = eager.requests
    assert bundle.payload == {("host", "entry"), ("host", "react@18.1.0")}
    assert bundle.size_bytes == 1100
    assert eager.duplicate_bytes == 0


def _random_share_workspace(rng: random.Random):
    """Host plus remotes sharing a few packages; every package has a provider."""
    packages = [f"pkg{i}" for i in range(rng.randint(1, 3))]
    names = ["host"] + [f"r{i}" for i in range(rng.randint(1, 3))]
    specs = {name: [] for name in names}
    for name in names:
        for package in packages:
            if rng.random() < 0.3:
                continue
            provided = f"1.{rng.randint(0, 3)}.0" if rng.random() < 0.8 else None
            required = rng.choice(["^1.0.0", "~1.1.0", "*", ">=1.2.0"])
            singleton = rng.random() < 0.3
            specs[name].append(
                shared_spec(package, required, provided, singleton=singleton, size=rng.randint(1, 9) * 1000)
            )
    for package in packages:
        declared = [(name, i) for name in names for i, s in enumerate(specs[name]) if s.package == package]
        if declared and all(specs[n][i].provided_version is None for n, i in declared):
            name, i = declared[0]
            specs[name][i] = replace(specs[name][i], provided_version=parse_version("1.0.0"))
    remotes = [
        app(
            name,
            modules=(module("./m", static=tuple(s.package for s in specs[name])),),
            exposes=(("./m", "./m"),),
            shared=tuple(specs[name]),
        )
        for name in names[1:]
    ]
    mode = {name: rng.choice(["static", "dynamic", None]) for name in names[1:]}
    host = app(
        "host",
        entry="entry",
        modules=(
            module(
                "entry",
                static=tuple(s.package for s in specs["host"])
                + tuple(f"{n}/./m" for n in names[1:] if mode[n] == "static"),
                dynamic=tuple(f"{n}/./m" for n in names[1:] if mode[n] == "dynamic"),
            ),
        ),
        remotes=tuple(names[1:]),
        shared=tuple(specs["host"]),
    )
    return workspace(host, *remotes)


def test_share_sizes_agree_across_resolution_graph_and_eager_plan():
    workspaces = [
        load_workspace(str(FIXTURES / fixture / "host" / "federation.json"))[0]
        for fixture in LOADABLE_FIXTURES
    ]
    rng = random.Random(7)
    workspaces += [_random_share_workspace(rng) for _ in range(50)]
    for w in workspaces:
        assert not has_errors(validate_workspace(w))
        res = resolve_shares(build_share_scope(w))
        g, _ = build_graph(w, res)
        for (app_name, label), node in g.nodes.items():
            if node.kind != KIND_SHARED:
                continue
            package = label.rpartition("@")[0]
            declaring = next(s for s in w.app(app_name).shared if s.package == package)
            assert node.size_bytes == declaring.size_bytes
        assert res.duplicate_bytes == sum(
            g.nodes[shared_node(a, package, version)].size_bytes for a, package, version in res.fallbacks
        )
        assert plan(g, res, LoadStrategy.EAGER).duplicate_bytes >= 0
