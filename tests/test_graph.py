from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedplan.diagnostics import ToolError
from fedplan.graph import (
    DYNAMIC,
    STATIC,
    Edge,
    KIND_SHARED,
    ModuleGraph,
    ModuleNode,
    build_graph,
    detect_cycles,
    export_dot,
    reachable_set,
    topological_order,
    waterfall_depth,
)
from fedplan.manifest import load_workspace
from fedplan.planner import LoadStrategy, longest_chain, plan
from fedplan.shares import build_share_scope, empty_resolution, resolve_shares

from conftest import FIXTURES, app, module, shared_spec, workspace
from oracles import (
    bfs_reachable,
    brute_sccs,
    dfs_longest_path,
    reference_fetch_units,
    reference_longest_path,
    reference_plan_lazy,
    reference_topological_order,
    reference_waterfall_depth,
)


def fig1_workspace():
    return workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", size=10000, dynamic=("remote/./Header",)),),
            remotes=("remote",),
        ),
        app(
            "remote",
            modules=(
                module("./Header", size=10000, static=("./Nav",)),
                module("./Nav", size=10000),
            ),
            exposes=(("./Header", "./Header"),),
        ),
    )


def fig1_graph():
    g, warnings = build_graph(fig1_workspace(), empty_resolution())
    assert warnings == []
    return g


def make_graph(nodes, edges, root):
    node_map = {key: ModuleNode(key, size, kind) for key, size, kind in nodes}
    return ModuleGraph(node_map, tuple(Edge(s, d, m) for s, d, m in edges), root)


def test_build_fig1_topology():
    g = fig1_graph()
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert g.root == ("host", "entry")
    assert g.nodes[("host", "entry")].kind == "entry"
    assert g.nodes[("remote", "./Header")].kind == "exposed"
    assert g.nodes[("remote", "./Nav")].kind == "internal"
    modes = {(e.src, e.dst): e.mode for e in g.edges}
    assert modes[("host", "entry"), ("remote", "./Header")] == "dynamic"
    assert modes[("remote", "./Header"), ("remote", "./Nav")] == "static"


def test_build_shared_node_deduplicates():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", size=10000, static=("react",), dynamic=("remote/./Header",)),),
            remotes=("remote",),
            shared=(shared_spec("react", "^18.0.0", "18.2.0", singleton=True, size=130000),),
        ),
        app(
            "remote",
            modules=(
                module("./Header", size=10000, static=("./Nav", "react")),
                module("./Nav", size=10000),
            ),
            exposes=(("./Header", "./Header"),),
            shared=(shared_spec("react", "^18.1.0", "18.1.0", singleton=True, size=130000),),
        ),
    )
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    shared_nodes = [n for n in g.nodes.values() if n.kind == KIND_SHARED]
    # Node-count oracle from the resolution: one node per binding plus one per fallback.
    assert len(shared_nodes) == len(res.bindings) + len(res.fallbacks) == 1
    key = shared_nodes[0].key
    assert key == ("host", "react@18.2.0")
    assert shared_nodes[0].size_bytes == 130000
    incoming = [e for e in g.edges if e.dst == key]
    assert len(incoming) == 2


def test_build_fallback_gets_private_node():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", static=("lodash",), dynamic=("remote/./Chart",)),),
            remotes=("remote",),
            shared=(shared_spec("lodash", "~4.17.0", "4.17.21", size=70000),),
        ),
        app(
            "remote",
            modules=(module("./Chart", static=("lodash",)),),
            exposes=(("./Chart", "./Chart"),),
            shared=(shared_spec("lodash", "^3.0.0", "3.10.1", size=60000),),
        ),
    )
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    shared_nodes = sorted(n.key for n in g.nodes.values() if n.kind == KIND_SHARED)
    assert shared_nodes == [("host", "lodash@4.17.21"), ("remote", "lodash@3.10.1")]
    assert len(shared_nodes) == 1 + len(res.fallbacks)
    edges_to_fallback = [e for e in g.edges if e.dst == ("remote", "lodash@3.10.1")]
    assert [e.src for e in edges_to_fallback] == [("remote", "./Chart")]


def test_build_dangling_remote():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", dynamic=("remote/./Missing",)),),
            remotes=("remote",),
        ),
        app("remote", modules=(module("./Header"),), exposes=(("./Header", "./Header"),)),
    )
    with pytest.raises(ToolError) as err:
        build_graph(w, empty_resolution())
    assert err.value.code == "E-DANGLING-REMOTE"


def test_build_unresolved_shared():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", static=("react",)),),
            shared=(shared_spec("react", "^18.0.0"),),  # consumer only, never provided
        )
    )
    res = resolve_shares(build_share_scope(w))
    with pytest.raises(ToolError) as err:
        build_graph(w, res)
    assert err.value.code == "E-UNRESOLVED-SHARED"


def test_build_transitive_remote_warns():
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(module("entry", dynamic=("r1/./A",)),),
            remotes=("r1",),
        ),
        app(
            "r1",
            modules=(module("./A", static=("r2/./B",)),),
            exposes=(("./A", "./A"),),
            remotes=("r2",),
        ),
        app("r2", modules=(module("./B"),), exposes=(("./B", "./B"),)),
    )
    g, warnings = build_graph(w, empty_resolution())
    assert [w.code for w in warnings] == ["W-TRANSITIVE-REMOTE"]
    assert waterfall_depth(g) == 3


def test_build_cross_app_cycle_is_error():
    # host/./X -> remote/./A -> host/./X
    w = workspace(
        app(
            "host",
            entry="entry",
            modules=(
                module("entry", static=("remote/./A",)),
                module("./X", static=("remote/./A",)),
            ),
            exposes=(("./X", "./X"),),
            remotes=("remote",),
        ),
        app(
            "remote",
            modules=(module("./A", static=("host/./X",)),),
            exposes=(("./A", "./A"),),
            remotes=("host",),
        ),
    )
    with pytest.raises(ToolError) as err:
        build_graph(w, empty_resolution())
    assert err.value.code == "E-XAPP-CYCLE"


def test_constructing_graph_over_cross_app_cycle_is_error():
    nodes = [(("a", "A"), 1, "entry"), (("b", "B"), 1, "exposed")]
    edges = [(("a", "A"), ("b", "B"), "static"), (("b", "B"), ("a", "A"), "dynamic")]
    with pytest.raises(ToolError) as err:
        make_graph(nodes, edges, ("a", "A"))
    assert err.value.code == "E-XAPP-CYCLE"


def test_reachable_set_static_vs_dynamic():
    g = fig1_graph()
    assert reachable_set(g, include_dynamic=False) == {("host", "entry")}
    # BFS oracle over the raw edge list.
    edges = [(e.src, e.dst, e.mode) for e in g.edges]
    assert reachable_set(g, include_dynamic=True) == bfs_reachable(edges, g.root, True)
    assert len(reachable_set(g, include_dynamic=True)) == 3


def test_reachable_set_isolated_root():
    g = make_graph([(("a", "m"), 1, "entry")], [], ("a", "m"))
    assert reachable_set(g, True) == {("a", "m")}
    assert reachable_set(g, True) >= reachable_set(g, False)


def test_waterfall_depth_single_node():
    g = make_graph([(("a", "m"), 1, "entry")], [], ("a", "m"))
    assert waterfall_depth(g) == 1


def test_waterfall_depth_fig1_chain():
    g = fig1_graph()
    edges = [(e.src, e.dst, e.mode) for e in g.edges]
    assert waterfall_depth(g) == dfs_longest_path(edges, g.root) == 3


def test_waterfall_depth_diamond():
    nodes = [(("a", n), 1, "internal") for n in ("root", "x", "y", "z")]
    edges = [
        (("a", "root"), ("a", "x"), "static"),
        (("a", "root"), ("a", "y"), "static"),
        (("a", "x"), ("a", "z"), "static"),
        (("a", "y"), ("a", "z"), "static"),
    ]
    g = make_graph(nodes, edges, ("a", "root"))
    assert waterfall_depth(g) == dfs_longest_path(edges, g.root) == 3


def test_waterfall_depth_contracts_intra_app_cycle():
    nodes = [(("a", n), 1, "internal") for n in ("root", "x", "y")]
    edges = [
        (("a", "root"), ("a", "x"), "static"),
        (("a", "x"), ("a", "y"), "static"),
        (("a", "y"), ("a", "x"), "static"),
    ]
    g = make_graph(nodes, edges, ("a", "root"))
    # x and y fetch as one unit.
    assert waterfall_depth(g) == 2


def test_detect_cycles_acyclic_and_minimal():
    assert detect_cycles(fig1_graph()) == []
    nodes = [(("a", n), 1, "internal") for n in ("A", "B")]
    edges = [(("a", "A"), ("a", "B"), "static"), (("a", "B"), ("a", "A"), "static")]
    g = make_graph(nodes, edges, ("a", "A"))
    assert detect_cycles(g) == [[("a", "A"), ("a", "B")]]


def test_detect_cycles_two_disjoint_sorted():
    names = ["A", "B", "C", "D", "root"]
    nodes = [(("a", n), 1, "internal") for n in names]
    edges = [
        (("a", "root"), ("a", "A"), "static"),
        (("a", "root"), ("a", "C"), "static"),
        (("a", "A"), ("a", "B"), "static"),
        (("a", "B"), ("a", "A"), "static"),
        (("a", "C"), ("a", "D"), "static"),
        (("a", "D"), ("a", "C"), "static"),
    ]
    g = make_graph(nodes, edges, ("a", "root"))
    got = detect_cycles(g)
    assert got == [[("a", "A"), ("a", "B")], [("a", "C"), ("a", "D")]]
    # SCC oracle via pairwise reachability.
    oracle = [s for s in brute_sccs([k for k, _, _ in nodes], edges) if len(s) > 1]
    assert got == oracle


def test_detect_self_loop():
    nodes = [(("a", "A"), 1, "internal")]
    edges = [(("a", "A"), ("a", "A"), "static")]
    g = make_graph(nodes, edges, ("a", "A"))
    assert detect_cycles(g) == [[("a", "A")]]


@pytest.mark.parametrize("seed", range(25))
def test_detect_cycles_matches_oracle_on_random_graphs(seed):
    # Dense edges inside each application make several cycles; edges between
    # applications only go from a lower to a higher one, so none spans two.
    rng = random.Random(seed)
    apps = ["a", "b", "c", "d"]
    keys = [(name, f"m{i}") for name in apps for i in range(rng.randint(3, 7))]
    edges = set()
    for src in keys:
        for dst in keys:
            same_app = src[0] == dst[0]
            if (same_app and rng.random() < 0.3) or (src[0] < dst[0] and rng.random() < 0.1):
                edges.add((src, dst, rng.choice(["static", "dynamic"])))
    g = make_graph([(k, 1, "internal") for k in keys], sorted(edges), keys[0])
    self_loops = {src for src, dst, _ in edges if src == dst}
    oracle = [s for s in brute_sccs(keys, edges) if len(s) > 1 or s[0] in self_loops]
    assert any(len(s) > 1 for s in oracle)
    assert detect_cycles(g) == oracle


def test_export_dot_fig1():
    dot = export_dot(fig1_graph())
    assert '"host/entry" -> "remote/./Header" [style=dashed]' in dot
    assert '"remote/./Header" -> "remote/./Nav";' in dot


def test_export_dot_lone_root():
    dot = export_dot(make_graph([(("a", "m"), 1, "entry")], [], ("a", "m")))
    assert dot.count("->") == 0
    assert '"a/m"' in dot


def test_export_dot_deterministic_and_discriminating(fig1_host_path):
    g = fig1_graph()
    assert export_dot(g) == export_dot(g)
    w, _ = load_workspace(fig1_host_path)
    g2, _ = build_graph(w, empty_resolution())
    assert export_dot(g2) == export_dot(g)  # same topology, same bytes
    other = make_graph([(("a", "m"), 1, "entry")], [], ("a", "m"))
    assert export_dot(other) != export_dot(g)


def test_shared_nodes_render_as_boxes():
    w, _ = load_workspace(str(FIXTURES / "fig1_shared" / "host" / "federation.json"))
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    dot = export_dot(g)
    assert '"host/react@18.2.0" [shape=box];' in dot


@st.composite
def module_graphs(draw):
    """(nodes, edges, root) over 1-3 applications. Edges may form intra-application
    cycles and self-loops, pair a static with a dynamic edge between the same two
    nodes, and leave nodes unreachable. Unless `forward` holds, they may also close
    a cycle across applications."""
    apps = ("a", "b", "c")[: draw(st.integers(1, 3))]
    keys = [(name, f"m{i}") for name in apps for i in range(draw(st.integers(1, 5)))]
    forward = draw(st.booleans())  # edges between applications go from a lower to a higher one
    edge = st.tuples(st.sampled_from(keys), st.sampled_from(keys), st.sampled_from(["static", "dynamic"]))
    edges = {
        (src, dst, mode)
        for src, dst, mode in draw(st.lists(edge, max_size=3 * len(keys)))
        if not forward or src[0] <= dst[0]
    }
    for src, dst, mode in draw(st.lists(st.sampled_from(sorted(edges)), max_size=3)) if edges else ():
        edges.add((src, dst, "static" if mode == "dynamic" else "dynamic"))
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        edges.add((key, key, "static"))
    sizes = draw(st.lists(st.integers(0, 10_000), min_size=len(keys), max_size=len(keys)))
    nodes = {key: ModuleNode(key, size, "internal") for key, size in zip(keys, sizes)}
    edge_order = draw(st.permutations(sorted(edges)))
    return nodes, tuple(Edge(*e) for e in edge_order), draw(st.sampled_from(keys))


_MODE_BITS = {STATIC: {"static"}, DYNAMIC: {"dynamic"}, STATIC | DYNAMIC: {"static", "dynamic"}}


@settings(max_examples=400, deadline=None)
@given(module_graphs())
def test_dense_id_graph_matches_the_dict_based_reference(graph):
    nodes, edges, root = graph
    public = SimpleNamespace(nodes=nodes, edges=edges, root=root)
    try:
        ref_units, ref_succs, ref_unit_of = reference_fetch_units(public)
    except ToolError as exc:
        with pytest.raises(ToolError) as err:
            ModuleGraph(nodes, edges, root)
        assert (err.value.code, err.value.message) == (exc.code, exc.message)
        assert exc.code == "E-XAPP-CYCLE"
        return
    g = ModuleGraph(nodes, edges, root)

    assert [tuple(g.keys[i] for i in unit) for unit in g.units] == ref_units
    assert {g.keys[i]: u for i, u in enumerate(g.unit_of)} == ref_unit_of
    assert [
        {v: _MODE_BITS[mode] for v, mode in zip(g.unit_succs[u], g.unit_modes[u])} for u in range(len(g.units))
    ] == [ref_succs[u] for u in range(len(ref_units))]
    assert g.unit_bytes == [sum(nodes[k].size_bytes for k in unit) for unit in ref_units]
    for include_dynamic in (False, True):
        assert reachable_set(g, include_dynamic) == bfs_reachable(
            [(e.src, e.dst, e.mode) for e in edges], root, include_dynamic
        )
    assert waterfall_depth(g) == reference_waterfall_depth(public)

    root_unit = g.unit_of[g.index[root]]
    assert topological_order(g.unit_succs, [root_unit]) == reference_topological_order(ref_succs, [root_unit])
    # Over the nodes themselves, cycles included: the same order, or E-CYCLIC from both.
    node_succs = {i: succs for i, succs in enumerate(g.succs)}
    try:
        expected = reference_topological_order(node_succs, [g.index[root]])
    except ToolError as exc:
        with pytest.raises(ToolError) as err:
            topological_order(g.succs, [g.index[root]])
        assert (err.value.code, err.value.message) == (exc.code, exc.message)
    else:
        assert topological_order(g.succs, [g.index[root]]) == expected

    lazy, expected_lazy = plan(g, empty_resolution(), LoadStrategy.LAZY), reference_plan_lazy(public, empty_resolution())
    assert lazy == expected_lazy
    assert lazy.to_json() == expected_lazy.to_json()
    chain_succs: dict = {}
    for r in lazy.requests:
        for dep in r.depends_on:
            chain_succs.setdefault(dep, []).append(r.id)
    assert longest_chain(lazy) == reference_longest_path(chain_succs, [r.id for r in lazy.requests])
