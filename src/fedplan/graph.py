"""Cross-application module graph: construction, reachability, depth, cycles, DOT.

Nodes are (application, module id) pairs; shared packages get their own
provider-attributed nodes so deduplication is visible in the topology. Module
cycles inside one application are tolerated (bundlers chunk them together);
cycles that span applications have no load order and are hard errors.

A `ModuleGraph` builds its adjacency and fetch-unit contraction once, at
construction, and raises E-XAPP-CYCLE there, so every graph that exists is a
valid load graph. The functions below read those indexes; none rebuilds them.

The indexes are over dense integer ids, not keys: node i is the i-th key in
sorted order, and a fetch unit's id is its position among units ordered by
their first node. Ids sort exactly as keys do, so every "smallest first" rule
downstream (request ids, Kahn's ready heap, the importer that triggers a lazy
request, FIFO ties at the concurrency cap) picks what it picked over keys.
Adjacency is successor id lists with a STATIC / DYNAMIC bit per edge; the
unit DAG is the same over unit ids, with the bits of an edge's module edges
merged. Keys come back only where output needs them: payloads, triggers,
`reachable_set`, DOT and JSON.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from .diagnostics import Diagnostic, DiagnosticBag, ToolError
from .manifest import LocalImport, RemoteImport, Workspace
from .shares import ShareResolution, shared_node

KIND_ENTRY = "entry"
KIND_EXPOSED = "exposed"
KIND_INTERNAL = "internal"
KIND_SHARED = "sharedPkg"


# Named tuples, so that build_graph's edge set hashes and compares them in C.
# An edge's natural order, (src, dst, mode), is the order of `edges`.
class ModuleNode(NamedTuple):
    key: tuple[str, str]
    size_bytes: int
    kind: str


class Edge(NamedTuple):
    src: tuple[str, str]
    dst: tuple[str, str]
    mode: str  # static | dynamic


# Import modes as bits: a unit DAG edge carries the OR of the modes of the
# module edges it contracts.
STATIC = 1
DYNAMIC = 2


@dataclass(frozen=True)
class ModuleGraph:
    """Nodes, edges and root, plus indexes over dense ids derived once at construction.

    Node i is `keys[i]`, the i-th key in sorted order, and `index` maps a key
    to its id. `succs[i]` lists node i's successor ids, one per edge, and
    `modes[i]` the STATIC / DYNAMIC bit of each. `units`, `unit_succs`,
    `unit_of`, `unit_modes` and `unit_bytes` are the fetch-unit contraction
    (see `fetch_units`). Construction raises E-XAPP-CYCLE when a cycle spans
    applications.
    """

    nodes: dict[tuple[str, str], ModuleNode]
    edges: tuple[Edge, ...]
    root: tuple[str, str]
    keys: tuple[tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    index: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    succs: list[list[int]] = field(init=False, repr=False, compare=False)
    modes: list[list[int]] = field(init=False, repr=False, compare=False)
    units: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    unit_of: list[int] = field(init=False, repr=False, compare=False)
    unit_succs: list[list[int]] = field(init=False, repr=False, compare=False)
    unit_modes: list[list[int]] = field(init=False, repr=False, compare=False)
    unit_bytes: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = tuple(sorted(self.nodes))
        index = {key: i for i, key in enumerate(keys)}
        succs: list[list[int]] = [[] for _ in keys]
        modes: list[list[int]] = [[] for _ in keys]
        for src, dst, mode in self.edges:
            i = index[src]
            succs[i].append(index[dst])
            modes[i].append(DYNAMIC if mode == "dynamic" else STATIC)
        for name, value in (("keys", keys), ("index", index), ("succs", succs), ("modes", modes)):
            object.__setattr__(self, name, value)
        names = ("units", "unit_succs", "unit_of", "unit_modes", "unit_bytes")
        for name, value in zip(names, fetch_units(self)):
            object.__setattr__(self, name, value)


def node_label(key: tuple[str, str]) -> str:
    return f"{key[0]}/{key[1]}"


def build_graph(w: Workspace, res: ShareResolution) -> tuple[ModuleGraph, list[Diagnostic]]:
    """Link every application's declared modules into one graph.

    Local imports stay inside their application; remote imports resolve through
    the target's expose table; shared imports land on the bound package node,
    or on the importer's private fallback node when it opted out of the winner.
    """
    bag = DiagnosticBag()
    nodes: dict[tuple[str, str], ModuleNode] = {}
    fallback_node: dict[tuple[str, str], tuple[str, str]] = {}  # (app, pkg) -> node key

    for app in w.applications():
        exposed = {e.module for e in app.exposes}
        for mod in app.modules:
            if mod.id == app.entry:
                kind = KIND_ENTRY
            elif mod.id in exposed:
                kind = KIND_EXPOSED
            else:
                kind = KIND_INTERNAL
            nodes[(app.name, mod.id)] = ModuleNode((app.name, mod.id), mod.size_bytes, kind)

    specs = res.scope.by_package
    bound_node: dict[str, tuple[str, str]] = {}
    for package, (version, provider) in res.bindings.items():
        key = shared_node(provider, package, version)
        bound_node[package] = key
        nodes[key] = ModuleNode(key, specs[package][provider].size_bytes, KIND_SHARED)
    for app_name, package, version in res.fallbacks:
        key = shared_node(app_name, package, version)
        fallback_node[(app_name, package)] = key
        nodes[key] = ModuleNode(key, specs[package][app_name].size_bytes, KIND_SHARED)

    edges: set[Edge] = set()
    for app in w.applications():
        for mod in app.modules:
            src = (app.name, mod.id)
            for mode, refs in (("static", mod.static_imports), ("dynamic", mod.dynamic_imports)):
                for ref in refs:
                    if isinstance(ref, LocalImport):
                        dst = (app.name, ref.module)
                        if dst not in nodes:
                            raise ToolError(
                                "E-DANGLING-LOCAL",
                                f"{app.name}:{mod.id} imports undeclared module {ref.module!r}",
                            )
                    elif isinstance(ref, RemoteImport):
                        target = w.resolve_alias(app.name, ref.remote)
                        if target is None:
                            raise ToolError(
                                "E-DANGLING-REMOTE",
                                f"{app.name}:{mod.id} imports unknown remote {ref.remote!r}",
                            )
                        module_id = target.expose_target(ref.expose)
                        if module_id is None or (target.name, module_id) not in nodes:
                            raise ToolError(
                                "E-DANGLING-REMOTE",
                                f"{app.name}:{mod.id} imports {ref.remote}/{ref.expose}, "
                                f"which {target.name} does not expose",
                            )
                        dst = (target.name, module_id)
                        if app.name != w.host.name:
                            bag.warning(
                                "W-TRANSITIVE-REMOTE",
                                f"{app.name}:{mod.id}",
                                f"remote application imports {ref.remote}/{ref.expose} transitively",
                            )
                    else:  # SharedImport
                        dst = fallback_node.get((app.name, ref.package)) or bound_node.get(
                            ref.package
                        )
                        if dst is None:
                            raise ToolError(
                                "E-UNRESOLVED-SHARED",
                                f"{app.name}:{mod.id} imports shared package "
                                f"{ref.package!r} absent from the resolution",
                            )
                    edges.add(Edge(src, dst, mode))

    root = (w.host.name, w.host.entry)
    if root not in nodes:
        raise ToolError("E-DANGLING-LOCAL", f"host entry {w.host.entry!r} is not a declared module")
    graph = ModuleGraph(nodes, tuple(sorted(edges)), root)
    return graph, bag.items


def reachable_ids(g: ModuleGraph, include_dynamic: bool) -> list[int]:
    """Ids of the nodes reachable from root, ascending (so in key order)."""
    seen = bytearray(len(g.keys))
    start = g.index[g.root]
    seen[start] = 1
    frontier = [start]
    succs, modes = g.succs, g.modes
    while frontier:
        i = frontier.pop()
        for j, mode in zip(succs[i], modes[i]):
            if not seen[j] and (include_dynamic or mode == STATIC):
                seen[j] = 1
                frontier.append(j)
    return list(compress(range(len(seen)), seen))


def reachable_set(g: ModuleGraph, include_dynamic: bool) -> set[tuple[str, str]]:
    """Nodes reachable from root; dynamic edges are followed only when asked."""
    keys = g.keys
    return {keys[i] for i in reachable_ids(g, include_dynamic)}


def _tarjan_sccs(succs: list[list[int]]) -> list[tuple[int, ...]]:
    """Strongly connected components of the id graph `succs`, as sorted id tuples.

    Iterative Tarjan (1972): `order[i]` is i's discovery number, -1 until
    found; a node leaves the stack, as part of its component, once the
    component's first-found node completes.
    """
    n = len(succs)
    order = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    sccs = []
    found = 0
    for start in range(n):
        if order[start] >= 0:
            continue
        order[start] = low[start] = found
        found += 1
        stack.append(start)
        on_stack[start] = 1
        work = [(start, iter(succs[start]))]  # (node, its unvisited successors)
        while work:
            node, rest = work[-1]
            for succ in rest:
                if order[succ] < 0:
                    order[succ] = low[succ] = found
                    found += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    work.append((succ, iter(succs[succ])))
                    break
                if on_stack[succ] and order[succ] < low[node]:
                    low[node] = order[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == order[node]:
                    scc = []
                    while not scc or scc[-1] != node:
                        scc.append(stack.pop())
                        on_stack[scc[-1]] = 0
                    sccs.append(tuple(sorted(scc)))
    return sccs


def fetch_units(g: ModuleGraph):
    """Contract intra-application cycles into single fetch units.

    Returns (units, unit_succs, unit_of, unit_modes, unit_bytes) over node and
    unit ids: units are sorted id tuples in the order of their first ids (so
    of their first keys), unit_succs[u] lists u's successor units once each
    and unit_modes[u] the STATIC / DYNAMIC bits of each, unit_of maps node ids
    to unit ids, and unit_bytes[u] is the unit's total size. Raises
    E-XAPP-CYCLE when a cycle spans applications. `ModuleGraph` calls this
    once, when it is built.
    """
    keys = g.keys
    units = sorted(_tarjan_sccs(g.succs))  # disjoint, so the first ids decide the order
    for unit in units:
        if len(unit) > 1 and len({keys[i][0] for i in unit}) > 1:
            raise ToolError(
                "E-XAPP-CYCLE",
                "cycle spans applications: " + ", ".join(node_label(keys[i]) for i in unit),
            )
    unit_of = [0] * len(keys)
    for u, unit in enumerate(units):
        for i in unit:
            unit_of[i] = u
    unit_succs, unit_modes, unit_bytes = [], [], []
    nodes, succs, modes = g.nodes, g.succs, g.modes
    for u, unit in enumerate(units):
        merged: dict[int, int] = {}  # successor unit -> mode bits
        size = 0
        for i in unit:
            size += nodes[keys[i]].size_bytes
            for j, mode in zip(succs[i], modes[i]):
                v = unit_of[j]
                if v != u:
                    merged[v] = merged.get(v, 0) | mode
        unit_succs.append(list(merged))
        unit_modes.append(list(merged.values()))
        unit_bytes.append(size)
    return units, unit_succs, unit_of, unit_modes, unit_bytes


def topological_order(succs: list[list[int]], starts: Iterable[int]) -> list[int]:
    """Kahn's algorithm over the ids reachable from `starts` along `succs`.

    Among ready ids the smallest goes first, so the order is deterministic.
    Raises E-CYCLIC when those ids hold a cycle.
    """
    indegree = [-1] * len(succs)  # -1: not reached
    firsts = []
    for u in starts:
        if indegree[u] < 0:
            indegree[u] = 0
            firsts.append(u)
    frontier = list(firsts)
    reached = 0
    while frontier:  # each reached id is expanded once, so each edge is counted once
        reached += 1
        for v in succs[frontier.pop()]:
            if indegree[v] < 0:
                indegree[v] = 1
                frontier.append(v)
            else:
                indegree[v] += 1
    ready = [u for u in firsts if not indegree[u]]
    heapq.heapify(ready)
    order = []
    push, pop = heapq.heappush, heapq.heappop
    while ready:
        u = pop(ready)
        order.append(u)
        for v in succs[u]:
            indegree[v] -= 1
            if not indegree[v]:
                push(ready, v)
    if len(order) != reached:
        raise ToolError("E-CYCLIC", "dependency graph has a cycle")
    return order


def longest_path(succs: list[list[int]], starts: Sequence[int]) -> int:
    """Nodes on the longest path that begins in `starts`, over the id DAG `succs`.

    Iterative over a topological order, so a chain of any length fits.
    """
    depth = [0] * len(succs)
    for u in starts:
        depth[u] = 1
    for u in topological_order(succs, starts):
        below = depth[u] + 1
        for v in succs[u]:
            if depth[v] < below:
                depth[v] = below
    return max(depth, default=0)


def waterfall_depth(g: ModuleGraph) -> int:
    """Sequential fetch rounds of a naive lazy loader along its worst chain.

    Counts contracted fetch units on the longest path from the root, following
    static and dynamic edges alike (dynamic discovery is what builds the
    waterfall in the first place).
    """
    return longest_path(g.unit_succs, [g.unit_of[g.index[g.root]]] if g.nodes else [])


def detect_cycles(g: ModuleGraph) -> list[list[tuple[str, str]]]:
    """Strongly connected components with more than one node, plus self-loops."""
    keys = g.keys
    return [
        [keys[i] for i in unit]
        for unit in g.units
        if len(unit) > 1 or unit[0] in g.succs[unit[0]]
    ]


def export_dot(g: ModuleGraph) -> str:
    """Deterministic DOT rendering: dashed dynamic edges, boxed shared packages."""
    lines = ["digraph modules {", "  rankdir=LR;"]
    for key in g.keys:
        node = g.nodes[key]
        attrs = ["shape=box"] if node.kind == KIND_SHARED else ["shape=ellipse"]
        if node.kind == KIND_ENTRY:
            attrs.append("style=bold")
        lines.append(f'  "{node_label(key)}" [{", ".join(attrs)}];')
    for edge in sorted(g.edges):
        suffix = " [style=dashed]" if edge.mode == "dynamic" else ""
        lines.append(f'  "{node_label(edge.src)}" -> "{node_label(edge.dst)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: ModuleGraph) -> dict:
    return {
        "nodes": [
            {
                "key": node_label(key),
                "app": key[0],
                "id": key[1],
                "kind": g.nodes[key].kind,
                "sizeBytes": g.nodes[key].size_bytes,
            }
            for key in g.keys
        ],
        "edges": [
            {"from": node_label(e.src), "to": node_label(e.dst), "mode": e.mode}
            for e in sorted(g.edges)
        ],
    }
