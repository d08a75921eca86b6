"""Cross-application module graph: construction, reachability, depth, cycles, DOT.

Nodes are (application, module id) pairs; shared packages get their own
provider-attributed nodes so deduplication is visible in the topology. Module
cycles inside one application are tolerated (bundlers chunk them together);
cycles that span applications have no load order and are hard errors.

A `ModuleGraph` builds its adjacency and fetch-unit contraction once, at
construction, and raises E-XAPP-CYCLE there, so every graph that exists is a
valid load graph. The functions below read those indexes; none rebuilds them.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticBag, ToolError
from .manifest import LocalImport, RemoteImport, Workspace
from .shares import ShareResolution, shared_node

KIND_ENTRY = "entry"
KIND_EXPOSED = "exposed"
KIND_INTERNAL = "internal"
KIND_SHARED = "sharedPkg"


@dataclass(frozen=True)
class ModuleNode:
    key: tuple[str, str]
    size_bytes: int
    kind: str


@dataclass(frozen=True)
class Edge:
    src: tuple[str, str]
    dst: tuple[str, str]
    mode: str  # static | dynamic


@dataclass(frozen=True)
class ModuleGraph:
    """Nodes, edges and root, plus indexes derived once at construction.

    `adjacency` maps each node to its outgoing edges; `units`, `unit_succs`
    and `unit_of` are the fetch-unit contraction (see `fetch_units`).
    Construction raises E-XAPP-CYCLE when a cycle spans applications.
    """

    nodes: dict[tuple[str, str], ModuleNode]
    edges: tuple[Edge, ...]
    root: tuple[str, str]
    adjacency: dict[tuple[str, str], list[Edge]] = field(init=False, repr=False, compare=False)
    units: list[tuple[tuple[str, str], ...]] = field(init=False, repr=False, compare=False)
    unit_succs: dict[int, dict[int, set[str]]] = field(init=False, repr=False, compare=False)
    unit_of: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adjacency: dict[tuple[str, str], list[Edge]] = {key: [] for key in self.nodes}
        for edge in self.edges:
            adjacency[edge.src].append(edge)
        object.__setattr__(self, "adjacency", adjacency)
        for name, index in zip(("units", "unit_succs", "unit_of"), fetch_units(self)):
            object.__setattr__(self, name, index)


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
    graph = ModuleGraph(nodes, tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.mode))), root)
    return graph, bag.items


def reachable_set(g: ModuleGraph, include_dynamic: bool) -> set[tuple[str, str]]:
    """Nodes reachable from root; dynamic edges are followed only when asked."""
    seen = {g.root}
    frontier = [g.root]
    while frontier:
        key = frontier.pop()
        for edge in g.adjacency[key]:
            if edge.dst not in seen and (include_dynamic or edge.mode != "dynamic"):
                seen.add(edge.dst)
                frontier.append(edge.dst)
    return seen


def _tarjan_sccs(g: ModuleGraph) -> list[tuple[tuple[str, str], ...]]:
    """Strongly connected components as sorted tuples (iterative Tarjan)."""
    index: dict[tuple[str, str], int] = {}
    low: dict[tuple[str, str], int] = {}
    on_stack: set[tuple[str, str]] = set()
    stack: list[tuple[str, str]] = []
    sccs = []
    for start in sorted(g.nodes):
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        work = [(start, iter(g.adjacency[start]))]  # (node, its unvisited edges)
        while work:
            node, edges = work[-1]
            for edge in edges:
                succ = edge.dst
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(g.adjacency[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while not scc or scc[-1] != node:
                        scc.append(stack.pop())
                        on_stack.discard(scc[-1])
                    sccs.append(tuple(sorted(scc)))
    return sccs


def fetch_units(g: ModuleGraph):
    """Contract intra-application cycles into single fetch units.

    Returns (units, unit_succs, unit_of): units are sorted key tuples in the
    order of their first keys, unit_succs maps every unit index to
    {successor index: import modes}, unit_of maps keys to unit indices. Raises
    E-XAPP-CYCLE when a cycle spans applications. `ModuleGraph` calls this
    once, when it is built.
    """
    units = sorted(_tarjan_sccs(g))  # disjoint, so the first keys decide the order
    for unit in units:
        if len({key[0] for key in unit}) > 1:
            raise ToolError(
                "E-XAPP-CYCLE",
                "cycle spans applications: " + ", ".join(node_label(k) for k in unit),
            )
    unit_of = {key: i for i, unit in enumerate(units) for key in unit}
    unit_succs: dict[int, dict[int, set[str]]] = {i: {} for i in range(len(units))}
    for edge in g.edges:
        a, b = unit_of[edge.src], unit_of[edge.dst]
        if a != b:
            unit_succs[a].setdefault(b, set()).add(edge.mode)
    return units, unit_succs, unit_of


def topological_order(succs: dict, starts: Iterable) -> list:
    """Kahn's algorithm over the nodes reachable from `starts` along `succs`.

    Among ready nodes the smallest goes first, so the order is deterministic.
    Raises E-CYCLIC when those nodes hold a cycle.
    """
    pending = dict.fromkeys(starts, 0)
    frontier = list(pending)
    while frontier:
        for v in succs.get(frontier.pop(), ()):
            if v not in pending:
                pending[v] = 0
                frontier.append(v)
    for u in pending:
        for v in succs.get(u, ()):
            pending[v] += 1
    ready = [u for u, count in pending.items() if count == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succs.get(u, ()):
            pending[v] -= 1
            if pending[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(pending):
        raise ToolError("E-CYCLIC", "dependency graph has a cycle")
    return order


def longest_path(succs: dict, starts: list) -> int:
    """Nodes on the longest path that begins in `starts`, over the DAG `succs`.

    Iterative over a topological order, so a chain of any length fits.
    """
    depth = dict.fromkeys(starts, 1)
    for u in topological_order(succs, starts):
        for v in succs.get(u, ()):
            depth[v] = max(depth.get(v, 0), depth[u] + 1)
    return max(depth.values(), default=0)


def waterfall_depth(g: ModuleGraph) -> int:
    """Sequential fetch rounds of a naive lazy loader along its worst chain.

    Counts contracted fetch units on the longest path from the root, following
    static and dynamic edges alike (dynamic discovery is what builds the
    waterfall in the first place).
    """
    return longest_path(g.unit_succs, [g.unit_of[g.root]] if g.nodes else [])


def detect_cycles(g: ModuleGraph) -> list[list[tuple[str, str]]]:
    """Strongly connected components with more than one node, plus self-loops."""
    self_loops = {e.src for e in g.edges if e.src == e.dst}
    return [list(unit) for unit in g.units if len(unit) > 1 or unit[0] in self_loops]


def export_dot(g: ModuleGraph) -> str:
    """Deterministic DOT rendering: dashed dynamic edges, boxed shared packages."""
    lines = ["digraph modules {", "  rankdir=LR;"]
    for key in sorted(g.nodes):
        node = g.nodes[key]
        attrs = ["shape=box"] if node.kind == KIND_SHARED else ["shape=ellipse"]
        if node.kind == KIND_ENTRY:
            attrs.append("style=bold")
        lines.append(f'  "{node_label(key)}" [{", ".join(attrs)}];')
    for edge in sorted(g.edges, key=lambda e: (e.src, e.dst, e.mode)):
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
            for key in sorted(g.nodes)
        ],
        "edges": [
            {"from": node_label(e.src), "to": node_label(e.dst), "mode": e.mode}
            for e in sorted(g.edges, key=lambda e: (e.src, e.dst, e.mode))
        ],
    }
