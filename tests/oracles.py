"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written against the declared semantics, not
the library's internals: the range oracle evaluates comparator predicates
directly on integer triples, the subtype oracle re-derives the rules
case by case, the fluid integrator steps time forward instead of jumping
between events, and the exact simulator drains every flow byte count in
rational arithmetic instead of keeping a virtual clock.
"""

from __future__ import annotations

import bisect
import re
from fractions import Fraction

_ATOM = re.compile(r"^(>=|<=|>|<|=|\^|~)?(\d+)\.(\d+)\.(\d+)$")


def oracle_atom(atom: str, v: tuple[int, int, int]) -> bool:
    if atom == "*":
        return True
    m = _ATOM.match(atom)
    if not m:
        raise ValueError(f"bad atom {atom!r}")
    op = m.group(1) or "="
    w = (int(m.group(2)), int(m.group(3)), int(m.group(4)))
    if op == "=":
        return v == w
    if op == ">=":
        return v >= w
    if op == ">":
        return v > w
    if op == "<=":
        return v <= w
    if op == "<":
        return v < w
    if op == "^":
        if w[0] > 0:
            hi = (w[0] + 1, 0, 0)
        elif w[1] > 0:
            hi = (0, w[1] + 1, 0)
        else:
            hi = (0, 0, w[2] + 1)
        return w <= v < hi
    # "~"
    return w <= v < (w[0], w[1] + 1, 0)


def oracle_satisfies(range_text: str, v: tuple[int, int, int]) -> bool:
    return any(
        all(oracle_atom(atom, v) for atom in disjunct.split())
        for disjunct in range_text.split("||")
    )


def all_versions(limit: int = 5) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a in range(limit + 1)
        for b in range(limit + 1)
        for c in range(limit + 1)
    ]


def random_range_text(rng) -> str:
    def atom() -> str:
        if rng.random() < 0.05:
            return "*"
        op = rng.choice(["", "=", ">=", ">", "<=", "<", "^", "~"])
        return f"{op}{rng.randint(0, 5)}.{rng.randint(0, 5)}.{rng.randint(0, 5)}"

    disjuncts = []
    for _ in range(rng.randint(1, 3)):
        disjuncts.append(" ".join(atom() for _ in range(rng.randint(1, 2))))
    return " || ".join(disjuncts)


def oracle_subtype(actual, expected) -> bool:
    """Rule-by-rule re-derivation of the structural subtype relation."""
    from fedplan.interfaces import (
        ArrayType,
        FunctionType,
        PrimitiveType,
        RecordType,
        UnknownType,
    )

    if isinstance(expected, UnknownType):
        return True
    if isinstance(actual, UnknownType):
        return False
    if isinstance(expected, PrimitiveType):
        return isinstance(actual, PrimitiveType) and actual.name == expected.name
    if isinstance(expected, ArrayType):
        return isinstance(actual, ArrayType) and oracle_subtype(actual.element, expected.element)
    if isinstance(expected, RecordType):
        if not isinstance(actual, RecordType):
            return False
        actual_fields = {f.name: f for f in actual.fields}
        for want in expected.fields:
            if want.optional:
                continue  # admission-only; deep checks here break transitivity
            have = actual_fields.get(want.name)
            if have is None or have.optional:
                return False
            if not oracle_subtype(have.type, want.type):
                return False
        return True
    if isinstance(expected, FunctionType):
        if not isinstance(actual, FunctionType):
            return False
        if len(actual.params) > len(expected.params):
            return False
        for ap, ep in zip(actual.params, expected.params):
            if not oracle_subtype(ep, ap):
                return False
        return oracle_subtype(actual.returns, expected.returns)
    return False


def bfs_reachable(edges, root, include_dynamic: bool) -> set:
    adjacency: dict = {}
    for src, dst, mode in edges:
        if mode == "dynamic" and not include_dynamic:
            continue
        adjacency.setdefault(src, []).append(dst)
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop(0)
        for nxt in adjacency.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def dfs_longest_path(edges, root) -> int:
    """Longest root-to-leaf path in node count; acyclic inputs only."""
    adjacency: dict = {}
    for src, dst, _ in edges:
        adjacency.setdefault(src, []).append(dst)

    def walk(node) -> int:
        return 1 + max((walk(nxt) for nxt in adjacency.get(node, [])), default=0)

    return walk(root)


def brute_sccs(nodes, edges) -> list[list]:
    """SCCs via pairwise reachability; fine for test-sized graphs."""
    adjacency: dict = {n: set() for n in nodes}
    for src, dst, _ in edges:
        adjacency[src].add(dst)

    def reaches(a, b) -> bool:
        seen = {a}
        queue = [a]
        while queue:
            n = queue.pop()
            for nxt in adjacency[n]:
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    remaining = set(nodes)
    sccs = []
    while remaining:
        n = min(remaining)
        group = {m for m in remaining if m == n or (reaches(n, m) and reaches(m, n))}
        sccs.append(sorted(group))
        remaining -= group
    return sorted(sccs)


def fluid_integrate(load_plan, net, dt: float = 0.05, horizon: float = 1e6):
    """Forward-stepping fair-share integrator; returns per-request timings.

    The quantization error is bounded by one dt per state transition, so
    comparisons against the event engine should allow a few multiples of dt.
    """
    from fedplan.planner import LoadStrategy

    is_ssr = load_plan.strategy is LoadStrategy.SSR
    compose = net.server_compose_ms if is_ssr else 0.0
    factor = net.hydration_factor if is_ssr else 1.0

    requests = {r.id: r for r in load_plan.requests}
    blocked = set(requests)
    eligible_at: dict[int, float] = {}
    latency_left: dict[int, float] = {}
    transfer_left: dict[int, float] = {}
    parse_left: dict[int, float] = {}
    start_at: dict[int, float] = {}
    done_at: dict[int, float] = {}
    parse_done_at: dict[int, float] = {}

    t = 0.0
    while len(parse_done_at) < len(requests):
        if t > horizon:
            raise RuntimeError("integrator exceeded horizon")

        for rid in sorted(blocked):
            if all(dep in parse_done_at for dep in requests[rid].depends_on):
                delay = net.interaction_delay_ms if requests[rid].dynamic_trigger else 0.0
                eligible_at[rid] = t + delay
                blocked.discard(rid)

        in_flight = len(latency_left) + len(transfer_left)
        waiting = sorted(
            (when, rid) for rid, when in eligible_at.items() if when <= t
        )
        for when, rid in waiting:
            if in_flight >= net.max_concurrent:
                break
            del eligible_at[rid]
            start_at[rid] = t
            latency_left[rid] = net.rtt_ms + compose
            in_flight += 1

        for rid in sorted(latency_left):
            latency_left[rid] -= dt
            if latency_left[rid] <= 0:
                del latency_left[rid]
                transfer_left[rid] = float(requests[rid].size_bytes)

        if transfer_left:
            share = dt * net.bandwidth_bytes_per_ms / len(transfer_left)
            for rid in sorted(transfer_left):
                transfer_left[rid] -= share
                if transfer_left[rid] <= 0:
                    del transfer_left[rid]
                    done_at[rid] = t + dt
                    parse_left[rid] = (
                        requests[rid].size_bytes / 1000.0 * net.parse_ms_per_kb * factor
                    )

        for rid in sorted(parse_left):
            parse_left[rid] -= dt
            if parse_left[rid] <= 0:
                del parse_left[rid]
                parse_done_at[rid] = t + dt

        t += dt

    return {
        rid: (start_at[rid], done_at[rid], parse_done_at[rid]) for rid in requests
    }


def exact_simulate(load_plan, net) -> dict:
    """Rational-time reference for `fedplan.simulator.simulate`.

    Returns {request id: (start, headers, done, parse done)} as Fractions.
    Within one instant it keeps the engine's phase order: transfer finishes,
    header arrivals, parse completions, then FIFO dispatch, repeated until
    nothing fires. Every time and byte count is exact, so events at the same
    instant compare equal and no tolerance is needed.
    """
    from fedplan.planner import LoadStrategy

    is_ssr = load_plan.strategy is LoadStrategy.SSR
    latency_ms = Fraction(net.rtt_ms) + (Fraction(net.server_compose_ms) if is_ssr else 0)
    factor = Fraction(net.hydration_factor) if is_ssr else Fraction(1)
    parse_per_byte = Fraction(net.parse_ms_per_kb) * factor / 1000
    bandwidth = Fraction(net.bandwidth_bytes_per_ms)

    requests = {r.id: r for r in load_plan.requests}

    def delay(rid: int) -> Fraction:
        return Fraction(net.interaction_delay_ms if requests[rid].dynamic_trigger else 0)

    blocked = {rid: set(r.depends_on) for rid, r in requests.items() if r.depends_on}
    queue = sorted((delay(rid), rid) for rid in requests if rid not in blocked)
    latency: dict[int, Fraction] = {}  # headers time
    flows: dict[int, Fraction] = {}  # bytes left
    parsing: dict[int, Fraction] = {}  # parse done time
    times: dict[int, list] = {rid: [None] * 4 for rid in requests}
    parsed = 0

    t = Fraction(0)
    while parsed < len(requests):
        progressed = True
        while progressed:
            progressed = False
            for rid in sorted(r for r, left in flows.items() if left == 0):
                del flows[rid]
                times[rid][2] = t
                parsing[rid] = t + requests[rid].size_bytes * parse_per_byte
                progressed = True
            for rid in sorted(r for r, when in latency.items() if when <= t):
                del latency[rid]
                flows[rid] = Fraction(requests[rid].size_bytes)
                progressed = True
            for rid in sorted(r for r, when in parsing.items() if when <= t):
                del parsing[rid]
                times[rid][3] = t
                parsed += 1
                for child in sorted(blocked):
                    blocked[child].discard(rid)
                    if not blocked[child]:
                        del blocked[child]
                        bisect.insort(queue, (t + delay(child), child))
                progressed = True
            while queue and queue[0][0] <= t and len(latency) + len(flows) < net.max_concurrent:
                _, rid = queue.pop(0)
                times[rid][0] = t
                times[rid][1] = latency[rid] = t + latency_ms
                progressed = True
        if parsed == len(requests):
            break

        candidates = list(latency.values()) + list(parsing.values())
        if queue and len(latency) + len(flows) < net.max_concurrent:
            candidates.append(queue[0][0])
        if flows:
            candidates.append(t + min(flows.values()) * len(flows) / bandwidth)
        if not candidates:
            raise RuntimeError("no runnable request")
        t_next = min(candidates)
        for rid in flows:
            flows[rid] -= (t_next - t) * bandwidth / len(flows)
        t = t_next

    return {rid: tuple(entry) for rid, entry in times.items()}


# --- the dict-based module graph routines, kept as references -----------------
# These are the routines `fedplan.graph` and `fedplan.planner` used before the
# graph moved to dense integer ids. They read only a graph's public `nodes`,
# `edges` and `root`, over dicts keyed by (application, module id) tuples.


def reference_tarjan_sccs(g) -> list[tuple]:
    """Strongly connected components as sorted key tuples (iterative Tarjan)."""
    adjacency: dict = {key: [] for key in g.nodes}
    for edge in g.edges:
        adjacency[edge.src].append(edge)
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs = []
    for start in sorted(g.nodes):
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        work = [(start, iter(adjacency[start]))]  # (node, its unvisited edges)
        while work:
            node, edges = work[-1]
            for edge in edges:
                succ = edge.dst
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
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


def reference_fetch_units(g):
    """(units, unit_succs, unit_of): sorted key tuples, {unit: {successor unit: modes}},
    {key: unit}. Raises E-XAPP-CYCLE when a cycle spans applications."""
    from fedplan.diagnostics import ToolError
    from fedplan.graph import node_label

    units = sorted(reference_tarjan_sccs(g))
    for unit in units:
        if len({key[0] for key in unit}) > 1:
            raise ToolError(
                "E-XAPP-CYCLE",
                "cycle spans applications: " + ", ".join(node_label(k) for k in unit),
            )
    unit_of = {key: i for i, unit in enumerate(units) for key in unit}
    unit_succs: dict = {i: {} for i in range(len(units))}
    for edge in g.edges:
        a, b = unit_of[edge.src], unit_of[edge.dst]
        if a != b:
            unit_succs[a].setdefault(b, set()).add(edge.mode)
    return units, unit_succs, unit_of


def reference_topological_order(succs: dict, starts) -> list:
    """Kahn's algorithm over the nodes reachable from `starts`, smallest ready node first."""
    import heapq

    from fedplan.diagnostics import ToolError

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


def reference_longest_path(succs: dict, starts: list) -> int:
    depth = dict.fromkeys(starts, 1)
    for u in reference_topological_order(succs, starts):
        for v in succs.get(u, ()):
            depth[v] = max(depth.get(v, 0), depth[u] + 1)
    return max(depth.values(), default=0)


def reference_waterfall_depth(g) -> int:
    _, unit_succs, unit_of = reference_fetch_units(g)
    return reference_longest_path(unit_succs, [unit_of[g.root]] if g.nodes else [])


def reference_plan_lazy(g, res):
    """The lazy plan: one request per fetch unit reachable from the root, in Kahn order."""
    from fedplan.planner import FetchRequest, LoadPlan, LoadStrategy, Trigger

    units, unit_succs, unit_of = reference_fetch_units(g)
    order = reference_topological_order(unit_succs, [unit_of[g.root]])
    request_id = {u: i for i, u in enumerate(order)}
    importers: dict = {}
    modes: dict = {}
    requests = []
    for u in order:
        unit_preds = importers.get(u, [])
        if unit_preds:
            dynamic = modes[u] == {"dynamic"}
            trigger = Trigger("parse", units[min(unit_preds)][0])
        else:
            dynamic = False
            trigger = Trigger("root")
        payload = frozenset(units[u])
        requests.append(
            FetchRequest(
                id=request_id[u],
                payload=payload,
                size_bytes=sum(g.nodes[k].size_bytes for k in payload),
                depends_on=frozenset(request_id[p] for p in unit_preds),
                trigger=trigger,
                dynamic_trigger=dynamic,
            )
        )
        for v, edge_modes in unit_succs[u].items():
            importers.setdefault(v, []).append(u)
            modes.setdefault(v, set()).update(edge_modes)
    return LoadPlan(LoadStrategy.LAZY, tuple(requests), res.duplicate_bytes, g.root)


def reference_from_sim(report) -> list:
    """The spans of a simulation timeline, built eagerly entry by entry: the
    root s1, then per entry a fetch span and a parse span, each entry checked
    as 0 <= start <= done <= parse done <= TTI. Raises the ToolError that
    `fedplan.trace.from_sim` must raise."""
    from fedplan.diagnostics import ToolError
    from fedplan.trace import Span

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
    return spans
