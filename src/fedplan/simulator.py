"""Deterministic discrete-event simulation of a load plan over a network model.

Bandwidth is processor-shared: every in-flight transfer receives an equal
slice of the link. That is what makes prefetch bursts pay a visible cost
instead of getting free infinite parallelism.

Sharing runs on a virtual clock, as in generalized processor sharing
(Demers, Keshav & Shenker 1989; Parekh & Gallager 1993). The clock v
advances at bandwidth / (transfers in flight); a transfer that starts at v0
ends when v reaches its finish tag v0 + size. Pending events sit in four
heaps keyed (time, id), and each pass of the loop jumps to the earliest one
and retires it, so no byte count is drained per flow and the run ends after
a bounded number of passes whatever the float rounding. A next event time
that overflows the float range is E-BAD-NET.

Waterfall rounds are counted during the run: when a request finishes
parsing, each request that depends on it is at least one round deeper.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import astuple, dataclass
from operator import attrgetter

from .diagnostics import ToolError
from .graph import ModuleGraph, node_label
from .planner import DEFAULT_MANIFEST_BYTES, LoadPlan, LoadStrategy, plan
from .shares import ShareResolution

# Events this close (ms, or bytes of virtual time) count as one instant.
_EPS = 1e-9

_request_id = attrgetter("id")

ALL_STRATEGIES = (
    LoadStrategy.LAZY,
    LoadStrategy.PREFETCH,
    LoadStrategy.EAGER,
    LoadStrategy.SSR,
)


@dataclass(frozen=True)
class NetworkModel:
    rtt_ms: float = 100.0
    bandwidth_bytes_per_ms: float = 100.0
    max_concurrent: int = 6
    parse_ms_per_kb: float = 0.0
    server_compose_ms: float = 0.0
    hydration_factor: float = 1.0
    interaction_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        # An int is finite, and may be too large for math.isfinite's float.
        if not all(isinstance(v, int) or math.isfinite(v) for v in astuple(self)):
            raise ToolError("E-BAD-NET", "network parameters must be finite")
        if (
            min(
                self.rtt_ms,
                self.parse_ms_per_kb,
                self.server_compose_ms,
                self.hydration_factor,
                self.interaction_delay_ms,
            )
            < 0
        ):
            raise ToolError("E-BAD-NET", "network parameters must be >= 0")
        if self.bandwidth_bytes_per_ms <= 0:
            raise ToolError("E-BAD-NET", "bandwidthBytesPerMs must be > 0")
        if self.max_concurrent < 1:
            raise ToolError("E-BAD-NET", "maxConcurrent must be >= 1")


_NET_FIELDS = {
    "rttMs": "rtt_ms",
    "bandwidthBytesPerMs": "bandwidth_bytes_per_ms",
    "maxConcurrent": "max_concurrent",
    "parseMsPerKb": "parse_ms_per_kb",
    "serverComposeMs": "server_compose_ms",
    "hydrationFactor": "hydration_factor",
    "interactionDelayMs": "interaction_delay_ms",
}


def network_from_json(obj: object) -> NetworkModel:
    if not isinstance(obj, dict):
        raise ToolError("E-BAD-NET", "network model must be a JSON object")
    kwargs = {}
    for key, value in obj.items():
        if key not in _NET_FIELDS:
            raise ToolError("E-BAD-NET", f"unknown network field {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ToolError("E-BAD-NET", f"network field {key!r} must be a number")
        if key == "maxConcurrent" and not (isinstance(value, int) or value.is_integer()):
            raise ToolError("E-BAD-NET", "maxConcurrent must be a whole number")
        try:
            kwargs[_NET_FIELDS[key]] = int(value) if key == "maxConcurrent" else float(value)
        except OverflowError:
            raise ToolError("E-BAD-NET", f"network field {key!r} is too large") from None
    return NetworkModel(**kwargs)


# Slotted, not frozen, like planner.FetchRequest: simulate() builds one entry
# per request, and a frozen dataclass costs several times as much to build.
# Nothing hashes an entry; SimReport keeps them in a tuple.
@dataclass(slots=True)
class TimelineEntry:
    request_id: int
    start_ms: float
    headers_ms: float
    done_ms: float
    parse_done_ms: float
    size_bytes: int

    def to_json(self) -> dict:
        return {
            "requestId": self.request_id,
            "startMs": self.start_ms,
            "headersMs": self.headers_ms,
            "doneMs": self.done_ms,
            "parseDoneMs": self.parse_done_ms,
            "sizeBytes": self.size_bytes,
        }


@dataclass(frozen=True)
class SimReport:
    """One simulated load. waterfall_rounds, the requests on the longest
    dependsOn chain, is counted during the run rather than by a second pass
    over the plan."""

    strategy: LoadStrategy
    time_to_first_render_ms: float
    time_to_interactive_ms: float
    total_bytes: int
    request_count: int
    max_observed_concurrency: int
    waterfall_rounds: int
    timeline: tuple[TimelineEntry, ...]

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "timeToFirstRenderMs": self.time_to_first_render_ms,
            "timeToInteractiveMs": self.time_to_interactive_ms,
            "totalBytes": self.total_bytes,
            "requestCount": self.request_count,
            "maxObservedConcurrency": self.max_observed_concurrency,
            "waterfallRounds": self.waterfall_rounds,
            "timeline": [entry.to_json() for entry in self.timeline],
        }


def simulate(p: LoadPlan, net: NetworkModel) -> SimReport:
    """Run the plan to completion and report the realized timeline.

    A request becomes eligible once every dependsOn request has finished
    parsing (plus the interaction delay for dynamically triggered requests),
    waits FIFO for a concurrency slot, pays one round trip, transfers under
    fair-share bandwidth, then parses. SSR pays server composition before its
    transfer and hydration-weighted parsing after it. Two requests with one
    id are E-DUP-REQUEST.
    """
    # Per-request state lives in lists indexed by position in id order, so a
    # tie broken by position is broken by request id.
    requests = sorted(p.requests, key=_request_id)
    position = {r.id: i for i, r in enumerate(requests)}
    if len(position) != len(requests):
        seen: set[int] = set()
        for r in p.requests:
            if r.id in seen:
                raise ToolError("E-DUP-REQUEST", f"request id {r.id} appears more than once in the plan")
            seen.add(r.id)
    n = len(requests)
    if not n:
        return SimReport(p.strategy, 0.0, 0.0, 0, 0, 0, 0, ())
    root_request = next((r.id for r in p.requests if p.root_key in r.payload), None)
    if root_request is None:
        raise ToolError("E-UNPLANNABLE", f"no request carries the root {node_label(p.root_key)}")

    is_ssr = p.strategy is LoadStrategy.SSR
    compose = net.server_compose_ms if is_ssr else 0.0
    parse_factor = net.hydration_factor if is_ssr else 1.0
    rtt, bandwidth, max_concurrent = net.rtt_ms, net.bandwidth_bytes_per_ms, net.max_concurrent
    push, pop = heapq.heappush, heapq.heappop
    eps, inf, isfinite = _EPS, math.inf, math.isfinite

    size = [r.size_bytes for r in requests]
    parse_ms = [b / 1000.0 * net.parse_ms_per_kb * parse_factor for b in size]
    interaction = net.interaction_delay_ms
    delay = [interaction if r.dynamic_trigger else 0.0 for r in requests]
    children: list[list[int]] = [[] for _ in requests]
    blocked_on = [len(r.depends_on) for r in requests]
    for r in p.requests:
        i = position[r.id]
        for dep in r.depends_on:
            j = position.get(dep)
            if j is None:
                raise ToolError("E-DEADLOCK", f"request {r.id} depends on unknown request {dep}")
            children[j].append(i)
    # Requests on the longest dependsOn chain ending at each request, final
    # once the request's last dependency has parsed.
    depth = [1] * n

    ready = [(delay[i], i) for i, count in enumerate(blocked_on) if count == 0]
    heapq.heapify(ready)
    latency: list[tuple[float, int]] = []  # headers arrive, transfer starts
    flows: list[tuple[float, int]] = []  # virtual finish tag v0 + size
    parsing: list[tuple[float, int]] = []  # parse completes

    start_at = [0.0] * n
    headers_at = [0.0] * n
    done_at = [0.0] * n
    parse_done_at = [0.0] * n
    parsed = 0

    in_flight = 0
    max_in_flight = 0
    t = 0.0
    v = 0.0

    while True:
        # Within one instant: finishes, header arrivals, parse completions,
        # then FIFO dispatch, repeated until nothing fires.
        t_eps, v_eps = t + eps, v + eps
        progressed = True
        while progressed:
            progressed = False
            while flows and flows[0][0] <= v_eps:
                i = pop(flows)[1]
                done_at[i] = t
                push(parsing, (t + parse_ms[i], i))
                in_flight -= 1
                progressed = True
            while latency and latency[0][0] <= t_eps:
                i = pop(latency)[1]
                push(flows, (v + size[i], i))
                progressed = True
            while parsing and parsing[0][0] <= t_eps:
                i = pop(parsing)[1]
                parse_done_at[i] = t
                parsed += 1
                child_depth = depth[i] + 1
                for child in children[i]:
                    if depth[child] < child_depth:
                        depth[child] = child_depth
                    blocked_on[child] -= 1
                    if not blocked_on[child]:
                        push(ready, (t + delay[child], child))
                progressed = True
            while in_flight < max_concurrent and ready and ready[0][0] <= t_eps:
                i = pop(ready)[1]
                start_at[i] = t
                headers_at[i] = headers = t + rtt + compose
                push(latency, (headers, i))
                in_flight += 1
                if in_flight > max_in_flight:
                    max_in_flight = in_flight
                progressed = True

        if parsed == n:
            break
        if not (latency or flows or parsing or ready):
            raise ToolError("E-DEADLOCK", "no runnable request; dependsOn cycle in plan")

        # Jump to the next event. When it is a flow finish, v lands on that
        # flow's tag exactly, so every pass retires at least one event. A
        # waiting ready request holds an event only while a slot is free;
        # otherwise a transfer or header arrival is pending. A fair share that
        # underflows to zero never finishes its head flow.
        t_next = latency[0][0] if latency else inf
        if parsing and parsing[0][0] < t_next:
            t_next = parsing[0][0]
        if ready and in_flight < max_concurrent and ready[0][0] < t_next:
            t_next = ready[0][0]
        if flows:
            rate = bandwidth / len(flows)
            t_flow = t + (flows[0][0] - v) / rate if rate else inf
            if t_flow <= t_next:
                t_next, v = t_flow, flows[0][0]
            else:
                v += (t_next - t) * rate
        if not isfinite(t_next):
            raise ToolError("E-BAD-NET", "simulated time overflows; network parameters are too extreme")
        t = t_next

    # A stable sort on start time keeps id order among equal starts.
    timeline = tuple(
        TimelineEntry(requests[i].id, start_at[i], headers_at[i], done_at[i], parse_done_at[i], size[i])
        for i in sorted(range(n), key=start_at.__getitem__)
    )
    return SimReport(
        strategy=p.strategy,
        time_to_first_render_ms=parse_done_at[position[root_request]],
        time_to_interactive_ms=max(parse_done_at),
        total_bytes=sum(size),
        request_count=n,
        max_observed_concurrency=max_in_flight,
        waterfall_rounds=max(depth),
        timeline=timeline,
    )


def compare_strategies(
    g: ModuleGraph,
    res: ShareResolution,
    net: NetworkModel,
    strategies: tuple[LoadStrategy, ...] = ALL_STRATEGIES,
    manifest_bytes: int = DEFAULT_MANIFEST_BYTES,
) -> list[SimReport]:
    """One report per strategy over identical inputs, in the order given."""
    return [
        simulate(plan(g, res, strategy, manifest_bytes=manifest_bytes), net)
        for strategy in strategies
    ]
