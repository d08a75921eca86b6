"""Turn a module graph plus share resolution into per-strategy fetch plans.

A plan is purely structural: requests, payloads, sizes, and a causal DAG of
dependsOn edges. Timing (latency, bandwidth, interaction delays) belongs to
the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import ToolError
from .graph import DYNAMIC, KIND_SHARED, ModuleGraph, longest_path, node_label, reachable_ids, topological_order
from .shares import ShareResolution, shared_node

MANIFEST_PSEUDO_MODULE = "__manifest__"
DEFAULT_MANIFEST_BYTES = 2000


class LoadStrategy(enum.Enum):
    LAZY = "lazy"
    PREFETCH = "prefetch"
    EAGER = "eager"
    SSR = "ssr"


@dataclass(frozen=True, slots=True)
class Trigger:
    kind: str  # root | parse | manifest
    node: tuple[str, str] | None = None

    def to_json(self):
        if self.kind == "parse":
            return {"kind": "parse", "node": node_label(self.node)}
        return {"kind": self.kind}


# Triggers are frozen values, so every request of every plan shares these two.
_ROOT_TRIGGER = Trigger("root")
_MANIFEST_TRIGGER = Trigger("manifest")
_NO_DEPENDENCIES: frozenset = frozenset()


# Slotted, not frozen: a plan builds one request per fetch unit, and a frozen
# dataclass sets each field through object.__setattr__, which made building
# the requests a large share of plan() on wide plans. Nothing hashes a
# request; LoadPlan keeps them in a tuple, and equality is unchanged.
@dataclass(slots=True)
class FetchRequest:
    id: int
    payload: frozenset
    size_bytes: int
    depends_on: frozenset
    trigger: Trigger
    # True when every in-plan edge discovering this payload is a dynamic
    # import; the simulator then charges the interaction delay (Lazy only).
    dynamic_trigger: bool = False

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "payload": sorted(node_label(k) for k in self.payload),
            "sizeBytes": self.size_bytes,
            "dependsOn": sorted(self.depends_on),
            "trigger": self.trigger.to_json(),
            "dynamicTrigger": self.dynamic_trigger,
        }


@dataclass(frozen=True)
class LoadPlan:
    strategy: LoadStrategy
    requests: tuple[FetchRequest, ...]
    duplicate_bytes: int
    root_key: tuple[str, str]

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "root": node_label(self.root_key),
            "requests": [r.to_json() for r in self.requests],
            "duplicateBytes": self.duplicate_bytes,
        }


def required_bytes(p: LoadPlan) -> int:
    return sum(r.size_bytes for r in p.requests)


def _plan_lazy(g: ModuleGraph, res: ShareResolution) -> LoadPlan:
    # Deterministic ids in causal order: unit ids already follow the units'
    # first keys, so the smallest ready unit is the one with the smallest key.
    # The walk meets every importer of a unit before the unit itself, so each
    # unit's in-plan importers and their import modes are known on arrival.
    order = topological_order(g.unit_succs, [g.unit_of[g.index[g.root]]])
    key_of, units, unit_succs, unit_modes = g.keys.__getitem__, g.units, g.unit_succs, g.unit_modes
    request_id = [0] * len(units)
    importers: list[list[int]] = [[] for _ in units]
    modes = [0] * len(units)  # OR of the import modes reaching each unit
    triggers: dict[int, Trigger] = {}  # importer unit -> the parse trigger it sets
    requests = []
    for rid, u in enumerate(order):
        request_id[u] = rid
        unit_preds = importers[u]
        if unit_preds:
            depends_on = frozenset([request_id[p] for p in unit_preds])
            first = min(unit_preds)
            trigger = triggers.get(first)
            if trigger is None:
                trigger = triggers[first] = Trigger("parse", key_of(units[first][0]))
            dynamic = modes[u] == DYNAMIC
        else:
            depends_on, trigger, dynamic = _NO_DEPENDENCIES, _ROOT_TRIGGER, False
        payload = frozenset(map(key_of, units[u]))
        requests.append(FetchRequest(rid, payload, g.unit_bytes[u], depends_on, trigger, dynamic))
        for v, mode in zip(unit_succs[u], unit_modes[u]):
            importers[v].append(u)
            modes[v] |= mode
    return LoadPlan(LoadStrategy.LAZY, tuple(requests), res.duplicate_bytes, g.root)


def _plan_prefetch(
    g: ModuleGraph, res: ShareResolution, manifest_bytes: int, required: list[int]
) -> LoadPlan:
    host = g.root[0]
    remote_apps = sorted({key[0] for key in g.keys} - {host})

    requests = []
    after_manifest = _NO_DEPENDENCIES
    if remote_apps:
        payload = frozenset((app, MANIFEST_PSEUDO_MODULE) for app in remote_apps)
        after_manifest = frozenset({0})
        requests.append(
            FetchRequest(0, payload, manifest_bytes * len(remote_apps), _NO_DEPENDENCIES, _MANIFEST_TRIGGER)
        )
    next_id = len(requests)
    keys, nodes = g.keys, g.nodes
    for i in required:  # ascending ids, so in key order
        key = keys[i]
        if key[0] == host:
            depends_on, trigger = _NO_DEPENDENCIES, _ROOT_TRIGGER
        else:
            depends_on, trigger = after_manifest, _MANIFEST_TRIGGER
        requests.append(FetchRequest(next_id, frozenset((key,)), nodes[key].size_bytes, depends_on, trigger))
        next_id += 1
    return LoadPlan(LoadStrategy.PREFETCH, tuple(requests), res.duplicate_bytes, g.root)


def _plan_eager(g: ModuleGraph, res: ShareResolution, required: list[tuple[str, str]]) -> LoadPlan:
    """One self-contained bundle per application, each with its private shared copies.

    Duplicate bytes are every bundled copy beyond one per package. The copy
    kept is the provider's when the provider is bundled, else the largest.
    """
    host = g.root[0]
    module_keys = [k for k in required if g.nodes[k].kind != KIND_SHARED]
    apps = sorted({key[0] for key in module_keys}, key=lambda a: (a != host, a))

    requests = []
    copies: dict[str, dict[str, int]] = {}  # package -> {bundling app: copy size}
    for i, app in enumerate(apps):
        payload = {k for k in module_keys if k[0] == app}
        size = sum(g.nodes[k].size_bytes for k in payload)
        for package, specs in res.scope.by_package.items():
            spec = specs.get(app)
            if spec is None:
                continue
            version = spec.provided_version
            if version is None:
                if package not in res.bindings:
                    continue  # nothing to bundle and nothing negotiated; surfaced as E-NO-PROVIDER
                version = res.bindings[package][0]
            key = shared_node(app, package, version)
            if key not in payload:
                payload.add(key)
                size += spec.size_bytes
            copies.setdefault(package, {})[app] = spec.size_bytes
        requests.append(
            FetchRequest(
                id=i,
                payload=frozenset(payload),
                size_bytes=size,
                depends_on=frozenset(),
                trigger=_ROOT_TRIGGER,
            )
        )
    duplicate_bytes = 0
    for package, sizes in copies.items():
        provider = res.bindings[package][1] if package in res.bindings else None
        kept = sizes[provider] if provider in sizes else max(sizes.values())
        duplicate_bytes += sum(sizes.values()) - kept
    return LoadPlan(LoadStrategy.EAGER, tuple(requests), duplicate_bytes, g.root)


def _plan_ssr(g: ModuleGraph, res: ShareResolution, required: list[tuple[str, str]]) -> LoadPlan:
    payload = set(required)
    for package, (version, provider) in res.bindings.items():
        payload.add(shared_node(provider, package, version))
    size = sum(g.nodes[k].size_bytes for k in payload if k in g.nodes)
    request = FetchRequest(
        id=0,
        payload=frozenset(payload),
        size_bytes=size,
        depends_on=frozenset(),
        trigger=_ROOT_TRIGGER,
    )
    return LoadPlan(LoadStrategy.SSR, (request,), res.duplicate_bytes, g.root)


def plan(
    g: ModuleGraph,
    res: ShareResolution,
    strategy: LoadStrategy,
    manifest_bytes: int = DEFAULT_MANIFEST_BYTES,
) -> LoadPlan:
    """Build the fetch schedule one strategy implies for this graph.

    Lazy reproduces the discovery waterfall (one request per fetch unit, gated
    on every importer). Prefetch spends one manifest round, then fans out flat.
    Eager bundles each application self-contained, duplicating shared packages.
    SSR ships everything as a single server-composed payload.
    """
    required = reachable_ids(g, True)
    if strategy is LoadStrategy.LAZY:
        built = _plan_lazy(g, res)
    elif strategy is LoadStrategy.PREFETCH:
        built = _plan_prefetch(g, res, manifest_bytes, required)
    elif strategy is LoadStrategy.EAGER:
        return _plan_eager(g, res, [g.keys[i] for i in required])  # bundles are not checked
    else:
        built = _plan_ssr(g, res, [g.keys[i] for i in required])

    covered = set().union(*[request.payload for request in built.requests])
    missing = [g.keys[i] for i in required if g.keys[i] not in covered]
    if missing:
        raise ToolError(
            "E-UNPLANNABLE",
            "required nodes missing from plan: " + ", ".join(node_label(k) for k in missing),
        )
    return built


def longest_chain(p: LoadPlan) -> int:
    """Length in requests of the longest dependsOn chain; a dependency on an id
    not in the plan starts no chain."""
    position = {rid: i for i, rid in enumerate(dict.fromkeys(r.id for r in p.requests))}
    succs: list[list[int]] = [[] for _ in position]
    for r in p.requests:
        for dep in r.depends_on:
            if dep in position:
                succs[position[dep]].append(position[r.id])
    return longest_path(succs, range(len(succs)))
