"""Seeded generator of synthetic module federations, with ground truth.

`generate(shape, seed, root)` writes one `federation.json` per application,
plus one interface file per exposed module, under `root`, and returns the
answers the benchmark's output checks compare against. Those answers come
from the generator's own bookkeeping, never from fedplan. The same shape and
seed write byte-identical trees.

Every application is a set of independent layered DAGs ("features"). Each
module in layer l+1 is imported by at least one module in layer l, so a
feature's root reaches the whole feature, and the longest import chain of a
feature is its layer count. The host's entry imports its own feature roots
and the first `consumed` exposed feature roots of every remote.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

PRIMITIVES = ("string", "number", "boolean")
HOST = "host"
ENTRY = "./entry"
# Byte sizes of split chunks and of shared libraries, uniform in [lo, hi).
MODULE_BYTES = (500, 8_000)
SHARED_BYTES = (4_000, 40_000)


@dataclass(frozen=True)
class Shape:
    remotes: int  # remote applications besides the host
    modules: int  # modules per remote application
    host_modules: int  # host modules besides its entry
    features: int  # layered sub-DAGs per application; every remote feature root is exposed
    layers: int  # layers per feature: the depth of its import chains
    fanout: int  # imports per module into the next layer (one is always the tree parent)
    dynamic_share: float  # share of imports that are dynamic
    consumed: int  # exposes the host consumes from each remote
    shared: int  # shared packages
    version_spread: int  # distinct major versions among one package's declarers
    shared_share: float  # share of modules that import one shared package
    expects: int  # host expectations against exposed interfaces
    mismatches: int  # planted incompatible expectations among them


@dataclass(frozen=True)
class Truth:
    """What the generated workspace must produce, from the generator's bookkeeping."""

    host_path: str
    applications: tuple[str, ...]  # in Workspace.applications() order
    modules: int  # declared modules over all applications
    reachable_modules: int  # module nodes reachable from the host entry
    waterfall_depth: int  # fetch units on the longest chain from the host entry
    expectations: int
    findings: tuple[tuple[str, str, str], ...]  # sorted (code, path, target)


def _app_names(shape: Shape) -> list[str]:
    return [f"r{i:02d}" for i in range(shape.remotes)]


def _features(rng: random.Random, shape: Shape, n_modules: int, prefix: str):
    """Module ids, layer lists and import edges (src, dst, mode) of one app's features."""
    per_feature = max(1, n_modules // shape.features)
    layers_of = []
    edges = []
    for f in range(shape.features):
        n = per_feature + (1 if f < n_modules % shape.features else 0)
        depth = min(max(shape.layers, 2), n) if n > 1 else 1  # a root above at least one layer
        widths = [1] + [0] * (depth - 1)
        for k in range(n - 1):
            widths[1 + k % (depth - 1)] += 1
        layers = [[f"./{prefix}{f}.{l}.{i}" for i in range(w)] for l, w in enumerate(widths)]
        for upper, lower in zip(layers, layers[1:]):
            targets = {m: {rng.choice(upper)} for m in lower}
            for src in upper:
                for _ in range(shape.fanout - 1):
                    targets[rng.choice(lower)].add(src)
            for dst in lower:
                for src in sorted(targets[dst]):
                    mode = "dynamic" if rng.random() < shape.dynamic_share else "static"
                    edges.append((src, dst, mode))
        layers_of.append(layers)
    return layers_of, edges


def _versions(rng: random.Random, shape: Shape, apps: list[str]) -> dict[str, list[dict]]:
    """Shared declarations per application; the first declarer of a package provides it."""
    declared: dict[str, list[dict]] = {app: [] for app in apps}
    for k in range(shape.shared):
        package = f"pkg{k:02d}"
        base = rng.randrange(1, 20)
        singleton = rng.random() < 0.3
        strict = singleton and rng.random() < 0.3
        size = rng.randrange(*SHARED_BYTES)
        users = [app for app in apps if rng.random() < 0.5] or [apps[0]]
        for i, app in enumerate(users):
            major = base + rng.randrange(shape.version_spread)
            spec = {
                "package": package,
                "requiredRange": f"^{major}.0.0",
                "singleton": singleton,
                "eager": False,
                "strictVersion": strict,
                "sizeBytes": size,
            }
            if i == 0 or rng.random() < 0.9:
                spec["providedVersion"] = f"{major}.{rng.randrange(10)}.{rng.randrange(10)}"
            declared[app].append(spec)
    return declared


def _interface(rng: random.Random) -> dict:
    def fields(prefix: str) -> dict:
        return {
            f"{prefix}{i}": {"type": {"kind": rng.choice(PRIMITIVES)}, "optional": False}
            for i in range(rng.randrange(3, 9))
        }

    params = [
        {
            "kind": "record",
            "fields": {
                "id": {"type": {"kind": "string"}, "optional": False},
                "options": {"type": {"kind": "record", "fields": fields("o")}, "optional": True},
            },
        }
    ]
    return {
        "exports": {
            "default": {
                "kind": "function",
                "params": params,
                "returns": {"kind": "record", "fields": fields("r")},
            },
            "meta": {"kind": "record", "fields": fields("m")},
        }
    }


def _expectation(rng: random.Random, actual: dict, mismatch: bool) -> tuple[dict, str | None]:
    """A supertype of `actual` (a record, or a function returning one), or a planted misfit.

    Returns the expected type node and, for a misfit, the path fedplan must
    report: the one record field whose primitive kind was changed.
    """
    record = actual["returns"] if actual["kind"] == "function" else actual
    names = sorted(record["fields"])
    keep = sorted(rng.sample(names, rng.randrange(1, len(names) + 1)))
    wanted = {name: dict(record["fields"][name]) for name in keep}
    bad_path = None
    if mismatch:
        name = rng.choice(keep)
        have = wanted[name]["type"]["kind"]
        wanted[name] = {
            "type": {"kind": rng.choice([p for p in PRIMITIVES if p != have])},
            "optional": False,
        }
        bad_path = (".returns." if actual["kind"] == "function" else ".") + name
    if rng.random() < 0.3:
        wanted["extra"] = {"type": {"kind": rng.choice(PRIMITIVES)}, "optional": True}
    expected = {"kind": "record", "fields": wanted}
    if actual["kind"] == "function":
        expected = {"kind": "function", "params": actual["params"], "returns": expected}
    return expected, bad_path


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def generate(shape: Shape, seed: int, root: str) -> Truth:
    """Write the federation for (shape, seed) under `root` and return its ground truth."""
    rng = random.Random(f"fedplan-bench/{seed}")
    remotes = _app_names(shape)
    apps = [HOST] + remotes
    declared = _versions(rng, shape, apps)

    modules: dict[str, dict[str, dict]] = {}
    roots: dict[str, list[str]] = {}
    for app in apps:
        n = shape.host_modules if app == HOST else shape.modules
        layers_of, edges = _features(rng, shape, n, "h" if app == HOST else "f")
        mods = {}
        for layers in layers_of:
            for layer in layers:
                for mid in layer:
                    mods[mid] = {
                        "id": mid,
                        "sizeBytes": rng.randrange(*MODULE_BYTES),
                        "staticImports": [],
                        "dynamicImports": [],
                    }
        for src, dst, mode in edges:
            mods[src]["staticImports" if mode == "static" else "dynamicImports"].append(dst)
        packages = [spec["package"] for spec in declared[app]]
        for mod in mods.values():
            if packages and rng.random() < shape.shared_share:
                mod["staticImports"].append(rng.choice(packages))
        modules[app] = mods
        roots[app] = [layers[0][0] for layers in layers_of]

    entry = {"id": ENTRY, "sizeBytes": 8_000, "staticImports": [], "dynamicImports": []}
    for ref in roots[HOST] + [
        f"{app}/./F{f}" for app in remotes for f in range(min(shape.consumed, shape.features))
    ]:
        mode = "dynamicImports" if rng.random() < shape.dynamic_share else "staticImports"
        entry[mode].append(ref)
    modules[HOST] = {ENTRY: entry, **modules[HOST]}

    interfaces = {
        (app, f"./F{f}"): _interface(rng) for app in remotes for f in range(shape.features)
    }
    targets = sorted(interfaces)
    planted = set(rng.sample(range(shape.expects), shape.mismatches))
    expects = []
    findings = []
    for i in range(shape.expects):
        app, expose = rng.choice(targets)
        export = rng.choice(["default", "meta"])
        expected, bad_path = _expectation(rng, interfaces[(app, expose)]["exports"][export], i in planted)
        target = f"{app}/{expose}#{export}"
        expects.append({"target": target, "interface": expected})
        if bad_path is not None:
            findings.append(("E-TYPE-MISMATCH", bad_path, target))

    for app in apps:
        app_dir = os.path.join(root, app)
        os.makedirs(app_dir, exist_ok=True)
        doc = {"name": app, "version": "1.0.0"}
        if app == HOST:
            doc["entry"] = ENTRY
        mods = list(modules[app].values())
        exposes = []
        if app != HOST:
            for f, mid in enumerate(roots[app]):
                modules[app][mid]["interface"] = f"F{f}.interface.json"
                exposes.append({"id": f"./F{f}", "module": mid})
                _write_json(os.path.join(app_dir, f"F{f}.interface.json"), interfaces[(app, f"./F{f}")])
        doc["modules"] = mods
        doc["exposes"] = exposes
        doc["remotes"] = (
            [{"name": r, "manifest": f"../{r}/federation.json"} for r in remotes] if app == HOST else []
        )
        doc["shared"] = declared[app]
        if app == HOST:
            doc["expects"] = expects
        _write_json(os.path.join(app_dir, "federation.json"), doc)

    exposed = {(app, f"./F{f}"): mid for app in remotes for f, mid in enumerate(roots[app])}
    reachable, depth = _reach(modules, exposed)
    return Truth(
        host_path=os.path.join(root, HOST, "federation.json"),
        applications=tuple(apps),
        modules=sum(len(mods) for mods in modules.values()),
        reachable_modules=reachable,
        waterfall_depth=depth,
        expectations=shape.expects,
        findings=tuple(sorted(findings)),
    )


def _reach(modules: dict[str, dict[str, dict]], exposed: dict) -> tuple[int, int]:
    """Reachable module count and longest fetch chain from the host entry.

    Shared packages are leaves: a module that imports one adds one unit below
    it. The module graph is acyclic by construction, so chains are module paths.
    """

    def successors(node: tuple[str, str]) -> list[tuple[str, str]]:
        app, mid = node
        out = []
        for ref in modules[app][mid]["staticImports"] + modules[app][mid]["dynamicImports"]:
            if ref.startswith("./"):
                out.append((app, ref))
            elif "/" in ref:
                remote, expose = ref.split("/", 1)
                out.append((remote, exposed[(remote, expose)]))
        return out

    def imports_shared(node: tuple[str, str]) -> bool:
        mod = modules[node[0]][node[1]]
        return any("/" not in ref for ref in mod["staticImports"] + mod["dynamicImports"])

    depth: dict[tuple[str, str], int] = {}
    start = (HOST, ENTRY)
    stack = [(start, iter(successors(start)))]
    while stack:  # iterative DFS; a node's depth is set once all its successors have one
        node, pending = stack[-1]
        for nxt in pending:
            if nxt not in depth:
                stack.append((nxt, iter(successors(nxt))))
                break
        else:
            stack.pop()
            below = max((depth[n] for n in successors(node)), default=0)
            depth[node] = 1 + max(below, 1 if imports_shared(node) else 0)
    return len(depth), depth[start]
