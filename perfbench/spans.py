"""Benchmark-side spans around the calls into fedplan's layers.

The layers are fedplan's modules. `Tracer.install()` wraps the public
functions listed in LAYER_FUNCTIONS. It rebinds every reference to one of
them that another fedplan module holds, so that `fedplan.cli`'s calls into
manifest, shares, graph and the rest are seen. The benchmark makes its own
calls through `tracer.api`. A module's calls to its own functions stay
unwrapped, so a layer's self time includes its private helpers.

Spans are kept in memory in the shape `fedplan.trace.export_jsonl` writes
(traceId, spanId, parentSpanId, name, startMs, endMs, attributes), but not
through `fedplan.trace.TraceLog`: that is one of the layers being measured. All spans
of one benchmark operation share its traceId. `layer_metrics` turns them into
per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import sys
import time
from types import SimpleNamespace


def _manifest_kb(workspace) -> float:
    paths = [os.path.join(app.base_dir or "", "federation.json") for app in workspace.applications()]
    return sum(os.path.getsize(p) for p in paths) / 1024


# (layer module, public function, span name, attributes from (args, result)).
# An attribute whose name has a dot is a per-layer count; "strategy" and
# "command" qualify the span's time metric; "requests" gives us_per_request.
LAYER_FUNCTIONS = (
    ("manifest", "load_workspace", "manifest.load",
     lambda a, r: {"manifest.modules": sum(len(app.modules) for app in r[0].applications()),
                   "manifest.kb": _manifest_kb(r[0])}),
    ("manifest", "validate_workspace", "manifest.validate", None),
    ("shares", "build_share_scope", "shares.resolve", None),
    ("shares", "resolve_shares", "shares.resolve",
     lambda a, r: {"shares.fallbacks": len(r.fallbacks), "shares.conflicts": len(r.conflicts),
                   "shares.duplicate_bytes": r.duplicate_bytes}),
    ("interfaces", "collect_expectations", "interfaces.check", None),
    ("interfaces", "check_compatibility", "interfaces.check",
     lambda a, r: {"interfaces.expectations": len(a[1]), "interfaces.findings": len(r)}),
    ("graph", "build_graph", "graph.build",
     lambda a, r: {"graph.nodes": len(r[0].nodes), "graph.edges": len(r[0].edges)}),
    ("graph", "reachable_set", "graph.reachable", None),
    ("graph", "fetch_units", "graph.fetch_units", lambda a, r: {"graph.fetch_units": len(r[0])}),
    ("graph", "waterfall_depth", "graph.waterfall_depth", None),
    ("planner", "plan", "planner.plan",
     lambda a, r: {"strategy": r.strategy.value, f"planner.requests.{r.strategy.value}": len(r.requests)}),
    ("planner", "longest_chain", "planner.longest_chain",
     lambda a, r: {f"planner.rounds.{a[0].strategy.value}": r}),
    ("simulator", "simulate", "simulator.simulate",
     lambda a, r: {"strategy": r.strategy.value, "requests": r.request_count}),
    ("trace", "from_sim", "trace.from_sim", lambda a, r: {"trace.spans": len(r.spans)}),
    ("trace", "export_jsonl", "trace.export", lambda a, r: {"trace.kb": len(r) / 1024}),
    ("cli", "run", "cli.run", lambda a, r: {"command": a[0][0]}),
)


def plain_api() -> SimpleNamespace:
    """The layer functions, unwrapped, by function name."""
    return SimpleNamespace(
        **{fn: getattr(importlib.import_module(f"fedplan.{mod}"), fn) for mod, fn, _, _ in LAYER_FUNCTIONS}
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.api = plain_api()
        self._originals = plain_api()
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter_ns()
        self._trace_id = ""

    def _now_ms(self) -> float:
        return (time.perf_counter_ns() - self._epoch) / 1e6

    def _open(self, name: str, attributes: dict) -> dict:
        span = {
            "traceId": self._trace_id,
            "spanId": f"b{len(self.spans) + 1}",
            "parentSpanId": self._stack[-1]["spanId"] if self._stack else None,
            "name": name,
            "startMs": self._now_ms(),
            "endMs": None,
            "attributes": attributes,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["endMs"] = self._now_ms()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @contextlib.contextmanager
    def unit(self, trace_id: str, kind: str):
        """Root span of one benchmark unit (an operation, a set-up or a check pass)."""
        self._trace_id = trace_id
        self._stack = []
        span = self._open(kind, {"outcome": "ok"})
        try:
            yield span["attributes"]
        finally:
            while self._stack:  # spans a deadline cut short, then the root
                self._close(self._stack[-1])

    def _wrap(self, fn, name: str, counts):
        def traced(*args, **kwargs):
            span = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span["attributes"].update(counts(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Route every cross-module reference to a layer function through a span."""
        for mod, fn, name, counts in LAYER_FUNCTIONS:
            original = getattr(self._originals, fn)
            wrapper = self._wrap(original, name, counts)
            setattr(self.api, fn, wrapper)
            home = f"fedplan.{mod}"
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("fedplan.") or module_name == home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []
        self.api = plain_api()

    def export(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _add(totals: dict, key: str, value: float) -> None:
    totals[key] = totals.get(key, 0.0) + value


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times (median over units of each unit's total) and counts.

    A layer's time comes from the traced operations when they call it, else
    from the set-ups, else from the check passes. Units that failed are left
    out. `cli.run_ms.<command>` is wall time; `cli.overhead_ms` is the self
    time of cli.run: its wall time minus the layer calls made inside it.
    """
    covered: dict[str, float] = {}
    for s in spans:
        if s["parentSpanId"] is not None:
            _add(covered, s["parentSpanId"], s["endMs"] - s["startMs"])

    roots = {s["traceId"]: s for s in spans if s["parentSpanId"] is None}
    units: dict[str, dict[str, dict[str, float]]] = {}  # kind -> unit -> metric -> total
    counts: dict[str, dict[str, float]] = {}  # kind -> metric -> value
    for s in spans:
        root = roots[s["traceId"]]
        if s is root or root["attributes"]["outcome"] != "ok":
            continue
        attrs = s["attributes"]
        wall = s["endMs"] - s["startMs"]
        own = wall - covered.get(s["spanId"], 0.0)
        totals = units.setdefault(root["name"], {}).setdefault(s["traceId"], {})
        qualifier = attrs.get("strategy") or attrs.get("command")
        key = f"{s['name']}_ms" + (f".{qualifier}" if qualifier else "")
        if s["name"] == "cli.run":
            _add(totals, key, wall)
            _add(totals, "cli.overhead_ms", own)
        else:
            _add(totals, key, own)
        if "requests" in attrs:
            _add(totals, "simulator.us_per_request", own * 1000)
            _add(totals, "requests", attrs["requests"])
        counts.setdefault(root["name"], {}).update({k: v for k, v in attrs.items() if "." in k})

    out: dict[str, float] = {}
    for kind in ("check", "setup", "op"):  # later kinds take precedence
        per_unit = list(units.get(kind, {}).values())
        for totals in per_unit:
            if totals.get("requests"):
                totals["simulator.us_per_request"] /= totals.pop("requests")
        for key in {k for totals in per_unit for k in totals}:
            out[key] = statistics.median(totals.get(key, 0.0) for totals in per_unit)
        out.update(counts.get(kind, {}))
    return out
