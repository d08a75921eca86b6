"""The three workloads: shapes, network profiles, operations and output checks.

Every check compares fedplan's output with the generator's ground truth or
with an independent re-derivation here. Checks run outside the timed region
and call fedplan's functions unwrapped, so they add no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from fedplan.graph import KIND_SHARED
from fedplan.planner import LoadStrategy
from fedplan.simulator import ALL_STRATEGIES, network_from_json
from fedplan.trace import validate_trace

from gen import Shape, Truth, generate

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_NETS = ROOT / "fixtures" / "nets"

# Realistic fast links, defined here; "default" and "slow" come from fixtures/nets/.
BENCH_NETS = {
    "4g": {"rttMs": 60, "bandwidthBytesPerMs": 1500, "maxConcurrent": 6},
    "cable": {"rttMs": 20, "bandwidthBytesPerMs": 6000, "maxConcurrent": 16},
    "mux64": {"rttMs": 20, "bandwidthBytesPerMs": 6000, "maxConcurrent": 64},
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    strategy: str | None  # strategy of the what-if query; None for the CLI gate
    nets: tuple[str, ...]  # network profiles the operations cycle over
    deadline_s: float  # an operation still running after this is a failed attempt


# Why each workload exists, its sizes and which of its queries stall at the
# seed simulator: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # The CI gate: whole-workspace analysis over a wide workspace, ~15% reachable.
        Workload(
            "ci-wide",
            Shape(remotes=11, modules=200, host_modules=100, features=8, layers=12, fanout=3,
                  dynamic_share=0.3, consumed=1, shared=40, version_spread=4, shared_share=0.5,
                  expects=300, mismatches=40),
            None,
            ("default",),
            2.0,
        ),
        # Lazy what-if queries on a deep layered DAG: few concurrent flows, ~100 rounds.
        Workload(
            "lazy-deep",
            Shape(remotes=3, modules=400, host_modules=400, features=1, layers=100, fanout=2,
                  dynamic_share=0.3, consumed=1, shared=10, version_spread=2, shared_share=0.2,
                  expects=20, mismatches=2),
            "lazy",
            ("default", "slow", "4g", "cable"),
            0.5,
        ),
        # Prefetch what-if queries on a flat federation: thousands of parallel flows.
        Workload(
            "burst-wide",
            Shape(remotes=22, modules=100, host_modules=60, features=4, layers=3, fanout=2,
                  dynamic_share=0.3, consumed=4, shared=10, version_spread=2, shared_share=0.3,
                  expects=20, mismatches=2),
            "prefetch",
            ("default", "slow", "4g", "cable", "mux64"),
            1.0,
        ),
    )
}

GATE_NET = FIXTURE_NETS / "default.json"


def load_nets(names) -> dict:
    """Network models by profile name; a missing fixture raises OSError."""
    nets = {}
    for name in names:
        if name in BENCH_NETS:
            doc = BENCH_NETS[name]
        else:
            with open(FIXTURE_NETS / f"{name}.json", encoding="utf-8") as fh:
                doc = json.load(fh)
        nets[name] = network_from_json(doc)
    return nets


@dataclass
class Analysis:
    """One set-up's result: the generated tree loaded and analysed once."""

    truth: Truth
    workspace: object
    diagnostics: list
    resolution: object
    graph: object


def set_up(workload: Workload, seed: int, root: str, api) -> Analysis:
    """Generate the workspace and do the one-time load the operations reuse."""
    shutil.rmtree(root, ignore_errors=True)
    truth = generate(workload.shape, seed, root)
    workspace, load_diags = api.load_workspace(truth.host_path)
    diagnostics = load_diags + api.validate_workspace(workspace)
    resolution = api.resolve_shares(api.build_share_scope(workspace))
    graph, _ = api.build_graph(workspace, resolution)
    return Analysis(truth, workspace, diagnostics, resolution, graph)


@dataclass
class Reference:
    reachable: set
    plans: dict  # strategy value -> LoadPlan


def chain_length(plan) -> int:
    """Requests on the longest dependsOn chain; -1 if the dependencies are cyclic."""
    waiting = {r.id: len(r.depends_on) for r in plan.requests}
    children: dict[int, list[int]] = {r.id: [] for r in plan.requests}
    for r in plan.requests:
        for dep in r.depends_on:
            if dep not in children:
                return -1
            children[dep].append(r.id)
    depth = {rid: 1 for rid, n in waiting.items() if n == 0}
    ready = list(depth)
    while ready:
        rid = ready.pop()
        for child in children[rid]:
            depth[child] = max(depth.get(child, 0), depth[rid] + 1)
            waiting[child] -= 1
            if waiting[child] == 0:
                ready.append(child)
    if len(depth) != len(waiting) or any(waiting.values()):
        return -1
    return max(depth.values(), default=0)


def _findings(diagnostics) -> list[tuple[str, str, str]]:
    return sorted((d["code"], d["path"], d["message"].split(": ", 1)[0]) for d in diagnostics)


def check_plan(plan, reachable) -> list[str]:
    problems = []
    ids = [r.id for r in plan.requests]
    if len(set(ids)) != len(ids):
        problems.append(f"{plan.strategy.value}: duplicate request ids")
    if plan.strategy is not LoadStrategy.EAGER:
        covered = set().union(*(r.payload for r in plan.requests))
        if not reachable <= covered:
            problems.append(f"{plan.strategy.value}: plan misses {len(reachable - covered)} reachable node(s)")
    return problems


def reference(a: Analysis, api) -> tuple[Reference, list[str]]:
    """Reference plans, checked against the ground truth and an independent chain count."""
    problems = []
    if a.diagnostics:
        problems.append(f"load/validate reported {len(a.diagnostics)} diagnostic(s): {a.diagnostics[0]}")
    declared = sum(len(app.modules) for app in a.workspace.applications())
    if declared != a.truth.modules:
        problems.append(f"workspace holds {declared} modules, generator wrote {a.truth.modules}")
    reachable = api.reachable_set(a.graph, True)
    modules = sum(1 for key in reachable if a.graph.nodes[key].kind != KIND_SHARED)
    if modules != a.truth.reachable_modules:
        problems.append(f"{modules} reachable modules, generator says {a.truth.reachable_modules}")
    depth = api.waterfall_depth(a.graph)
    if depth != a.truth.waterfall_depth:
        problems.append(f"waterfall depth {depth}, generator says {a.truth.waterfall_depth}")
    api.fetch_units(a.graph)
    expectations = api.collect_expectations(a.workspace)
    if len(expectations) != a.truth.expectations:
        problems.append(f"{len(expectations)} expectations, generator wrote {a.truth.expectations}")
    found = api.check_compatibility(a.workspace, expectations)
    if _findings(d.to_json() for d in found) != list(a.truth.findings):
        problems.append("check_compatibility findings differ from the planted mismatches")
    plans = {}
    for strategy in ALL_STRATEGIES:
        p = plans[strategy.value] = api.plan(a.graph, a.resolution, strategy)
        problems += check_plan(p, reachable)
        rounds = api.longest_chain(p)
        if rounds != chain_length(p):
            problems.append(f"{strategy.value}: longest_chain {rounds}, expected {chain_length(p)}")
    return Reference(reachable, plans), problems


def check_timeline(plan, entries, where: str) -> list[str]:
    """entries: (request id, start, headers, done, parse done) per request."""
    parsed = {}
    for rid, start, headers, done, parse_done in entries:
        if rid in parsed:
            return [f"{where}: request {rid} appears twice in the timeline"]
        if not start <= headers <= done <= parse_done:
            return [f"{where}: request {rid} times out of order"]
        parsed[rid] = (start, parse_done)
    if set(parsed) != {r.id for r in plan.requests}:
        return [f"{where}: timeline covers {len(parsed)} of {len(plan.requests)} requests"]
    for r in plan.requests:
        for dep in r.depends_on:
            if parsed[r.id][0] < parsed[dep][1]:
                return [f"{where}: request {r.id} starts before dependency {dep} is parsed"]
    return []


def check_totals(plan, count: int, total: int, rounds: int, where: str) -> list[str]:
    want = (len(plan.requests), sum(r.size_bytes for r in plan.requests), chain_length(plan))
    if (count, total, rounds) != want:
        return [f"{where}: (requests, bytes, rounds) = {(count, total, rounds)}, plan says {want}"]
    return []


# --- the CLI gate (ci-wide) ---------------------------------------------------


def gate_commands(host: str) -> list[list[str]]:
    return [
        ["validate", host, "--format", "json"],
        ["check-types", host, "--format", "json"],
        ["compare", host, "--format", "json", "--net", str(GATE_NET)],
    ]


def gate_op(api, commands) -> list[tuple[int, str, str]]:
    out = []
    for argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = api.run(argv)
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


def check_gate(outputs, a: Analysis, ref: Reference) -> list[str]:
    (v_code, v_out, v_err), (t_code, t_out, t_err), (c_code, c_out, c_err) = outputs
    if v_code != 0:
        return [f"validate exited {v_code}: {v_err.strip()[:200]}"]
    doc = json.loads(v_out)
    if doc["applications"] != list(a.truth.applications) or doc["diagnostics"]:
        return ["validate: unexpected applications or diagnostics"]
    want = 1 if a.truth.findings else 0
    if t_code != want:
        return [f"check-types exited {t_code}, expected {want}: {t_err.strip()[:200]}"]
    if _findings(json.loads(t_out)["diagnostics"]) != list(a.truth.findings):
        return ["check-types findings differ from the planted mismatches"]
    if c_code != 0:
        return [f"compare exited {c_code}: {c_err.strip()[:200]}"]
    reports = json.loads(c_out)
    if [r["strategy"] for r in reports] != [s.value for s in ALL_STRATEGIES]:
        return ["compare: unexpected strategies"]
    problems = []
    for r in reports:
        plan = ref.plans[r["strategy"]]
        where = f"compare {r['strategy']}"
        problems += check_totals(plan, r["requestCount"], r["totalBytes"], r["waterfallRounds"], where)
        problems += check_timeline(
            plan,
            [(e["requestId"], e["startMs"], e["headersMs"], e["doneMs"], e["parseDoneMs"]) for e in r["timeline"]],
            where,
        )
    return problems


def gate_stats(outputs) -> dict:
    """Simulated-time statistics and output size of one gate run."""
    reports = json.loads(outputs[2][1])
    return {
        "sims": {
            r["strategy"]: (r["timeToInteractiveMs"], r["timeToFirstRenderMs"], r["maxObservedConcurrency"])
            for r in reports
        },
        "stdout_kb": sum(len(out) for _, out, _ in outputs) / 1024,
    }


# --- what-if queries (lazy-deep, burst-wide) ----------------------------------


def query_op(api, a: Analysis, strategy: LoadStrategy, net):
    p = api.plan(a.graph, a.resolution, strategy)
    report = api.simulate(p, net)
    log = api.from_sim(report)
    return p, report, log, api.export_jsonl(log)


def check_query(result, ref: Reference, where: str) -> list[str]:
    p, report, log, text = result
    problems = check_plan(p, ref.reachable)
    problems += check_totals(p, report.request_count, report.total_bytes, report.waterfall_rounds, where)
    problems += check_timeline(
        p, [(e.request_id, e.start_ms, e.headers_ms, e.done_ms, e.parse_done_ms) for e in report.timeline], where
    )
    if validate_trace(log):
        problems.append(f"{where}: validate_trace reported problems")
    if len(log.spans) != 1 + 2 * report.request_count or text.count("\n") != len(log.spans):
        problems.append(f"{where}: trace has {len(log.spans)} spans for {report.request_count} requests")
    return problems


def workspace_dir(workload: Workload, seed: int) -> str:
    return os.path.join(ROOT, "perfbench", ".work", f"{workload.name}-{seed}")
