"""fedplan benchmark: seeded federations, three closed-loop workloads, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload lazy-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # each workload in turn

One client issues operations back to back (a closed loop) for --seconds of
timed operation time. Each operation runs under the workload's fixed
deadline (SIGALRM; no extra threads or processes). An operation fails if it
misses the deadline, raises, or fails its output check. Checks run outside
the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first half of
the time untraced and the second half traced, and reports the per-layer
metrics, derived from benchmark-side spans (see spans.py), plus
trace_overhead: traced ops_per_s over untraced ops_per_s. The spans are
written to perfbench/.work/<workload>-<seed>-trace.jsonl.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The exit code is 0 unless an output check failed (1) or the benchmark could
not start (2).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9  # set-ups per run, spread over the loop; setup_s is their median

STRATEGIES = ("lazy", "prefetch", "eager", "ssr")
COMMANDS = ("validate", "check-types", "compare")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "manifest.load_ms": "ms",
    "manifest.validate_ms": "ms",
    "manifest.kb": "KB",
    "manifest.modules": "count",
    "shares.resolve_ms": "ms",
    "shares.fallbacks": "count",
    "shares.conflicts": "count",
    "shares.duplicate_bytes": "bytes",
    "interfaces.check_ms": "ms",
    "interfaces.expectations": "count",
    "interfaces.findings": "count",
    "graph.build_ms": "ms",
    "graph.reachable_ms": "ms",
    "graph.fetch_units_ms": "ms",
    "graph.waterfall_depth_ms": "ms",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.fetch_units": "count",
    **{f"planner.plan_ms.{s}": "ms" for s in STRATEGIES},
    **{f"planner.requests.{s}": "count" for s in STRATEGIES},
    **{f"planner.rounds.{s}": "count" for s in STRATEGIES},
    "planner.longest_chain_ms": "ms",
    **{f"simulator.simulate_ms.{s}": "ms" for s in STRATEGIES},
    "simulator.us_per_request": "us",
    "simulator.stalls": "count",
    "simulator.tti_ms_sum": "ms",
    "simulator.first_render_ms_sum": "ms",
    "simulator.max_concurrency": "count",
    "trace.from_sim_ms": "ms",
    "trace.export_ms": "ms",
    "trace.spans": "count",
    "trace.kb": "KB",
    **{f"cli.run_ms.{c}": "ms" for c in COMMANDS},
    "cli.stdout_kb": "KB",
    "cli.overhead_ms": "ms",
    "fail.deadline": "count",
    "fail.exception": "count",
    "fail.wrong_output": "count",
    "fail_ratio": "ratio",
    "trace_overhead": "ratio",
}


class Deadline(BaseException):
    """Raised into an operation that outlives its deadline; args[0] is the interrupted file.

    A BaseException, so that no `except Exception` in the code under test
    swallows it.
    """


class Watchdog:
    """Runs one operation under a fixed deadline with SIGALRM."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            raise Deadline(frame.f_code.co_filename if frame is not None else "")

    def run(self, fn):
        """(outcome, result or exception, elapsed seconds); outcome is ok, deadline or exception."""
        start = time.perf_counter()
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            try:
                result, outcome = fn(), "ok"
            finally:
                self._armed = False  # an alarm delivered from here on is ignored
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline as exc:
            result, outcome = exc, "deadline"
        except Exception as exc:  # counted as a failed attempt and reported by Loop
            result, outcome = exc, "exception"
        return outcome, result, time.perf_counter() - start


class Loop:
    """Closed loop: attempts, failures by kind, latencies of completed operations."""

    def __init__(self, watchdog: Watchdog) -> None:
        self.watchdog = watchdog
        self.attempted = 0
        self.failures = {"deadline": 0, "exception": 0, "wrong_output": 0}
        self.stalls = 0
        self.problems: list[str] = []
        self._reported: set[str] = set()

    def measure(self, seconds: float, cycle: int, op, check, tracer=None, phase: str = "", between=None):
        """Run op(0), op(1), ... back to back until `seconds` of timed time have
        passed and a whole number of `cycle` operations has run.

        Returns (latencies of completed operations in ms, timed seconds).
        Whole cycles keep the mix of queries, and so the share that stalls,
        the same in every run. A full collection before each operation,
        outside the timed region, starts every operation from the same heap
        state. `between(share of seconds done)` runs untimed after each cycle.
        """
        latencies, timed, i = [], 0.0, 0
        while i == 0 or i % cycle or timed < seconds:
            if between is not None and i and i % cycle == 0:
                between(timed / seconds)
            gc.collect()
            unit = tracer.unit(f"op-{phase}{i}", "op") if tracer else contextlib.nullcontext({})
            with unit as attrs:
                outcome, result, elapsed = self.watchdog.run(lambda: op(i))
                if outcome == "ok":
                    problems = check(i, result)
                    if problems:
                        outcome = "wrong_output"
                        self.problems += problems
                attrs["outcome"] = outcome
            self.attempted += 1
            timed += elapsed
            if outcome == "ok":
                latencies.append(elapsed * 1000)
            else:
                self.failures[outcome] += 1
                if outcome == "deadline" and result.args[0].endswith(os.path.join("fedplan", "simulator.py")):
                    self.stalls += 1
                if outcome == "exception" and type(result).__name__ not in self._reported:
                    self._reported.add(type(result).__name__)
                    traceback.print_exception(result, file=sys.stderr)
            i += 1
        return latencies, timed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _end_to_end(setup_times, latencies, timed, loop: Loop, deadline_s: float) -> dict:
    completed = len(latencies)
    if completed == 0:  # nothing to rank: every attempt ran at least until it failed
        p50 = p90 = deadline_s * 1000
    elif completed == 1:
        p50 = p90 = latencies[0]
    else:
        p50 = statistics.median(latencies)
        p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": completed / timed,
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "completed_ratio": completed / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload, seed: int, seconds: float, traced: bool) -> int:
    """Measure one workload (a workloads.Workload); prints the result, returns the exit code."""
    import workloads as W
    from spans import Tracer, layer_metrics, plain_api

    nets = W.load_nets(workload.nets)
    work = W.workspace_dir(workload, seed)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    api = tracer.api if tracer else plain_api()
    setup_times: list[float] = []

    def set_up() -> W.Analysis:
        gc.collect()
        with tracer.unit(f"setup-{len(setup_times)}", "setup") if tracer else contextlib.nullcontext({}):
            start = time.perf_counter()
            analysis = W.set_up(workload, seed, work, api)
            setup_times.append(time.perf_counter() - start)
        return analysis

    def spread_set_ups(progress: float) -> None:
        """Repeat the set-up at even intervals of the loop, so setup_s samples the whole run."""
        while len(setup_times) < SETUPS and progress >= len(setup_times) / SETUPS:
            set_up()

    analysis = set_up()
    with tracer.unit("check-0", "check") if tracer else contextlib.nullcontext({}):
        ref, problems = W.reference(analysis, api)
    if tracer:
        spread_set_ups(1.0)
        tracer.uninstall()
    if problems:
        return _finish(workload, seed, Loop(Watchdog(workload.deadline_s)), {}, problems, work)

    # The order the operations cycle over the network profiles comes from the seed.
    order = list(workload.nets)
    random.Random(seed).shuffle(order)
    sims: dict = {}  # distinct completed query -> (tti, first render, max concurrency)
    extra: dict = {}
    if workload.strategy is None:
        commands = W.gate_commands(analysis.truth.host_path)

        def op(i):
            return W.gate_op(current_api, commands)

        def check(i, result):
            found = W.check_gate(result, analysis, ref)
            if not found:
                stats = W.gate_stats(result)
                sims.update(stats["sims"])
                extra["cli.stdout_kb"] = stats["stdout_kb"]
            return found

    else:
        strategy = W.LoadStrategy(workload.strategy)

        def op(i):
            return W.query_op(current_api, analysis, strategy, nets[order[i % len(order)]])

        def check(i, result):
            net = order[i % len(order)]
            found = W.check_query(result, ref, f"{workload.strategy} on {net}")
            if not found:
                _, report, _, _ = result
                sims[net] = (report.time_to_interactive_ms, report.time_to_first_render_ms,
                             report.max_observed_concurrency)
            return found

    watchdog = Watchdog(workload.deadline_s)
    loop = Loop(watchdog)
    current_api = plain_api()
    warm = Loop(watchdog)
    warm.measure(0, max(2, len(order)), op, check)  # warm-up: every query once, untimed
    loop.problems = warm.problems
    if not traced:
        latencies, timed = loop.measure(seconds, len(order), op, check, between=spread_set_ups)
        spread_set_ups(1.0)
        metrics = _end_to_end(setup_times, latencies, timed, loop, workload.deadline_s)
        units = END_TO_END
    else:
        plain_lat, plain_timed = loop.measure(seconds / 2, len(order), op, check)
        tracer.install()
        current_api = tracer.api
        traced_lat, traced_timed = loop.measure(seconds / 2, len(order), op, check, tracer, "t")
        tracer.uninstall()
        os.makedirs(os.path.dirname(work), exist_ok=True)
        tracer.export(f"{work}-trace.jsonl")
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(tracer.spans))
        metrics.update(extra)
        metrics.update({
            "simulator.stalls": loop.stalls,
            "simulator.tti_ms_sum": sum(s[0] for s in sims.values()),
            "simulator.first_render_ms_sum": sum(s[1] for s in sims.values()),
            "simulator.max_concurrency": max((s[2] for s in sims.values()), default=0),
            "fail.deadline": loop.failures["deadline"],
            "fail.exception": loop.failures["exception"],
            "fail.wrong_output": loop.failures["wrong_output"],
            "fail_ratio": loop.failed / loop.attempted,
            "trace_overhead": (len(traced_lat) / traced_timed) / (len(plain_lat) / plain_timed)
            if plain_lat and traced_lat else 0.0,
        })
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = PER_LAYER
    result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return _finish(workload, seed, loop, result, loop.problems, work)


def _finish(workload, seed, loop: Loop, metrics: dict, problems: list[str], work: str) -> int:
    shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"output check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(f"{workload.name} seed={seed} attempted={loop.attempted} "
          f"completed (latency samples)={loop.attempted - loop.failed} failed={loop.failed} "
          f"(deadline {loop.failures['deadline']}, of which simulator stalls {loop.stalls}; "
          f"exception {loop.failures['exception']}; wrong output {loop.failures['wrong_output']}) "
          f"deadline={workload.deadline_s}s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.4f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import fedplan from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
            return 2
        try:
            workloads.load_nets(workloads.WORKLOADS[name].nets)
        except OSError as exc:
            print(f"cannot read network profile: {exc}", file=sys.stderr)
            return 2
    # With all, peak_rss_mb is the peak of the process so far.
    return max(run(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
