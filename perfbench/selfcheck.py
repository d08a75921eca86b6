"""Fast self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

1. The generator is deterministic: the same shape and seed write
   byte-identical trees, and another seed writes a different one.
2. Every workload, shrunk to a small shape, runs its operations untraced and
   traced with every output check passing and no failed attempt, and reports
   exactly the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from gen import Shape, generate  # noqa: E402

SMALL = {
    "ci-wide": Shape(remotes=3, modules=40, host_modules=20, features=4, layers=4, fanout=3,
                     dynamic_share=0.3, consumed=1, shared=6, version_spread=3, shared_share=0.5,
                     expects=20, mismatches=4),
    "lazy-deep": Shape(remotes=2, modules=30, host_modules=30, features=1, layers=10, fanout=2,
                       dynamic_share=0.3, consumed=1, shared=4, version_spread=2, shared_share=0.2,
                       expects=6, mismatches=1),
    "burst-wide": Shape(remotes=5, modules=12, host_modules=8, features=4, layers=3, fanout=2,
                        dynamic_share=0.3, consumed=4, shared=4, version_spread=2, shared_share=0.3,
                        expects=6, mismatches=1),
}


def _tree(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def check_generator(scratch: str) -> list[str]:
    shape = SMALL["ci-wide"]
    trees = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        root = os.path.join(scratch, sub)
        generate(shape, seed, root)
        trees.append(_tree(root))
    problems = []
    if trees[0] != trees[1]:
        problems.append("generator: the same seed wrote different trees")
    if trees[0] == trees[2]:
        problems.append("generator: two seeds wrote the same tree")
    return problems


def check_workload(name: str, declared: dict) -> list[str]:
    workload = dataclasses.replace(W.WORKLOADS[name], shape=SMALL[name])
    problems = []
    for traced in (False, True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.run(workload, seed=3, seconds=0.3, traced=traced)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        mode = "traced" if traced else "untraced"
        if code != 0 or not result["correct"] or result["failed"]:
            problems.append(f"{name} {mode}: exit {code}, {result['failed']} failed attempt(s)")
        want = declared["per_layer" if traced else "end_to_end"]
        if set(result["metrics"]) != want:
            problems.append(f"{name} {mode}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ want)}")
    return problems


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {key: {m["name"] for m in bench[key]} for key in ("end_to_end", "per_layer")}
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    scratch = str(HERE / ".work" / "selfcheck")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        problems += check_generator(scratch)
        for name in sorted(W.WORKLOADS):
            problems += check_workload(name, declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
