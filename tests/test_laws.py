"""Whole-pipeline laws: properties of plans and reports that hold without an oracle."""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from fedplan.graph import build_graph
from fedplan.manifest import load_workspace
from fedplan.planner import LoadStrategy, plan
from fedplan.shares import build_share_scope, resolve_shares
from fedplan.simulator import network_from_json, simulate

from conftest import FIXTURES, REPO_ROOT

_spec = importlib.util.spec_from_file_location("perfbench_gen", REPO_ROOT / "perfbench" / "gen.py")
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# The fixture nets, plus one whose concurrency cap makes requests wait.
NETS = [json.loads((FIXTURES / "nets" / f"{name}.json").read_text()) for name in ("default", "slow")]
NETS.append({"rttMs": 20, "bandwidthBytesPerMs": 6000, "maxConcurrent": 4, "parseMsPerKb": 0.5})

SMALL = gen.Shape(remotes=3, modules=30, host_modules=20, features=2, layers=4, fanout=2, dynamic_share=0.3,
                  consumed=2, shared=4, version_spread=2, shared_share=0.5, expects=5, mismatches=1)


def _outputs(host: Path) -> list[str]:
    """Plan JSON and simulation report of every strategy on every net, serialized."""
    w, _ = load_workspace(str(host))
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    out = []
    for strategy in LoadStrategy:
        p = plan(g, res, strategy)
        out.append(json.dumps(p.to_json()))
        out.extend(json.dumps(simulate(p, network_from_json(net)).to_json()) for net in NETS)
    return out


def _permute(root: Path, rng: random.Random) -> None:
    """Shuffle every array of every manifest under root: entries and import lists."""
    for path in sorted(root.rglob("federation.json")):
        doc = json.loads(path.read_text())
        for key in ("modules", "exposes", "remotes", "shared", "expects"):
            rng.shuffle(doc.get(key, []))
        for mod in doc.get("modules", []):
            rng.shuffle(mod.get("staticImports", []))
            rng.shuffle(mod.get("dynamicImports", []))
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("tree", ["fig1", "fig1_shared", "generated"])
def test_declaration_order_does_not_change_plans_or_reports(tree, tmp_path):
    original = tmp_path / "original"
    if tree == "generated":
        gen.generate(SMALL, 7, str(original))
    else:
        shutil.copytree(FIXTURES / tree, original)
    expected = _outputs(original / "host" / "federation.json")
    for seed in range(3):
        permuted = tmp_path / f"permuted-{seed}"
        shutil.copytree(original, permuted)
        _permute(permuted, random.Random(seed))
        assert _outputs(permuted / "host" / "federation.json") == expected
