"""Pinned sha256 digests of the graph and plan outputs of three generated workspaces.

One small `perfbench/gen.py` shape per benchmark workload: wide, deep and
flat-with-many-remotes. For each, the digests cover the plan JSON of every
strategy, `longest_chain` of each plan, `waterfall_depth`, `detect_cycles`,
`graph_to_json` and the number of fetch units. They were recorded before the
module graph moved to dense integer ids; a failure means an output changed,
not that the pins need refreshing.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys

import pytest

from fedplan.graph import build_graph, detect_cycles, fetch_units, graph_to_json, waterfall_depth
from fedplan.manifest import load_workspace
from fedplan.planner import LoadStrategy, longest_chain, plan
from fedplan.shares import build_share_scope, resolve_shares

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("perfbench_gen", REPO_ROOT / "perfbench" / "gen.py")
gen = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# The benchmark workloads' shapes, scaled down to about a tenth of their modules.
SHAPES = {
    "ci-wide": gen.Shape(remotes=11, modules=20, host_modules=10, features=4, layers=4, fanout=3,
                         dynamic_share=0.3, consumed=1, shared=10, version_spread=4, shared_share=0.5,
                         expects=30, mismatches=4),
    "lazy-deep": gen.Shape(remotes=3, modules=40, host_modules=40, features=1, layers=20, fanout=2,
                           dynamic_share=0.3, consumed=1, shared=4, version_spread=2, shared_share=0.2,
                           expects=5, mismatches=1),
    "burst-wide": gen.Shape(remotes=22, modules=10, host_modules=6, features=2, layers=3, fanout=2,
                            dynamic_share=0.3, consumed=2, shared=4, version_spread=2, shared_share=0.3,
                            expects=5, mismatches=1),
}

PINS = {
    "ci-wide": {
        "graph_to_json": "3f00625f31a55b0f168b3b210a1ea9fa4cbc9c145a2121d0ef9687b07392ee10",
        "waterfall_depth": "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
        "detect_cycles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "fetch_units": "f747870ae666c39b589f577856a0f7198b3b81269cb0326de86d8046f2cf72db",
        "plan.lazy": "aa562f806ec675072d72e4be3dcc386a461dfc801bcfbc57cc2dfc06e5582a1b",
        "longest_chain.lazy": "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
        "plan.prefetch": "9de68f633212a9371fdc1eccc5d3204a6405fd85830a87cff219a1c20a3a23c2",
        "longest_chain.prefetch": "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        "plan.eager": "71ca66b6ad7e97f692be73ddaf642958bdc639cf53ed0d0da6b8787475031032",
        "longest_chain.eager": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "plan.ssr": "5ad57ccb0dfff440dcdff9b63a43b312f3d65711c7947662a7ea643c13f22375",
        "longest_chain.ssr": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    },
    "lazy-deep": {
        "graph_to_json": "fe18e6908c664754ceb5045802557aa4a4f090a61172643a59e45fdf68874b22",
        "waterfall_depth": "785f3ec7eb32f30b90cd0fcf3657d388b5ff4297f2f9716ff66e9b69c05ddd09",
        "detect_cycles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "fetch_units": "73d3f1ba062585bce51f77d70a26be88c44b55d70f81b8bd7e2ded030ca4454a",
        "plan.lazy": "05fe14fd3ab9ebee45ad9963aba7448147fb677b45ab954f457dc420156bc48b",
        "longest_chain.lazy": "785f3ec7eb32f30b90cd0fcf3657d388b5ff4297f2f9716ff66e9b69c05ddd09",
        "plan.prefetch": "9b084e766bc43557b412047bba424c969d16175315729496ed7a8b6f1b800f2c",
        "longest_chain.prefetch": "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        "plan.eager": "4c5a0847ecb7361b7d56cdca9d46131571909960a10c469a21a586fb5c7e6aca",
        "longest_chain.eager": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "plan.ssr": "d90b5904dcbaed901df9a048bf7ef480bf390c93e91a723108b1b9d815e4b2ab",
        "longest_chain.ssr": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    },
    "burst-wide": {
        "graph_to_json": "5c08fd7785ecd4cb61a9db5aa482d0982c002ba2cda94b0ab5719bbed7c71ca5",
        "waterfall_depth": "ef2d127de37b942baad06145e54b0c619a1f22327b2ebbcfbec78f5564afe39d",
        "detect_cycles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "fetch_units": "9a049b03f6fc40bfcf2f136320359257ed4af8513f71aa6fef47f17059bbae23",
        "plan.lazy": "eec846c1d106bc995489eb8ec0380c9e2f96d718bcbf139a31f5f2c0992f0bba",
        "longest_chain.lazy": "ef2d127de37b942baad06145e54b0c619a1f22327b2ebbcfbec78f5564afe39d",
        "plan.prefetch": "9326aee0f6ab028e33ce1cb03084366a93cff1e63779e1ffc3d31bbfe83abf3b",
        "longest_chain.prefetch": "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        "plan.eager": "7f12709669d3a4fb16061fe208c92eb5aeaf161637dc984f5f18eb8849811d56",
        "longest_chain.eager": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "plan.ssr": "f0403503c62b2b0036a2c03203bd3965eab5a3a2bc8586f08eb2bac163c325d7",
        "longest_chain.ssr": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    },
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _outputs(host: str) -> dict[str, str]:
    w, _ = load_workspace(host)
    res = resolve_shares(build_share_scope(w))
    g, _ = build_graph(w, res)
    out = {
        "graph_to_json": _digest(graph_to_json(g)),
        "waterfall_depth": _digest(waterfall_depth(g)),
        "detect_cycles": _digest(detect_cycles(g)),
        "fetch_units": _digest(len(fetch_units(g)[0])),
    }
    for strategy in LoadStrategy:
        p = plan(g, res, strategy)
        out[f"plan.{strategy.value}"] = _digest(p.to_json())
        out[f"longest_chain.{strategy.value}"] = _digest(longest_chain(p))
    return out


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_generated_graph_and_plans_are_pinned(workload, tmp_path):
    truth = gen.generate(SHAPES[workload], 11, str(tmp_path / workload))
    assert _outputs(truth.host_path) == PINS[workload]
