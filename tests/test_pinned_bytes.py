"""Pinned sha256 digests of simulator reports and their span exports.

The goldens under fixtures/golden cover fig1-sized plans only. These two
seeded plans are large enough that any change to the order or value of a
float operation in the simulator, or to the span projection, changes a
digest. The digests were recorded before the simulator's inner loop was
rewritten; a failure here means output bytes changed, not that the pins
need refreshing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

from fedplan.planner import MANIFEST_PSEUDO_MODULE, FetchRequest, LoadPlan, LoadStrategy, Trigger
from fedplan.simulator import network_from_json, simulate
from fedplan.trace import export_jsonl, from_sim

# fixtures/nets/default.json and slow.json, and the fast links of perfbench/workloads.py.
NETS = {
    "default": {"rttMs": 100, "bandwidthBytesPerMs": 100, "maxConcurrent": 6, "parseMsPerKb": 0,
                "serverComposeMs": 50, "hydrationFactor": 1.5, "interactionDelayMs": 0},
    "slow": {"rttMs": 300, "bandwidthBytesPerMs": 25, "maxConcurrent": 2, "parseMsPerKb": 1,
             "serverComposeMs": 80, "hydrationFactor": 2, "interactionDelayMs": 250},
    "4g": {"rttMs": 60, "bandwidthBytesPerMs": 1500, "maxConcurrent": 6},
    "cable": {"rttMs": 20, "bandwidthBytesPerMs": 6000, "maxConcurrent": 16},
    "mux64": {"rttMs": 20, "bandwidthBytesPerMs": 6000, "maxConcurrent": 64},
}


def _request(rid, key, size, deps, trigger, dynamic=False):
    return FetchRequest(rid, frozenset({key}), size, frozenset(deps), trigger, dynamic)


@functools.cache
def flat_plan() -> LoadPlan:
    """Prefetch-shaped: one manifest request, then ~2000 flat module requests."""
    rng = random.Random(5101)
    remotes = [f"r{i}" for i in range(20)]
    manifest = FetchRequest(
        0,
        frozenset((app, MANIFEST_PSEUDO_MODULE) for app in remotes),
        2000 * len(remotes),
        frozenset(),
        Trigger("manifest"),
    )
    requests = [manifest]
    for i in range(2000):
        app = "host" if i < 100 else rng.choice(remotes)
        local = app == "host"
        requests.append(
            _request(
                i + 1,
                (app, f"m{i}"),
                rng.randint(500, 8000),
                () if local else (0,),
                Trigger("root") if local else Trigger("manifest"),
            )
        )
    return LoadPlan(LoadStrategy.PREFETCH, tuple(requests), 0, ("host", "m0"))


@functools.cache
def layered_plan() -> LoadPlan:
    """Dependency-gated: 100 layers of 15 requests, each gated on 1-3 requests a layer up."""
    rng = random.Random(5102)
    keys = [("host", "entry")]
    requests = [_request(0, keys[0], rng.randint(500, 8000), (), Trigger("root"))]
    previous = [0]
    for layer in range(1, 101):
        current = []
        for j in range(15):
            rid = len(requests)
            deps = rng.sample(previous, min(len(previous), rng.randint(1, 3)))
            keys.append((f"a{rid % 7}", f"l{layer}m{j}"))
            requests.append(
                _request(
                    rid,
                    keys[rid],
                    rng.randint(500, 8000),
                    deps,
                    Trigger("parse", keys[min(deps)]),
                    dynamic=rng.random() < 0.3,
                )
            )
            current.append(rid)
        previous = current
    return LoadPlan(LoadStrategy.LAZY, tuple(requests), 0, ("host", "entry"))


PLANS = {"flat": flat_plan, "layered": layered_plan}

# (report JSON digest, span export digest) per (plan, net).
PINNED = {
    ("flat", "default"): (
        "c48c4e0e8cd7dabf7365506ba171ef11bf0c563b7fa5ca5f39e2bf0d8992b56c",
        "87c05bffb45fbbc1e057be8b0bd0eb9cbafe49b487b6d75728425f4400442710",
    ),
    ("flat", "slow"): (
        "b38fa1bc45787e1f5722bf0be4e6c6fcc845314b131cfd9d14645b5f03fd0f79",
        "027eccc33ad21b42945dc7388d8606157edcd146e58bf6ef13e70dba0be249fd",
    ),
    ("flat", "4g"): (
        "1172d406d1e4ac501e0cd374ca72ddd9bd82572315c270f8d86ccb2ba628339e",
        "27cf0f836d2024ad7eed674c65df3341db2d677d061f762e7dc0e1df429b747c",
    ),
    ("flat", "cable"): (
        "d652b62ff41c5ca49f703aa16fec3584e5d74db255dbe99d8a1bfd9019137a01",
        "0b0f09cb645aeeb4abfa391f0c6647015533a305b4252cd8bc93e327ae85dc8f",
    ),
    ("flat", "mux64"): (
        "639951c3747e3c12c17b1f2bcdb3f1888c06b7c312bb55af980afffff8a6803e",
        "75ceace105885cc45f25c4a39e6c6ac414abe98db6ff7743f1de5a73f2da9353",
    ),
    ("layered", "default"): (
        "6f8e502cfe75dcd1247d98f3b2e09f73f8ba10bf7009f8240673cfd6d246e6d6",
        "4c91ea46f9b8f0713e3387001e657b02ed317428346b3f923aa2b5b177e7d114",
    ),
    ("layered", "slow"): (
        "4d6651c3ef0decbf3761d65f462000e6d7f9f0b8104e531933f6b42a3a42bc0c",
        "7da4ddb83afc348d02861b693a3e2062520ee82a562434838b841eb833086a5f",
    ),
    ("layered", "4g"): (
        "0bc8ecef4d577dc392fedce5de2f095efccd049f1ef064dcb72f7c57ca06611a",
        "13b2c0552bf0a3ca19b367a5f2fb84c90e083f4edb669fdef4382e3bbde298b0",
    ),
    ("layered", "cable"): (
        "3ded623676bebe28d83763ea95e45606f7a543c9dc0dc3c1436fc5d4cbd1e314",
        "188b1a77bb33433d0e96c8f9422f6f6584543b5f3f83bbae7b90479d1bd70077",
    ),
    ("layered", "mux64"): (
        "2ebadfa63e11c8aac0372f9913fc554965fe3c4968cedae7a373e53738eec210",
        "104d22c474ccca893ed7bd0e344b06cf5b097d53a627002988c8dc3585dbaf4a",
    ),
}


@pytest.mark.parametrize("plan_name,net_name", sorted(PINNED))
def test_report_and_export_bytes_are_pinned(plan_name, net_name):
    report = simulate(PLANS[plan_name](), network_from_json(NETS[net_name]))
    got = (
        hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest(),
        hashlib.sha256(export_jsonl(from_sim(report)).encode()).hexdigest(),
    )
    assert got == PINNED[plan_name, net_name]


def test_every_plan_and_net_is_pinned():
    assert set(PINNED) == {(p, n) for p in PLANS for n in NETS}
