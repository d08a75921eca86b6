from __future__ import annotations

import random

from fedplan.semver import Version, parse_range, parse_version, satisfies
from fedplan.shares import ShareScope, build_share_scope, resolve_shares

from conftest import app, shared_spec, workspace


def test_build_share_scope_collects_by_application():
    host = app("host", entry="entry", shared=(shared_spec("react", "^18.0.0", "18.2.0"),))
    remote = app("remote", shared=(shared_spec("react", "^18.1.0", "18.1.0"),))
    scope = build_share_scope(workspace(host, remote))
    assert scope.host_name == "host"
    assert [(a, s.package) for a, s in scope.entries] == [("host", "react"), ("remote", "react")]
    # Direct collection oracle: every declared spec appears exactly once.
    assert len(scope.entries_for("react")) == 2


def test_build_share_scope_empty():
    scope = build_share_scope(workspace(app("host", entry="entry")))
    assert scope.entries == ()


def test_build_share_scope_disjoint_packages():
    w = workspace(
        app("host", entry="entry", shared=(shared_spec("a", "*", "1.0.0"),)),
        app("r1", shared=(shared_spec("b", "*", "1.0.0"),)),
        app("r2", shared=(shared_spec("c", "*", "1.0.0"),)),
    )
    scope = build_share_scope(w)
    assert scope.packages() == ["a", "b", "c"]
    assert all(len(scope.entries_for(p)) == 1 for p in scope.packages())


def _scope(entries) -> ShareScope:
    return ShareScope("host", tuple(entries))


def test_resolve_highest_provided_wins():
    scope = _scope(
        [
            ("host", shared_spec("react", "^18.0.0", "18.2.0")),
            ("remote", shared_spec("react", "^18.1.0", "18.1.0")),
        ]
    )
    res = resolve_shares(scope)
    assert res.bindings == {"react": (parse_version("18.2.0"), "host")}
    assert res.fallbacks == () and res.conflicts == ()
    assert res.duplicate_bytes == 0
    # Brute-force cross-check: 18.2.0 is the unique max provided version
    # satisfying every participant's range.
    provided = [parse_version("18.2.0"), parse_version("18.1.0")]
    ranges = [parse_range("^18.0.0"), parse_range("^18.1.0")]
    winners = [v for v in provided if all(satisfies(r, v) for r in ranges)]
    assert max(winners) == parse_version("18.2.0")


def test_resolve_singleton_strict_conflict():
    scope = _scope(
        [
            ("host", shared_spec("react", "^18.0.0", "18.2.0", singleton=True, strict=True)),
            ("remote", shared_spec("react", "^17.0.0", singleton=True, strict=True)),
        ]
    )
    res = resolve_shares(scope)
    assert res.bindings["react"] == (parse_version("18.2.0"), "host")
    assert len(res.conflicts) == 1
    conflict = res.conflicts[0]
    assert conflict.severity == "error"
    assert conflict.application == "remote"
    assert conflict.chosen_version == parse_version("18.2.0")
    assert not satisfies(parse_range("^17.0.0"), conflict.chosen_version)


def test_resolve_singleton_nonstrict_warns_and_binds():
    scope = _scope(
        [
            ("host", shared_spec("react", "^18.0.0", "18.2.0", singleton=True)),
            ("remote", shared_spec("react", "^17.0.0", singleton=True)),
        ]
    )
    res = resolve_shares(scope)
    assert res.bindings["react"] == (parse_version("18.2.0"), "host")
    assert [c.severity for c in res.conflicts] == ["warning"]
    assert res.fallbacks == ()  # bound anyway; singletons never fork


def test_resolve_nonsingleton_falls_back():
    scope = _scope(
        [
            ("host", shared_spec("lodash", "~4.17.0", "4.17.21", size=70000)),
            ("remote", shared_spec("lodash", "^3.0.0", "3.10.1", size=60000)),
        ]
    )
    res = resolve_shares(scope)
    assert res.bindings["lodash"] == (parse_version("4.17.21"), "host")
    assert res.fallbacks == (("remote", "lodash", parse_version("3.10.1")),)
    assert res.duplicate_bytes == 60000


def test_resolve_no_provider_conflict():
    scope = _scope([("host", shared_spec("left-pad", "^1.0.0"))])
    res = resolve_shares(scope)
    assert "left-pad" not in res.bindings
    assert [c.code for c in res.conflicts] == ["E-NO-PROVIDER"]
    assert res.conflicts[0].chosen_version is None


def test_resolve_nonsingleton_consumer_only_mismatch_is_no_provider():
    scope = _scope(
        [
            ("host", shared_spec("d3", "^7.0.0", "7.8.5")),
            ("remote", shared_spec("d3", "^6.0.0")),  # cannot fall back: provides nothing
        ]
    )
    res = resolve_shares(scope)
    assert res.bindings["d3"] == (parse_version("7.8.5"), "host")
    assert [(c.code, c.application) for c in res.conflicts] == [("E-NO-PROVIDER", "remote")]


def test_resolve_tie_prefers_host_then_name():
    scope = _scope(
        [
            ("zeta", shared_spec("p", "*", "1.0.0")),
            ("alpha", shared_spec("p", "*", "1.0.0")),
        ]
    )
    assert resolve_shares(scope).bindings["p"][1] == "alpha"
    scope = _scope(
        [
            ("zeta", shared_spec("p", "*", "1.0.0")),
            ("host", shared_spec("p", "*", "1.0.0")),
        ]
    )
    assert resolve_shares(scope).bindings["p"][1] == "host"


def _random_scope(rng: random.Random) -> ShareScope:
    apps = ["host"] + [f"app{i}" for i in range(rng.randint(1, 4))]
    packages = [f"pkg{i}" for i in range(rng.randint(1, 3))]
    entries = []
    for name in apps:
        for package in packages:
            if rng.random() < 0.4:
                continue
            provided = (
                f"{rng.randint(0, 3)}.{rng.randint(0, 3)}.{rng.randint(0, 3)}"
                if rng.random() < 0.8
                else None
            )
            major = rng.randint(0, 3)
            entries.append(
                (
                    name,
                    shared_spec(
                        package,
                        rng.choice([f"^{major}.0.0", f"~{major}.{rng.randint(0,3)}.0", "*"]),
                        provided,
                        singleton=rng.random() < 0.5,
                        strict=rng.random() < 0.3,
                        # Positive: the zero-iff-no-fallbacks law presumes
                        # real package payloads.
                        size=rng.randint(1, 9) * 1000,
                    ),
                )
            )
    return ShareScope("host", tuple(entries))


def test_randomized_scopes_singleton_and_accounting_laws():
    rng = random.Random(2024)
    for _ in range(200):
        scope = _random_scope(rng)
        res = resolve_shares(scope)
        # Singletons bind exactly one version: bindings is a map, and no
        # fallback is ever attributed to a singleton entry.
        singleton_packages = {
            s.package for _, s in scope.entries if s.singleton
        }
        for application, package, _version in res.fallbacks:
            assert package not in singleton_packages or any(
                not s.singleton for a, s in scope.entries if a == application and s.package == package
            )
        assert res.duplicate_bytes == sum(
            s.size_bytes
            for application, package, version in res.fallbacks
            for a, s in scope.entries
            if a == application and s.package == package
        )
        assert (res.duplicate_bytes == 0) == (res.fallbacks == ())
        # Determinism: resolving twice yields identical structures.
        again = resolve_shares(scope)
        assert again.to_json() == res.to_json()
        # Conflict ordering is (package, application).
        keys = [(c.package, c.application) for c in res.conflicts]
        assert keys == sorted(keys)


def test_adding_better_provider_never_adds_conflicts():
    rng = random.Random(4)
    for _ in range(100):
        scope = _random_scope(rng)
        res = resolve_shares(scope)
        for package in scope.packages():
            entries = scope.entries_for(package)
            # A new provider that tops the current winner and satisfies every
            # participant's range can only remove conflicts for that package.
            improved = Version(9, 0, 0)
            if not all(satisfies(s.required_range, improved) for _, s in entries):
                continue
            extended = ShareScope(
                "host",
                scope.entries + (("zzz-new", shared_spec(package, "*", "9.0.0")),),
            )
            before = sum(1 for c in res.conflicts if c.package == package)
            after = sum(
                1 for c in resolve_shares(extended).conflicts if c.package == package
            )
            assert after <= before
