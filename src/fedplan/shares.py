"""Shared-dependency negotiation across workspace participants.

Mirrors runtime shared-scope semantics: every participant registers its
requirement (and optionally the version it ships), the highest provided
version wins, and each requirer either binds to the winner, falls back to
its own copy, or surfaces a conflict.

A shared spec is keyed by (application, package): manifest validation
rejects a package declared twice by one application (E-DUP-SHARED), and
`ShareScope.by_package` indexes the specs under that key once. The graph and
the planner read sizes from that index, and name every copy of a package
with `shared_node`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .manifest import SharedSpec, Workspace
from .semver import Version, render_range, satisfies


@dataclass(frozen=True)
class ShareScope:
    """All SharedSpecs in one negotiation arena, tagged by application."""

    host_name: str
    entries: tuple[tuple[str, SharedSpec], ...]  # (application name, spec)
    # package -> {application: spec}; an application's first spec of a package wins.
    by_package: dict[str, dict[str, SharedSpec]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_package: dict[str, dict[str, SharedSpec]] = {}
        for app, spec in self.entries:
            by_package.setdefault(spec.package, {}).setdefault(app, spec)
        object.__setattr__(self, "by_package", by_package)

    def packages(self) -> list[str]:
        return sorted(self.by_package)

    def entries_for(self, package: str) -> list[tuple[str, SharedSpec]]:
        return list(self.by_package.get(package, {}).items())


def shared_node(app: str, package: str, version: Version) -> tuple[str, str]:
    """Graph node key of `app`'s copy of `package` at `version`."""
    return (app, f"{package}@{version}")


@dataclass(frozen=True)
class ShareConflict:
    code: str  # E-NO-PROVIDER | E-STRICT-MISMATCH | W-SINGLETON-MISMATCH
    severity: str
    package: str
    application: str
    required_range: str
    chosen_version: Version | None

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "package": self.package,
            "application": self.application,
            "requiredRange": self.required_range,
            "chosenVersion": str(self.chosen_version) if self.chosen_version else None,
        }


@dataclass(frozen=True)
class ShareResolution:
    bindings: dict[str, tuple[Version, str]]  # package -> (version, provider app)
    fallbacks: tuple[tuple[str, str, Version], ...]  # (application, package, own version)
    conflicts: tuple[ShareConflict, ...]
    duplicate_bytes: int
    scope: ShareScope = field(compare=False)

    def to_json(self) -> dict:
        return {
            "bindings": {
                pkg: {"version": str(version), "provider": provider}
                for pkg, (version, provider) in self.bindings.items()
            },
            "fallbacks": [
                {"application": app, "package": pkg, "version": str(version)}
                for app, pkg, version in self.fallbacks
            ],
            "conflicts": [c.to_json() for c in self.conflicts],
            "duplicateBytes": self.duplicate_bytes,
        }


def build_share_scope(w: Workspace) -> ShareScope:
    """Collect every SharedSpec from host and remotes into one scope."""
    entries: list[tuple[str, SharedSpec]] = []
    for app in w.applications():
        for spec in app.shared:
            entries.append((app.name, spec))
    return ShareScope(w.host.name, tuple(entries))


def _choose_provider(
    scope: ShareScope, entries: list[tuple[str, SharedSpec]]
) -> tuple[Version, str] | None:
    providers = [(app, spec.provided_version) for app, spec in entries if spec.provided_version]
    if not providers:
        return None
    best = max(version for _, version in providers)
    apps = sorted(app for app, version in providers if version == best)
    if scope.host_name in apps:
        return best, scope.host_name
    return best, apps[0]


def resolve_shares(scope: ShareScope) -> ShareResolution:
    """Negotiate one version per package; failures become conflicts, never raises.

    Per package: the maximum provided version wins (host first on ties, then
    application name). Each requirer then binds if its range admits the winner;
    otherwise singleton+strict is an error conflict, singleton alone warns and
    binds anyway (one copy beats a fork), and non-singletons fall back to their
    own copy, which counts toward duplicate bytes.
    """
    bindings: dict[str, tuple[Version, str]] = {}
    fallbacks: list[tuple[str, str, Version]] = []
    conflicts: list[ShareConflict] = []
    duplicate_bytes = 0

    for package in scope.packages():
        entries = scope.entries_for(package)
        chosen = _choose_provider(scope, entries)
        if chosen is None:
            for app, spec in entries:
                conflicts.append(
                    ShareConflict(
                        "E-NO-PROVIDER",
                        "error",
                        package,
                        app,
                        render_range(spec.required_range),
                        None,
                    )
                )
            continue
        version, provider = chosen
        bindings[package] = (version, provider)
        for app, spec in entries:
            if satisfies(spec.required_range, version):
                continue
            rendered = render_range(spec.required_range)
            if spec.singleton and spec.strict_version:
                conflicts.append(
                    ShareConflict("E-STRICT-MISMATCH", "error", package, app, rendered, version)
                )
            elif spec.singleton:
                conflicts.append(
                    ShareConflict("W-SINGLETON-MISMATCH", "warning", package, app, rendered, version)
                )
            elif spec.provided_version is None:
                conflicts.append(
                    ShareConflict("E-NO-PROVIDER", "error", package, app, rendered, version)
                )
            else:
                fallbacks.append((app, package, spec.provided_version))
                duplicate_bytes += spec.size_bytes

    conflicts.sort(key=lambda c: (c.package, c.application, c.code))
    fallbacks.sort(key=lambda f: (f[1], f[0]))
    return ShareResolution(
        bindings={pkg: bindings[pkg] for pkg in sorted(bindings)},
        fallbacks=tuple(fallbacks),
        conflicts=tuple(conflicts),
        duplicate_bytes=duplicate_bytes,
        scope=scope,
    )


def empty_resolution() -> ShareResolution:
    """Resolution of a workspace with no shared packages (handy for tests/demos)."""
    return ShareResolution({}, (), (), 0, ShareScope("", ()))
