from __future__ import annotations

import contextlib
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"

# Allow running the suite from a fresh checkout without an editable install.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import pytest

from fedplan.manifest import (
    ExposeDecl,
    FederationManifest,
    ModuleDecl,
    RemoteRef,
    SharedSpec,
    Workspace,
    parse_import_ref,
)
from fedplan.semver import parse_range, parse_version


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail, rather than hang, when the block is still running after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def module(
    module_id: str,
    size: int = 1000,
    static: tuple[str, ...] = (),
    dynamic: tuple[str, ...] = (),
    interface: str | None = None,
) -> ModuleDecl:
    return ModuleDecl(
        id=module_id,
        size_bytes=size,
        static_imports=tuple(parse_import_ref(s) for s in static),
        dynamic_imports=tuple(parse_import_ref(s) for s in dynamic),
        interface=interface,
    )


def shared_spec(
    package: str,
    required: str,
    provided: str | None = None,
    singleton: bool = False,
    strict: bool = False,
    size: int = 0,
) -> SharedSpec:
    return SharedSpec(
        package=package,
        required_range=parse_range(required),
        provided_version=parse_version(provided) if provided else None,
        singleton=singleton,
        eager=False,
        strict_version=strict,
        size_bytes=size,
    )


def app(
    name: str,
    entry: str | None = None,
    modules: tuple[ModuleDecl, ...] = (),
    exposes: tuple[tuple[str, str], ...] = (),
    remotes: tuple[str, ...] = (),
    shared: tuple[SharedSpec, ...] = (),
    base_dir: str | None = None,
) -> FederationManifest:
    return FederationManifest(
        name=name,
        version=parse_version("1.0.0"),
        entry=entry,
        modules=modules,
        exposes=tuple(ExposeDecl(i, m) for i, m in exposes),
        remotes=tuple(RemoteRef(r, "<memory>") for r in remotes),
        shared=shared,
        base_dir=base_dir,
    )


def workspace(host: FederationManifest, *remote_apps: FederationManifest) -> Workspace:
    """In-memory workspace where every remote alias equals the target app name."""
    remotes = {r.name: r for r in remote_apps}
    alias_targets = {}
    for application in (host, *remote_apps):
        for ref in application.remotes:
            alias_targets[(application.name, ref.name)] = ref.name
    return Workspace(host, remotes, alias_targets)


@pytest.fixture
def fig1_host_path() -> str:
    return str(FIXTURES / "fig1" / "host" / "federation.json")


@pytest.fixture
def fig1_shared_host_path() -> str:
    return str(FIXTURES / "fig1_shared" / "host" / "federation.json")
