"""Federation manifest parsing, validation, and workspace loading.

One `federation.json` per application declares its modules, exposes, remote
references, and shared dependencies. A workspace is the host manifest plus
the transitive closure of remote manifests it references, each loaded exactly
once. Unknown fields warn instead of erroring: independently deployed teams
evolve their manifests on their own schedules.

Every field decodes through `_field` with value checks that take no path:
an error's location is formatted in one place, and only when a field fails,
as are `validate_manifest`'s paths. An `expects` entry decodes straight into
an `interfaces.Expectation` whose consumer is the manifest's own name.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic, DiagnosticBag, ToolError, parse_json
from .interfaces import Expectation, parse_type_node, serialize_type_node
from .semver import (
    Version,
    VersionRange,
    parse_range,
    parse_version,
    render_range,
    satisfies,
)


# Largest accepted sizeBytes: every count up to it converts to a float exactly,
# so sizes, their sums and the times derived from them stay finite.
MAX_BYTES = 2**53


@dataclass(frozen=True)
class LocalImport:
    module: str


@dataclass(frozen=True)
class RemoteImport:
    remote: str
    expose: str


@dataclass(frozen=True)
class SharedImport:
    package: str


def parse_import_ref(text: str):
    """Decode an import ref string: "./x" local, "name/expose" remote, bare shared."""
    if text.startswith("./"):
        return LocalImport(text)
    if "/" in text:
        remote, expose = text.split("/", 1)
        return RemoteImport(remote, expose)
    return SharedImport(text)


def render_import_ref(ref) -> str:
    if isinstance(ref, LocalImport):
        return ref.module
    if isinstance(ref, RemoteImport):
        return f"{ref.remote}/{ref.expose}"
    return ref.package


@dataclass(frozen=True)
class ModuleDecl:
    id: str
    size_bytes: int
    static_imports: tuple
    dynamic_imports: tuple
    interface: str | None = None


@dataclass(frozen=True)
class ExposeDecl:
    id: str
    module: str


@dataclass(frozen=True)
class RemoteRef:
    name: str
    manifest_path: str


@dataclass(frozen=True)
class SharedSpec:
    package: str
    required_range: VersionRange
    provided_version: Version | None
    singleton: bool
    eager: bool
    strict_version: bool
    size_bytes: int


@dataclass(frozen=True)
class FederationManifest:
    name: str
    version: Version
    entry: str | None
    modules: tuple[ModuleDecl, ...]
    exposes: tuple[ExposeDecl, ...]
    remotes: tuple[RemoteRef, ...]
    shared: tuple[SharedSpec, ...]
    expects: tuple[Expectation, ...] = ()
    base_dir: str | None = field(default=None, compare=False)

    def module(self, module_id: str) -> ModuleDecl | None:
        for m in self.modules:
            if m.id == module_id:
                return m
        return None

    def expose_target(self, expose_id: str) -> str | None:
        for e in self.exposes:
            if e.id == expose_id:
                return e.module
        return None


_TOP_KEYS = {"name", "version", "entry", "modules", "exposes", "remotes", "shared", "expects"}
_MODULE_KEYS = {"id", "sizeBytes", "staticImports", "dynamicImports", "interface"}
_EXPOSE_KEYS = {"id", "module"}
_REMOTE_KEYS = {"name", "manifest"}
_SHARED_KEYS = {
    "package",
    "requiredRange",
    "providedVersion",
    "singleton",
    "eager",
    "strictVersion",
    "sizeBytes",
}
_EXPECT_KEYS = {"target", "interface"}


_ABSENT = object()


def _field(obj: dict, key: str, path: str, *checks, default=_ABSENT):
    """Decode obj[key] through `checks`, applied in order, each to the last one's result.

    An absent key gives `default`, or E-MISSING-FIELD when there is none; an
    explicit null counts as absent where the default is None. A check's
    ToolError is raised again at `{path}.{key}` followed by the check's own
    relative path (a ref's "[j]", a type node's ".element..."), so a location
    is formatted only for a field that fails.
    """
    value = obj.get(key, _ABSENT)
    if value is _ABSENT:
        if default is _ABSENT:
            raise ToolError("E-MISSING-FIELD", "required field missing", f"{path}.{key}")
        return default
    if value is None and default is None:
        return None
    try:
        for check in checks:
            value = check(value)
    except ToolError as exc:
        raise ToolError(exc.code, exc.message, f"{path}.{key}{exc.path}") from exc
    return value


def _string(value) -> str:
    if not isinstance(value, str) or not value:
        raise ToolError("E-SYNTAX", "expected a non-empty string")
    return value


def _path(value) -> str:
    text = _string(value)
    if "\0" in text:
        raise ToolError("E-SYNTAX", "a path must not contain a NUL character")
    return text


def _size(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ToolError("E-SYNTAX", "expected an integer")
    if value > MAX_BYTES:
        raise ToolError("E-SYNTAX", "sizeBytes must be at most 2**53")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ToolError("E-SYNTAX", "expected a boolean")
    return value


def _array(value) -> list:
    if not isinstance(value, list):
        raise ToolError("E-SYNTAX", "expected an array")
    return value


def ref_decoder():
    """A check that decodes an array of import refs, each distinct string once.

    Refs repeat heavily across modules and across the manifests of one
    workspace (package and remote refs, and local refs to modules of the
    same name), so load_workspace makes one decoder per workspace and its
    modules share the (frozen) ref objects.
    """
    parsed: dict[str, object] = {}

    def refs(value) -> tuple:
        out = []
        for j, text in enumerate(_array(value)):
            ref = parsed.get(text) if type(text) is str else None
            if ref is None:
                try:
                    ref = parsed[text] = parse_import_ref(_string(text))
                except ToolError as exc:
                    raise ToolError(exc.code, exc.message, f"[{j}]") from exc
            out.append(ref)
        return tuple(out)

    return refs


def _target(text: str) -> tuple[str, str, str]:
    """Split "remote/expose#export"."""
    ref, sep, export = text.rpartition("#")
    if not sep or not export or "/" not in ref:
        raise ToolError("E-SYNTAX", f'target must look like "remote/expose#export", got {text!r}')
    remote, expose = ref.split("/", 1)
    return remote, expose, export


def _record(obj, path: str, known: set, bag: DiagnosticBag, error: str) -> None:
    """Entry prologue: `obj` must be an object; its unknown keys warn."""
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", error, path)
    for key in obj:
        if key not in known:
            bag.warning("W-UNKNOWN-FIELD", f"{path}.{key}", f"unknown field {key!r} ignored")


def _parse_module(obj, path: str, bag: DiagnosticBag, refs) -> ModuleDecl:
    _record(obj, path, _MODULE_KEYS, bag, "module entry must be an object")
    return ModuleDecl(
        id=_field(obj, "id", path, _string),
        size_bytes=_field(obj, "sizeBytes", path, _size, default=0),
        static_imports=_field(obj, "staticImports", path, refs, default=()),
        dynamic_imports=_field(obj, "dynamicImports", path, refs, default=()),
        interface=_field(obj, "interface", path, _path, default=None),
    )


def _parse_expose(obj, path: str, bag: DiagnosticBag) -> ExposeDecl:
    _record(obj, path, _EXPOSE_KEYS, bag, "expose entry must be an object")
    return ExposeDecl(_field(obj, "id", path, _string), _field(obj, "module", path, _string))


def _parse_remote(obj, path: str, bag: DiagnosticBag) -> RemoteRef:
    _record(obj, path, _REMOTE_KEYS, bag, "remote entry must be an object")
    return RemoteRef(_field(obj, "name", path, _string), _field(obj, "manifest", path, _path))


def _parse_shared(obj, path: str, bag: DiagnosticBag) -> SharedSpec:
    _record(obj, path, _SHARED_KEYS, bag, "shared entry must be an object")
    return SharedSpec(
        package=_field(obj, "package", path, _string),
        required_range=_field(obj, "requiredRange", path, _string, parse_range),
        provided_version=_field(obj, "providedVersion", path, _string, parse_version, default=None),
        singleton=_field(obj, "singleton", path, _boolean, default=False),
        eager=_field(obj, "eager", path, _boolean, default=False),
        strict_version=_field(obj, "strictVersion", path, _boolean, default=False),
        size_bytes=_field(obj, "sizeBytes", path, _size, default=0),
    )


def _parse_expect(obj, path: str, bag: DiagnosticBag, consumer: str) -> Expectation:
    _record(obj, path, _EXPECT_KEYS, bag, "expects entry must be an object")
    remote, expose, export = _field(obj, "target", path, _string, _target)
    return Expectation(consumer, remote, expose, export, _field(obj, "interface", path, parse_type_node))


def _entries(doc: dict, key: str, parse, bag: DiagnosticBag, *args) -> tuple:
    """Decode the array doc[key] with `parse`, one entry at a time."""
    return tuple(
        parse(obj, f".{key}[{i}]", bag, *args)
        for i, obj in enumerate(_field(doc, key, "", _array, default=()))
    )


def parse_manifest(text: str, refs=None) -> tuple[FederationManifest, list[Diagnostic]]:
    """Parse one manifest document; returns the manifest plus forward-compat warnings.

    `refs` decodes import-ref arrays: a `ref_decoder()` shared by the
    manifests of one workspace, or by default a new one for this call.
    """
    doc = parse_json(text, "E-SYNTAX")
    bag = DiagnosticBag()
    _record(doc, "", _TOP_KEYS, bag, "manifest must be a JSON object")
    name = _field(doc, "name", "", _string)
    manifest = FederationManifest(
        name=name,
        version=_field(doc, "version", "", _string, parse_version),
        entry=_field(doc, "entry", "", _string, default=None),
        modules=_entries(doc, "modules", _parse_module, bag, refs or ref_decoder()),
        exposes=_entries(doc, "exposes", _parse_expose, bag),
        remotes=_entries(doc, "remotes", _parse_remote, bag),
        shared=_entries(doc, "shared", _parse_shared, bag),
        expects=_entries(doc, "expects", _parse_expect, bag, name),
    )
    return manifest, bag.items


def manifest_to_json(m: FederationManifest) -> dict:
    doc: dict = {"name": m.name, "version": str(m.version)}
    if m.entry is not None:
        doc["entry"] = m.entry
    doc["modules"] = [
        {
            "id": mod.id,
            "sizeBytes": mod.size_bytes,
            "staticImports": [render_import_ref(r) for r in mod.static_imports],
            "dynamicImports": [render_import_ref(r) for r in mod.dynamic_imports],
            **({"interface": mod.interface} if mod.interface is not None else {}),
        }
        for mod in m.modules
    ]
    doc["exposes"] = [{"id": e.id, "module": e.module} for e in m.exposes]
    doc["remotes"] = [{"name": r.name, "manifest": r.manifest_path} for r in m.remotes]
    doc["shared"] = [
        {
            "package": s.package,
            "requiredRange": render_range(s.required_range),
            **(
                {"providedVersion": str(s.provided_version)}
                if s.provided_version is not None
                else {}
            ),
            "singleton": s.singleton,
            "eager": s.eager,
            "strictVersion": s.strict_version,
            "sizeBytes": s.size_bytes,
        }
        for s in m.shared
    ]
    if m.expects:
        doc["expects"] = [
            {
                "target": x.target(),
                "interface": serialize_type_node(x.expected),
            }
            for x in m.expects
        ]
    return doc


def serialize_manifest(m: FederationManifest) -> str:
    """Canonical form: parse -> serialize -> parse is a fixed point."""
    return json.dumps(manifest_to_json(m), indent=2) + "\n"


def validate_manifest(m: FederationManifest) -> list[Diagnostic]:
    """Report every invariant violation as a diagnostic; empty list iff valid."""
    bag = DiagnosticBag()

    module_ids = set()
    for i, mod in enumerate(m.modules):
        if mod.id in module_ids:
            bag.error("E-DUP-MODULE", f".modules[{i}].id", f"module {mod.id!r} declared twice")
        module_ids.add(mod.id)
        if mod.size_bytes < 0:
            bag.error("E-NEGATIVE-SIZE", f".modules[{i}].sizeBytes", "sizeBytes must be >= 0")
        dup = set(mod.static_imports).intersection(mod.dynamic_imports)
        if dup:
            for ref in sorted(render_import_ref(r) for r in dup):
                bag.error("E-DUP-IMPORT", f".modules[{i}]", f"import {ref!r} is both static and dynamic")

    expose_ids = set()
    for i, exp in enumerate(m.exposes):
        if exp.id in expose_ids:
            bag.error("E-DUP-EXPOSE", f".exposes[{i}].id", f"expose {exp.id!r} declared twice")
        expose_ids.add(exp.id)
        if exp.module not in module_ids:
            bag.error(
                "E-DANGLING-EXPOSE",
                f".exposes[{i}].module",
                f"expose {exp.id!r} points at undeclared module {exp.module!r}",
            )

    if m.entry is not None and m.entry not in module_ids:
        bag.error("E-DANGLING-ENTRY", ".entry", f"entry {m.entry!r} is not a declared module")

    remote_names = set()
    for i, remote in enumerate(m.remotes):
        if remote.name in remote_names:
            bag.error("E-DUP-REMOTE", f".remotes[{i}].name", f"remote {remote.name!r} declared twice")
        remote_names.add(remote.name)
        if remote.name == m.name:
            bag.error("E-SELF-REMOTE", f".remotes[{i}].name", "remote name equals the manifest's own name")

    shared_packages = set()
    for i, spec in enumerate(m.shared):
        if spec.package in shared_packages:
            bag.error(
                "E-DUP-SHARED", f".shared[{i}].package", f"shared package {spec.package!r} declared twice"
            )
        shared_packages.add(spec.package)
        if spec.size_bytes < 0:
            bag.error("E-NEGATIVE-SIZE", f".shared[{i}].sizeBytes", "sizeBytes must be >= 0")
        if spec.provided_version is not None and not satisfies(
            spec.required_range, spec.provided_version
        ):
            bag.warning(
                "W-SELF-RANGE",
                f".shared[{i}].providedVersion",
                f"provided {spec.provided_version} does not satisfy own range "
                f"{render_range(spec.required_range)!r}",
            )

    for i, mod in enumerate(m.modules):
        for group, refs in (("staticImports", mod.static_imports), ("dynamicImports", mod.dynamic_imports)):
            for j, ref in enumerate(refs):
                if isinstance(ref, LocalImport):
                    if ref.module in module_ids:
                        continue
                    code, message = "E-DANGLING-LOCAL", f"import of undeclared module {ref.module!r}"
                elif isinstance(ref, RemoteImport):
                    if ref.remote in remote_names:
                        continue
                    code, message = "E-UNDECLARED-REMOTE", f"import from undeclared remote {ref.remote!r}"
                elif ref.package in shared_packages:
                    continue
                else:
                    code = "E-UNDECLARED-SHARED"
                    message = f"import of undeclared shared package {ref.package!r}"
                bag.error(code, f".modules[{i}].{group}[{j}]", message)

    return bag.items


@dataclass(frozen=True)
class Workspace:
    """The host manifest plus every transitively referenced remote manifest."""

    host: FederationManifest
    remotes: dict[str, FederationManifest]  # keyed by application name
    alias_targets: dict[tuple[str, str], str]  # (app name, remote alias) -> app name

    def applications(self) -> list[FederationManifest]:
        return [self.host] + [self.remotes[name] for name in sorted(self.remotes)]

    def app(self, name: str) -> FederationManifest | None:
        if name == self.host.name:
            return self.host
        return self.remotes.get(name)

    def resolve_alias(self, app_name: str, alias: str) -> FederationManifest | None:
        target = self.alias_targets.get((app_name, alias))
        return self.app(target) if target is not None else None


def load_workspace(host_path: str) -> tuple[Workspace, list[Diagnostic]]:
    """Load the host manifest and the transitive closure of its remotes.

    Each manifest file is loaded exactly once (by real path). Reference cycles
    are errors, with one carve-out: a remote referring back to the host is a
    bidirectional topology, loaded from cache and flagged W-BIDIRECTIONAL.
    """
    bag = DiagnosticBag()
    host_real = os.path.realpath(host_path)
    loaded: dict[str, FederationManifest] = {}
    names: dict[str, tuple[str, str]] = {}  # app name -> (real path, path as given)
    alias_targets: dict[tuple[str, str], str] = {}

    # Depth-first over remote references, on an explicit stack of frames:
    # (real path, path as given, manifest, its remotes not yet followed).
    frames: list[tuple] = []
    on_stack: set[str] = set()
    refs = ref_decoder()

    def enter(path_given: str, real: str) -> FederationManifest:
        try:
            with open(path_given, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ToolError("E-IO", f"cannot read manifest: {exc}", path_given)
        except UnicodeDecodeError as exc:
            raise ToolError("E-SYNTAX", f"{path_given}: not valid UTF-8: {exc}")
        try:
            manifest, warns = parse_manifest(text, refs)
        except ToolError as exc:
            raise ToolError(exc.code, f"{path_given}: {exc.message}", exc.path) from exc
        bag.extend([replace(w, path=f"{path_given}:{w.path}") for w in warns])
        manifest = replace(manifest, base_dir=os.path.dirname(path_given))
        if manifest.name in names and names[manifest.name][0] != real:
            raise ToolError(
                "E-DUP-APP",
                f"two applications named {manifest.name!r}: "
                f"{names[manifest.name][1]} and {path_given}",
            )
        names[manifest.name] = (real, path_given)
        loaded[real] = manifest
        frames.append((real, path_given, manifest, iter(manifest.remotes)))
        on_stack.add(real)
        return manifest

    host = enter(host_path, host_real)
    while frames:
        real, path_given, manifest, remotes = frames[-1]
        for remote in remotes:
            target_given = os.path.normpath(
                os.path.join(os.path.dirname(path_given), remote.manifest_path)
            )
            target_real = os.path.realpath(target_given)
            if target_real == real:
                raise ToolError(
                    "E-REMOTE-CYCLE",
                    f"{manifest.name} references its own manifest via remote {remote.name!r}",
                )
            if target_real == host_real:
                bag.warning(
                    "W-BIDIRECTIONAL",
                    path_given,
                    f"{manifest.name} consumes the host as remote {remote.name!r}",
                )
                alias_targets[(manifest.name, remote.name)] = host.name
                continue
            if target_real in on_stack:
                start = next(i for i, frame in enumerate(frames) if frame[0] == target_real)
                chain = [frame[2].name for frame in frames[start:]] + [loaded[target_real].name]
                raise ToolError("E-REMOTE-CYCLE", "manifest cycle: " + " -> ".join(chain))
            if target_real not in loaded:
                alias_targets[(manifest.name, remote.name)] = enter(target_given, target_real).name
                break  # continue depth-first from the new frame
            alias_targets[(manifest.name, remote.name)] = loaded[target_real].name
        else:
            frames.pop()
            on_stack.discard(real)

    if host.entry is None:
        raise ToolError("E-MISSING-FIELD", "host manifest must declare an entry module", ".entry")
    remotes = {m.name: m for real, m in loaded.items() if real != host_real}
    return Workspace(host, remotes, alias_targets), bag.items


def validate_workspace(w: Workspace) -> list[Diagnostic]:
    """Run per-manifest validation over every application, file-tagged."""
    out: list[Diagnostic] = []
    for app in w.applications():
        for d in validate_manifest(app):
            out.append(replace(d, path=f"{app.name}:{d.path}"))
    return out
