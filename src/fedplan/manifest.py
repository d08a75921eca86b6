"""Federation manifest parsing, validation, and workspace loading.

One `federation.json` per application declares its modules, exposes, remote
references, and shared dependencies. A workspace is the host manifest plus
the transitive closure of remote manifests it references, each loaded exactly
once. Unknown fields warn instead of erroring: independently deployed teams
evolve their manifests on their own schedules.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic, DiagnosticBag, ToolError, parse_json
from .interfaces import TypeExpr, parse_type_node, serialize_type_node
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
class ExpectDecl:
    """Consumer-side type expectation: remote/expose#export must accept `expected`."""

    remote: str
    expose: str
    export: str
    expected: TypeExpr


@dataclass(frozen=True)
class FederationManifest:
    name: str
    version: Version
    entry: str | None
    modules: tuple[ModuleDecl, ...]
    exposes: tuple[ExposeDecl, ...]
    remotes: tuple[RemoteRef, ...]
    shared: tuple[SharedSpec, ...]
    expects: tuple[ExpectDecl, ...] = ()
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


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ToolError("E-MISSING-FIELD", "required field missing", f"{path}.{key}")
    return obj[key]


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ToolError("E-SYNTAX", "expected a non-empty string", path)
    return value


def _path(value, path: str) -> str:
    text = _string(value, path)
    if "\0" in text:
        raise ToolError("E-SYNTAX", "a path must not contain a NUL character", path)
    return text


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ToolError("E-SYNTAX", "expected an integer", path)
    return value


def _size(value, path: str) -> int:
    size = _integer(value, path)
    if size > MAX_BYTES:
        raise ToolError("E-SYNTAX", "sizeBytes must be at most 2**53", path)
    return size


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ToolError("E-SYNTAX", "expected a boolean", path)
    return value


def _array(obj: dict, key: str, path: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ToolError("E-SYNTAX", "expected an array", f"{path}.{key}")
    return value


def _warn_unknown(obj: dict, known: set, path: str, bag: DiagnosticBag) -> None:
    for key in obj:
        if key not in known:
            bag.warning("W-UNKNOWN-FIELD", f"{path}.{key}", f"unknown field {key!r} ignored")


def _wrap_version(text: str, path: str) -> Version:
    try:
        return parse_version(text)
    except ToolError as exc:
        raise ToolError(exc.code, exc.message, path) from exc


def _wrap_range(text: str, path: str) -> VersionRange:
    try:
        return parse_range(text)
    except ToolError as exc:
        raise ToolError(exc.code, exc.message, path) from exc


def _parse_refs(values: list, path: str) -> tuple:
    return tuple(parse_import_ref(_string(v, f"{path}[{i}]")) for i, v in enumerate(values))


def _parse_module(obj: dict, path: str, bag: DiagnosticBag) -> ModuleDecl:
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", "module entry must be an object", path)
    _warn_unknown(obj, _MODULE_KEYS, path, bag)
    interface = obj.get("interface")
    return ModuleDecl(
        id=_string(_require(obj, "id", path), f"{path}.id"),
        size_bytes=_size(obj.get("sizeBytes", 0), f"{path}.sizeBytes"),
        static_imports=_parse_refs(_array(obj, "staticImports", path), f"{path}.staticImports"),
        dynamic_imports=_parse_refs(_array(obj, "dynamicImports", path), f"{path}.dynamicImports"),
        interface=_path(interface, f"{path}.interface") if interface is not None else None,
    )


def _parse_expose(obj: dict, path: str, bag: DiagnosticBag) -> ExposeDecl:
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", "expose entry must be an object", path)
    _warn_unknown(obj, _EXPOSE_KEYS, path, bag)
    return ExposeDecl(
        id=_string(_require(obj, "id", path), f"{path}.id"),
        module=_string(_require(obj, "module", path), f"{path}.module"),
    )


def _parse_remote(obj: dict, path: str, bag: DiagnosticBag) -> RemoteRef:
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", "remote entry must be an object", path)
    _warn_unknown(obj, _REMOTE_KEYS, path, bag)
    return RemoteRef(
        name=_string(_require(obj, "name", path), f"{path}.name"),
        manifest_path=_path(_require(obj, "manifest", path), f"{path}.manifest"),
    )


def _parse_shared(obj: dict, path: str, bag: DiagnosticBag) -> SharedSpec:
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", "shared entry must be an object", path)
    _warn_unknown(obj, _SHARED_KEYS, path, bag)
    provided = obj.get("providedVersion")
    return SharedSpec(
        package=_string(_require(obj, "package", path), f"{path}.package"),
        required_range=_wrap_range(
            _string(_require(obj, "requiredRange", path), f"{path}.requiredRange"),
            f"{path}.requiredRange",
        ),
        provided_version=(
            _wrap_version(_string(provided, f"{path}.providedVersion"), f"{path}.providedVersion")
            if provided is not None
            else None
        ),
        singleton=_boolean(obj.get("singleton", False), f"{path}.singleton"),
        eager=_boolean(obj.get("eager", False), f"{path}.eager"),
        strict_version=_boolean(obj.get("strictVersion", False), f"{path}.strictVersion"),
        size_bytes=_size(obj.get("sizeBytes", 0), f"{path}.sizeBytes"),
    )


def _parse_expect(obj: dict, path: str, bag: DiagnosticBag) -> ExpectDecl:
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", "expects entry must be an object", path)
    _warn_unknown(obj, _EXPECT_KEYS, path, bag)
    target = _string(_require(obj, "target", path), f"{path}.target")
    ref, sep, export = target.rpartition("#")
    if not sep or not export or "/" not in ref:
        raise ToolError(
            "E-SYNTAX", f'target must look like "remote/expose#export", got {target!r}', f"{path}.target"
        )
    remote, expose = ref.split("/", 1)
    expected = parse_type_node(_require(obj, "interface", path), f"{path}.interface")
    return ExpectDecl(remote, expose, export, expected)


def parse_manifest(text: str) -> tuple[FederationManifest, list[Diagnostic]]:
    """Parse one manifest document; returns the manifest plus forward-compat warnings."""
    doc = parse_json(text, "E-SYNTAX")
    if not isinstance(doc, dict):
        raise ToolError("E-SYNTAX", "manifest must be a JSON object")

    bag = DiagnosticBag()
    _warn_unknown(doc, _TOP_KEYS, "", bag)
    entry = doc.get("entry")
    manifest = FederationManifest(
        name=_string(_require(doc, "name", ""), ".name"),
        version=_wrap_version(_string(_require(doc, "version", ""), ".version"), ".version"),
        entry=_string(entry, ".entry") if entry is not None else None,
        modules=tuple(
            _parse_module(m, f".modules[{i}]", bag)
            for i, m in enumerate(_array(doc, "modules", ""))
        ),
        exposes=tuple(
            _parse_expose(e, f".exposes[{i}]", bag)
            for i, e in enumerate(_array(doc, "exposes", ""))
        ),
        remotes=tuple(
            _parse_remote(r, f".remotes[{i}]", bag)
            for i, r in enumerate(_array(doc, "remotes", ""))
        ),
        shared=tuple(
            _parse_shared(s, f".shared[{i}]", bag)
            for i, s in enumerate(_array(doc, "shared", ""))
        ),
        expects=tuple(
            _parse_expect(x, f".expects[{i}]", bag)
            for i, x in enumerate(_array(doc, "expects", ""))
        ),
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
                "target": f"{x.remote}/{x.expose}#{x.export}",
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
        path = f".modules[{i}]"
        if mod.id in module_ids:
            bag.error("E-DUP-MODULE", f"{path}.id", f"module {mod.id!r} declared twice")
        module_ids.add(mod.id)
        if mod.size_bytes < 0:
            bag.error("E-NEGATIVE-SIZE", f"{path}.sizeBytes", "sizeBytes must be >= 0")
        dup = set(mod.static_imports) & set(mod.dynamic_imports)
        for ref in sorted(render_import_ref(r) for r in dup):
            bag.error(
                "E-DUP-IMPORT", path, f"import {ref!r} is both static and dynamic"
            )

    expose_ids = set()
    for i, exp in enumerate(m.exposes):
        path = f".exposes[{i}]"
        if exp.id in expose_ids:
            bag.error("E-DUP-EXPOSE", f"{path}.id", f"expose {exp.id!r} declared twice")
        expose_ids.add(exp.id)
        if exp.module not in module_ids:
            bag.error(
                "E-DANGLING-EXPOSE",
                f"{path}.module",
                f"expose {exp.id!r} points at undeclared module {exp.module!r}",
            )

    if m.entry is not None and m.entry not in module_ids:
        bag.error("E-DANGLING-ENTRY", ".entry", f"entry {m.entry!r} is not a declared module")

    remote_names = set()
    for i, remote in enumerate(m.remotes):
        path = f".remotes[{i}].name"
        if remote.name in remote_names:
            bag.error("E-DUP-REMOTE", path, f"remote {remote.name!r} declared twice")
        remote_names.add(remote.name)
        if remote.name == m.name:
            bag.error("E-SELF-REMOTE", path, "remote name equals the manifest's own name")

    shared_packages = set()
    for i, spec in enumerate(m.shared):
        path = f".shared[{i}]"
        if spec.package in shared_packages:
            bag.error(
                "E-DUP-SHARED", f"{path}.package", f"shared package {spec.package!r} declared twice"
            )
        shared_packages.add(spec.package)
        if spec.size_bytes < 0:
            bag.error("E-NEGATIVE-SIZE", f"{path}.sizeBytes", "sizeBytes must be >= 0")
        if spec.provided_version is not None and not satisfies(
            spec.required_range, spec.provided_version
        ):
            bag.warning(
                "W-SELF-RANGE",
                f"{path}.providedVersion",
                f"provided {spec.provided_version} does not satisfy own range "
                f"{render_range(spec.required_range)!r}",
            )

    for i, mod in enumerate(m.modules):
        for group, refs in (("staticImports", mod.static_imports), ("dynamicImports", mod.dynamic_imports)):
            for j, ref in enumerate(refs):
                path = f".modules[{i}].{group}[{j}]"
                if isinstance(ref, LocalImport) and ref.module not in module_ids:
                    bag.error(
                        "E-DANGLING-LOCAL", path, f"import of undeclared module {ref.module!r}"
                    )
                elif isinstance(ref, RemoteImport) and ref.remote not in remote_names:
                    bag.error(
                        "E-UNDECLARED-REMOTE", path, f"import from undeclared remote {ref.remote!r}"
                    )
                elif isinstance(ref, SharedImport) and ref.package not in shared_packages:
                    bag.error(
                        "E-UNDECLARED-SHARED", path, f"import of undeclared shared package {ref.package!r}"
                    )

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

    def enter(path_given: str, real: str) -> FederationManifest:
        try:
            with open(path_given, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ToolError("E-IO", f"cannot read manifest: {exc}", path_given)
        except UnicodeDecodeError as exc:
            raise ToolError("E-SYNTAX", f"{path_given}: not valid UTF-8: {exc}")
        try:
            manifest, warns = parse_manifest(text)
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
