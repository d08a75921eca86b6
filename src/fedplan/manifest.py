"""Federation manifest parsing, validation, and workspace loading.

One `federation.json` per application declares its modules, exposes, remote
references, and shared dependencies. A workspace is the host manifest plus
the transitive closure of remote manifests it references, each loaded exactly
once. Unknown fields warn instead of erroring: independently deployed teams
evolve their manifests on their own schedules.

Each record kind (module, expose, remote, shared, expects entry, the manifest
itself) is one table of fields: JSON name, attribute, value checks, default and
rendering. `_walk` decodes from the tables and `serialize_manifest` writes from
them. Module entries, the bulk of a workspace, are first decoded by inline
checks that accept what their table accepts; only an entry that fails them is
walked, so every diagnostic comes from the walk. The pass over the modules also
indexes them and makes `validate_manifest`'s per-module checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

from .diagnostics import Diagnostic, DiagnosticBag, ToolError, parse_json, quote
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


# Slotted and not frozen: a workspace builds thousands of module and shared records,
# and a frozen dataclass pays an object.__setattr__ per field. Nothing hashes them.
@dataclass(slots=True)
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


@dataclass(slots=True)
class SharedSpec:
    package: str
    required_range: VersionRange
    provided_version: Version | None
    singleton: bool
    eager: bool
    strict_version: bool
    size_bytes: int


class _Index(NamedTuple):
    """A manifest's modules and exposes by id, the first declaration of an id winning."""

    module_by_id: dict
    expose_target: dict  # expose id -> module id
    findings: DiagnosticBag  # what the module and expose checks report, in declaration order

    def add_module(self, i: int, mod: ModuleDecl) -> None:
        """Index `mod`, the i-th module, unless its id is taken; report what is wrong with it alone."""
        if mod.id in self.module_by_id:
            self.findings.error("E-DUP-MODULE", f".modules[{i}].id", f"module {mod.id!r} declared twice")
        else:
            self.module_by_id[mod.id] = mod
        if mod.size_bytes < 0:
            self.findings.error("E-NEGATIVE-SIZE", f".modules[{i}].sizeBytes", "sizeBytes must be >= 0")
        if mod.static_imports and mod.dynamic_imports:
            dup = set(mod.static_imports).intersection(mod.dynamic_imports)
            for ref in sorted(render_import_ref(r) for r in dup) if dup else ():
                message = f"import {ref!r} is both static and dynamic"
                self.findings.error("E-DUP-IMPORT", f".modules[{i}]", message)

    def add_exposes(self, exposes: tuple) -> None:
        """Index the exposes, after every module; report duplicate ids and undeclared targets."""
        for i, e in enumerate(exposes):
            if e.id in self.expose_target:
                self.findings.error("E-DUP-EXPOSE", f".exposes[{i}].id", f"expose {e.id!r} declared twice")
            else:
                self.expose_target[e.id] = e.module
            if e.module not in self.module_by_id:
                message = f"expose {e.id!r} points at undeclared module {e.module!r}"
                self.findings.error("E-DANGLING-EXPOSE", f".exposes[{i}].module", message)


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

    @cached_property
    def _index(self) -> _Index:
        """Built on first use, unless parse_manifest set the one its decoding pass made."""
        index = _Index({}, {}, DiagnosticBag())
        for i, mod in enumerate(self.modules):
            index.add_module(i, mod)
        index.add_exposes(self.exposes)
        return index

    def module(self, module_id: str) -> ModuleDecl | None:
        return self._index.module_by_id.get(module_id)

    def expose_target(self, expose_id: str) -> str | None:
        return self._index.expose_target.get(expose_id)


_ABSENT = object()
_NO_REFS: list = []  # the value of an absent import array; never mutated


def _check(test: Callable, message: str) -> Callable:
    """A value check: the value itself if `test` holds for it, else E-SYNTAX `message`."""
    def check(value):
        if not test(value):
            raise ToolError("E-SYNTAX", message)
        return value
    return check


_string = _check(lambda v: isinstance(v, str) and v, "expected a non-empty string")
_no_nul = _check(lambda v: "\0" not in v, "a path must not contain a NUL character")
_integer = _check(lambda v: isinstance(v, int) and not isinstance(v, bool), "expected an integer")
_bounded = _check(lambda v: v <= MAX_BYTES, "sizeBytes must be at most 2**53")
_boolean = _check(lambda v: isinstance(v, bool), "expected a boolean")
_array = _check(lambda v: isinstance(v, list), "expected an array")


def _refs(value) -> tuple:
    out = []
    for j, text in enumerate(_array(value)):
        try:
            out.append(parse_import_ref(_string(text)))
        except ToolError as exc:
            raise ToolError(exc.code, exc.message, f"[{j}]") from exc
    return tuple(out)


def _import_ref(text) -> LocalImport | RemoteImport | SharedImport:
    """An import ref from a JSON value; a value that is not a non-empty string raises."""
    return parse_import_ref(_string(text))


class Interned(dict):
    """A workspace's parsed texts: `interned[parse][text]` is `parse(text)`, made on
    the first lookup and shared after it, so each distinct import ref or range text
    of a workspace is parsed once. The parsed values are frozen, so sharing is safe."""

    def __missing__(self, parse: Callable) -> _Parsed:
        table = self[parse] = _Parsed(parse)
        return table


class _Parsed(dict):
    """One parser's results by text. A text that fails raises on every lookup."""

    def __init__(self, parse: Callable) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = self.parse(text)
        return value


def _target(text: str) -> tuple[str, str, str]:
    """Split "remote/expose#export"."""
    ref, sep, export = text.rpartition("#")
    if not sep or not export or "/" not in ref:
        raise ToolError("E-SYNTAX", f'target must look like "remote/expose#export", got {quote(text)}')
    remote, expose = ref.split("/", 1)
    return remote, expose, export


class _Decoding(NamedTuple):
    interned: Interned  # the workspace's
    bag: DiagnosticBag  # the manifest's warnings
    index: _Index  # what the pass over its modules finds


class _Field(NamedTuple):
    key: str  # the JSON name
    attr: str  # the record's attribute
    checks: tuple  # applied in order, each to the last one's result
    default: object = _ABSENT  # the value of an absent key; _ABSENT where it is required
    render: Callable | None = None  # attribute -> JSON; None: the attribute itself
    entries: Callable | None = None  # decodes an array's entries: (items, path, _Decoding) -> tuple
    optional: bool = False  # serialize_manifest leaves the key out when the value is None or ()
    parse: Callable | None = None  # after the checks; interned, so once per distinct text


class _Kind:
    """A record kind: the error for an entry that is not an object, its constructor, its fields."""

    def __init__(self, error: str, make: Callable, *fields: _Field) -> None:
        self.error, self.make, self.fields = error, make, fields
        self.keys = frozenset(f.key for f in fields)

    def entries(self, items: list, path: str, decoding: _Decoding) -> tuple:
        return tuple(self.make(*_walk(obj, self, f"{path}[{i}]", decoding)) for i, obj in enumerate(items))

    def to_json(self, record) -> dict:
        doc = {}
        for f in self.fields:
            value = getattr(record, f.attr)
            if not (f.optional and (value is None or value == ())):
                doc[f.key] = value if f.render is None else f.render(value)
        return doc

    def all_to_json(self, records) -> list:
        return [self.to_json(r) for r in records]


def _walk(obj, kind: _Kind, path: str, decoding: _Decoding) -> list:
    """The table walk: obj's unknown keys warn, then its fields decode in table order.

    An absent key gives the default, or E-MISSING-FIELD when there is none; a null
    is absent where the default is None. The first failing check raises at
    `{path}.{key}` plus its own relative path (a ref's "[j]", a type node's
    ".element..."), so a location is formatted only on failure. An array's
    entries decode before the next field is read.
    """
    if not isinstance(obj, dict):
        raise ToolError("E-SYNTAX", kind.error, path)
    for key in obj:
        if key not in kind.keys:
            decoding.bag.warning("W-UNKNOWN-FIELD", f"{path}.{key}", f"unknown field {quote(key)} ignored")
    values = []
    for f in kind.fields:
        value = obj.get(f.key, _ABSENT)
        if value is _ABSENT:
            if f.default is _ABSENT:
                raise ToolError("E-MISSING-FIELD", "required field missing", f"{path}.{f.key}")
            value = f.default
        elif value is not None or f.default is not None:
            try:
                for check in f.checks:
                    value = check(value)
                if f.parse is not None:
                    value = decoding.interned[f.parse][value]
            except ToolError as exc:
                raise ToolError(exc.code, exc.message, f"{path}.{f.key}{exc.path}") from exc
        values.append(value if f.entries is None else f.entries(value, f"{path}.{f.key}", decoding))
    return values


def _refs_to_json(refs: tuple) -> list:
    return [render_import_ref(r) for r in refs]


_MODULE = _Kind(
    "module entry must be an object", ModuleDecl,
    _Field("id", "id", (_string,)),
    _Field("sizeBytes", "size_bytes", (_integer, _bounded), 0),
    _Field("staticImports", "static_imports", (_refs,), (), _refs_to_json),
    _Field("dynamicImports", "dynamic_imports", (_refs,), (), _refs_to_json),
    _Field("interface", "interface", (_string, _no_nul), None, optional=True),
)
_EXPOSE = _Kind(
    "expose entry must be an object", ExposeDecl,
    _Field("id", "id", (_string,)),
    _Field("module", "module", (_string,)),
)
_REMOTE = _Kind(
    "remote entry must be an object", RemoteRef,
    _Field("name", "name", (_string,)),
    _Field("manifest", "manifest_path", (_string, _no_nul)),
)
_SHARED = _Kind(
    "shared entry must be an object", SharedSpec,
    _Field("package", "package", (_string,)),
    _Field("requiredRange", "required_range", (_string,), render=render_range, parse=parse_range),
    _Field("providedVersion", "provided_version", (_string, parse_version), None, str, optional=True),
    _Field("singleton", "singleton", (_boolean,), False),
    _Field("eager", "eager", (_boolean,), False),
    _Field("strictVersion", "strict_version", (_boolean,), False),
    _Field("sizeBytes", "size_bytes", (_integer, _bounded), 0),
)
# An expects entry decodes to (target, type); parse_manifest makes the Expectation,
# whose consumer is the manifest's own name. Its attribute "target" is a method.
_EXPECT = _Kind(
    "expects entry must be an object", lambda target, expected: (target, expected),
    _Field("target", "target", (_string, _target), render=lambda target: target()),
    _Field("interface", "expected", (parse_type_node,), render=serialize_type_node),
)


def _module_entries(items: list, path: str, decoding: _Decoding) -> tuple:
    """Decode the modules, index them by id and make the per-module checks, in one pass.

    _MODULE's checks run inline; only an entry that fails one, or has an unknown key, is walked.
    """
    ref, modules = decoding.interned[_import_ref].__getitem__, []
    for i, obj in enumerate(items):
        mod = None
        if type(obj) is dict and obj.keys() <= _MODULE.keys:
            id_, size, interface = obj.get("id"), obj.get("sizeBytes", 0), obj.get("interface")
            static, dynamic = obj.get("staticImports", _NO_REFS), obj.get("dynamicImports", _NO_REFS)
            if (
                type(id_) is str and id_ and type(size) is int and size <= MAX_BYTES
                and type(static) is list and type(dynamic) is list
                and (interface is None or type(interface) is str and interface and "\0" not in interface)
            ):
                try:
                    mod = ModuleDecl(id_, size, tuple(map(ref, static)), tuple(map(ref, dynamic)), interface)
                except (ToolError, TypeError):  # a ref that is not a non-empty string
                    pass
        if mod is None:
            mod = ModuleDecl(*_walk(obj, _MODULE, f"{path}[{i}]", decoding))
        decoding.index.add_module(i, mod)
        modules.append(mod)
    return tuple(modules)


_TOP = _Kind(
    "manifest must be a JSON object", FederationManifest,
    _Field("name", "name", (_string,)),
    _Field("version", "version", (_string, parse_version), render=str),
    _Field("entry", "entry", (_string,), None, optional=True),
    _Field("modules", "modules", (_array,), (), _MODULE.all_to_json, _module_entries),
    _Field("exposes", "exposes", (_array,), (), _EXPOSE.all_to_json, _EXPOSE.entries),
    _Field("remotes", "remotes", (_array,), (), _REMOTE.all_to_json, _REMOTE.entries),
    _Field("shared", "shared", (_array,), (), _SHARED.all_to_json, _SHARED.entries),
    _Field("expects", "expects", (_array,), (), _EXPECT.all_to_json, _EXPECT.entries, optional=True),
)


def parse_manifest(
    text: str, interned: Interned | None = None, base_dir: str | None = None
) -> tuple[FederationManifest, list[Diagnostic]]:
    """Parse one manifest document; returns the manifest plus forward-compat warnings.

    The manifests of one workspace share `interned`; by default this call makes its own.
    """
    index = _Index({}, {}, DiagnosticBag())
    decoding = _Decoding(Interned() if interned is None else interned, DiagnosticBag(), index)
    values = _walk(parse_json(text, "E-SYNTAX"), _TOP, "", decoding)
    name, version, entry, modules, exposes, remotes, shared, expects = values
    expects = tuple(Expectation(name, *target, expected) for target, expected in expects)
    manifest = FederationManifest(name, version, entry, modules, exposes, remotes, shared, expects, base_dir)
    index.add_exposes(exposes)
    object.__setattr__(manifest, "_index", index)
    return manifest, decoding.bag.items


def serialize_manifest(m: FederationManifest) -> str:
    """Canonical form: parse -> serialize -> parse is a fixed point."""
    return json.dumps(_TOP.to_json(m), indent=2) + "\n"


def validate_manifest(m: FederationManifest) -> list[Diagnostic]:
    """Report every invariant violation as a diagnostic; empty list iff valid.

    The module and expose checks come from the pass that indexed them.
    """
    bag = DiagnosticBag(list(m._index.findings.items))
    module_ids = m._index.module_by_id

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
        if spec.provided_version is not None and not satisfies(spec.required_range, spec.provided_version):
            message = (f"provided {spec.provided_version} does not satisfy own range "
                       f"{render_range(spec.required_range)!r}")
            bag.warning("W-SELF-RANGE", f".shared[{i}].providedVersion", message)

    declared = {  # ref type -> (its name attribute, the names declared, code, message)
        LocalImport: ("module", module_ids, "E-DANGLING-LOCAL", "import of undeclared module"),
        RemoteImport: ("remote", remote_names, "E-UNDECLARED-REMOTE", "import from undeclared remote"),
        SharedImport: (
            "package", shared_packages, "E-UNDECLARED-SHARED", "import of undeclared shared package"
        ),
    }
    for i, mod in enumerate(m.modules):
        for group, refs in (("staticImports", mod.static_imports), ("dynamicImports", mod.dynamic_imports)):
            for j, ref in enumerate(refs):
                attr, names, code, message = declared[type(ref)]
                name = getattr(ref, attr)
                if name not in names:
                    bag.error(code, f".modules[{i}].{group}[{j}]", f"{message} {name!r}")

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
    interned = Interned()

    def enter(path_given: str, real: str) -> FederationManifest:
        try:
            with open(path_given, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ToolError("E-IO", f"cannot read manifest: {exc}", path_given)
        except UnicodeDecodeError as exc:
            raise ToolError("E-SYNTAX", f"{path_given}: not valid UTF-8: {exc}")
        try:
            manifest, warns = parse_manifest(text, interned, os.path.dirname(path_given))
        except ToolError as exc:
            raise ToolError(exc.code, f"{path_given}: {exc.message}", exc.path) from exc
        bag.extend([replace(w, path=f"{path_given}:{w.path}") for w in warns])
        if manifest.name in names and names[manifest.name][0] != real:
            message = f"two applications named {manifest.name!r}: {names[manifest.name][1]} and {path_given}"
            raise ToolError("E-DUP-APP", message)
        names[manifest.name] = (real, path_given)
        loaded[real] = manifest
        frames.append((real, path_given, manifest, iter(manifest.remotes)))
        on_stack.add(real)
        return manifest

    host = enter(host_path, host_real)
    while frames:
        real, path_given, manifest, remotes = frames[-1]
        for remote in remotes:
            target_given = os.path.normpath(os.path.join(os.path.dirname(path_given), remote.manifest_path))
            target_real = os.path.realpath(target_given)
            if target_real == real:
                message = f"{manifest.name} references its own manifest via remote {remote.name!r}"
                raise ToolError("E-REMOTE-CYCLE", message)
            if target_real == host_real:
                message = f"{manifest.name} consumes the host as remote {remote.name!r}"
                bag.warning("W-BIDIRECTIONAL", path_given, message)
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
