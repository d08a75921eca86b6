"""Structural interface declarations and subtype checking for exposed modules.

The type language is a small JSON IDL: primitives, records (width-subtyped),
functions (contravariant parameters, covariant returns), arrays, and the
Unknown top type. Terms are finite trees; named references are rejected at
parse time (E-RECURSIVE-TYPE) so the subtype relation is total and
terminating. A tree nested deeper than MAX_TYPE_DEPTH levels is rejected at
parse time too (E-TYPE-TOO-DEEP), so the recursive functions below never
reach the interpreter's recursion limit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .diagnostics import Diagnostic, DiagnosticBag, ERROR, WARNING, ToolError, parse_json, quote

if TYPE_CHECKING:
    from .manifest import Workspace

PRIMITIVES = ("string", "number", "boolean")
MAX_TYPE_DEPTH = 256
# A too-deep node's path has a segment per level: its location keeps this
# many characters of it, so the diagnostic stays short.
MAX_DEEP_PATH = 200


@dataclass(frozen=True)
class PrimitiveType:
    name: str  # one of PRIMITIVES


@dataclass(frozen=True)
class RecordField:
    name: str
    type: "TypeExpr"
    optional: bool = False


@dataclass(frozen=True)
class RecordType:
    fields: tuple[RecordField, ...]  # declaration order, names unique

    def field(self, name: str) -> RecordField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None


@dataclass(frozen=True)
class FunctionType:
    params: tuple["TypeExpr", ...]
    returns: "TypeExpr"


@dataclass(frozen=True)
class ArrayType:
    element: "TypeExpr"


@dataclass(frozen=True)
class UnknownType:
    pass


TypeExpr = Union[PrimitiveType, RecordType, FunctionType, ArrayType, UnknownType]

UNKNOWN = UnknownType()


@dataclass(frozen=True)
class InterfaceDecl:
    exports: tuple[tuple[str, TypeExpr], ...]  # (export name, type), names unique

    def export(self, name: str) -> TypeExpr | None:
        for export_name, ty in self.exports:
            if export_name == name:
                return ty
        return None


@dataclass(frozen=True)
class Expectation:
    """A consumer's declared type for one export of one remote expose."""

    consumer: str
    remote: str
    expose: str
    export: str
    expected: TypeExpr

    def target(self) -> str:
        return f"{self.remote}/{self.expose}#{self.export}"


def parse_type_node(node: object, path: str = "") -> TypeExpr:
    """Convert one JSON type node into a TypeExpr, validating structure.

    An error's location is `path` followed by the failing node's own path
    below this one (".element", ".{field}", ".params[i]", ".returns", ...),
    formatted only on failure. A node nested deeper than MAX_TYPE_DEPTH is
    E-TYPE-TOO-DEEP; its path below `path` keeps its first MAX_DEEP_PATH
    characters, the outermost levels, followed by "...".
    """
    try:
        return _type_node(node, 1)
    except ToolError as exc:
        where = exc.path
        if exc.code == "E-TYPE-TOO-DEEP" and len(where) > MAX_DEEP_PATH:
            where = where[:MAX_DEEP_PATH] + "..."
        raise ToolError(exc.code, exc.message, path + where) from exc


def _child(node: object, depth: int, segment: str, *key) -> TypeExpr:
    """Parse a node one level below `depth`; a failure's path gains `segment.format(*key)`."""
    try:
        return _type_node(node, depth + 1)
    except ToolError as exc:
        raise ToolError(exc.code, exc.message, segment.format(*key) + exc.path) from exc


def _type_node(node: object, depth: int) -> TypeExpr:
    """parse_type_node for a node at nesting level `depth`; errors carry paths relative to it."""
    if depth > MAX_TYPE_DEPTH:
        raise ToolError("E-TYPE-TOO-DEEP", f"type nested deeper than {MAX_TYPE_DEPTH} levels")
    if not isinstance(node, dict):
        raise ToolError("E-SYNTAX", "type node must be an object")
    kind = node.get("kind")
    if kind in PRIMITIVES:
        return PrimitiveType(kind)
    if kind == "unknown":
        return UnknownType()
    if kind == "array":
        return ArrayType(_child(node.get("element"), depth, ".element"))
    if kind == "record":
        fields = node.get("fields")
        if not isinstance(fields, dict):
            raise ToolError("E-SYNTAX", '"fields" must be an object')
        parsed = []
        for name, spec in fields.items():
            if not isinstance(spec, dict) or "type" not in spec:
                raise ToolError("E-SYNTAX", 'record field needs a "type" node', f".{name}")
            optional = spec.get("optional", False)
            if not isinstance(optional, bool):
                raise ToolError("E-SYNTAX", '"optional" must be a boolean', f".{name}")
            parsed.append(RecordField(name, _child(spec["type"], depth, ".{}", name), optional))
        return RecordType(tuple(parsed))
    if kind == "function":
        params = node.get("params", [])
        if not isinstance(params, list):
            raise ToolError("E-SYNTAX", '"params" must be an array')
        parsed_params = tuple(_child(p, depth, ".params[{}]", i) for i, p in enumerate(params))
        if "returns" not in node:
            raise ToolError("E-SYNTAX", 'function type needs "returns"')
        return FunctionType(parsed_params, _child(node["returns"], depth, ".returns"))
    if kind == "ref":
        raise ToolError("E-RECURSIVE-TYPE", "named type references are not supported")
    raise ToolError("E-SYNTAX", f"unknown type kind {quote(kind)}")


def serialize_type_node(t: TypeExpr) -> dict:
    if isinstance(t, PrimitiveType):
        return {"kind": t.name}
    if isinstance(t, UnknownType):
        return {"kind": "unknown"}
    if isinstance(t, ArrayType):
        return {"kind": "array", "element": serialize_type_node(t.element)}
    if isinstance(t, RecordType):
        return {
            "kind": "record",
            "fields": {
                f.name: {"type": serialize_type_node(f.type), "optional": f.optional}
                for f in t.fields
            },
        }
    return {
        "kind": "function",
        "params": [serialize_type_node(p) for p in t.params],
        "returns": serialize_type_node(t.returns),
    }


def parse_interface(text: str) -> InterfaceDecl:
    doc = parse_json(text, "E-SYNTAX")
    if not isinstance(doc, dict) or not isinstance(doc.get("exports"), dict):
        raise ToolError("E-SYNTAX", 'interface document needs an "exports" object')
    exports = tuple(
        (name, parse_type_node(node, f".exports.{name}"))
        for name, node in doc["exports"].items()
    )
    return InterfaceDecl(exports)


def serialize_interface(decl: InterfaceDecl) -> str:
    doc = {"exports": {name: serialize_type_node(t) for name, t in decl.exports}}
    return json.dumps(doc, indent=2) + "\n"


def describe_type(t: TypeExpr) -> str:
    if isinstance(t, PrimitiveType):
        return t.name
    if isinstance(t, UnknownType):
        return "unknown"
    if isinstance(t, ArrayType):
        return f"array<{describe_type(t.element)}>"
    if isinstance(t, RecordType):
        return "record{" + ", ".join(f.name for f in t.fields) + "}"
    return f"function/{len(t.params)}"


def subtype_failure(actual: TypeExpr, expected: TypeExpr, path: str = "") -> str | None:
    """Path of the first sub-term where `actual` fails to be usable as `expected`.

    Returns None when actual <: expected. Records use width subtyping (extra
    actual fields are fine); functions may take fewer parameters than expected,
    with contravariant parameters and a covariant return.

    Required expected fields demand required actual fields; optional expected
    fields impose no constraint. Checking declared-but-optional shapes deeply
    would make the relation non-transitive (a middle record that omits the
    field forgets the mismatch) and would break record-width monotonicity, so
    optionals are admission-only.
    """
    if isinstance(expected, UnknownType):
        return None
    if isinstance(expected, PrimitiveType):
        if isinstance(actual, PrimitiveType) and actual.name == expected.name:
            return None
        return path
    if isinstance(expected, ArrayType):
        if not isinstance(actual, ArrayType):
            return path
        return subtype_failure(actual.element, expected.element, path + "[]")
    if isinstance(expected, RecordType):
        if not isinstance(actual, RecordType):
            return path
        for want in expected.fields:
            if want.optional:
                continue
            have = actual.field(want.name)
            if have is None or have.optional:
                return f"{path}.{want.name}"
            fail = subtype_failure(have.type, want.type, f"{path}.{want.name}")
            if fail is not None:
                return fail
        return None
    # FunctionType
    if not isinstance(actual, FunctionType):
        return path
    if len(actual.params) > len(expected.params):
        return path + ".params"
    for i, actual_param in enumerate(actual.params):
        fail = subtype_failure(expected.params[i], actual_param, f"{path}.params[{i}]")
        if fail is not None:
            return fail
    return subtype_failure(actual.returns, expected.returns, path + ".returns")


def is_subtype(actual: TypeExpr, expected: TypeExpr) -> bool:
    return subtype_failure(actual, expected) is None


def collect_expectations(w: "Workspace") -> list[Expectation]:
    """Gather every "expects" declaration in the workspace; each names its consumer."""
    return [exp for app in w.applications() for exp in app.expects]


def _load_declared_interface(
    app, module, cache: dict, bag: DiagnosticBag, path: str
) -> InterfaceDecl | None:
    file_path = module.interface
    if app.base_dir:
        file_path = os.path.join(app.base_dir, module.interface)
    if file_path in cache:
        return cache[file_path]
    decl = None
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            decl = parse_interface(fh.read())
    except OSError as exc:
        bag.error("E-IO", path, f"cannot read interface file {file_path}: {exc}")
    except UnicodeDecodeError as exc:
        bag.error("E-SYNTAX", path, f"{file_path}: not valid UTF-8: {exc}")
    except ToolError as exc:
        bag.error(exc.code, path, f"{file_path}: {exc.message}")
    cache[file_path] = decl
    return decl


def check_compatibility(
    w: "Workspace",
    expectations: list[Expectation],
    strict_types: bool = False,
) -> list[Diagnostic]:
    """Check every expectation against the provider's declared interface.

    E-NO-INTERFACE is a warning unless strict_types is set: federations adopt
    interface declarations incrementally.
    """
    bag = DiagnosticBag()
    cache: dict[str, InterfaceDecl | None] = {}
    for exp in expectations:
        where = exp.target()
        provider = w.resolve_alias(exp.consumer, exp.remote)
        if provider is None:
            bag.error("E-DANGLING-REMOTE", where, f"{exp.consumer} declares no remote {exp.remote!r}")
            continue
        module_id = provider.expose_target(exp.expose)
        if module_id is None:
            bag.error("E-DANGLING-REMOTE", where, f"{provider.name} exposes no {exp.expose!r}")
            continue
        module = provider.module(module_id)
        if module is None or module.interface is None:
            severity = ERROR if strict_types else WARNING
            bag.items.append(
                Diagnostic(
                    "E-NO-INTERFACE",
                    severity,
                    where,
                    f"{provider.name}:{module_id} declares no interface",
                )
            )
            continue
        decl = _load_declared_interface(provider, module, cache, bag, where)
        if decl is None:
            continue
        actual = decl.export(exp.export)
        if actual is None:
            bag.error("E-MISSING-EXPORT", where, f"{provider.name}:{module_id} has no export {exp.export!r}")
            continue
        fail = subtype_failure(actual, exp.expected)
        if fail is not None:
            bag.error(
                "E-TYPE-MISMATCH",
                fail,
                f"{where}: declared {describe_type(actual)} is not usable as "
                f"{describe_type(exp.expected)} (first failure at {fail or '<root>'!r})",
            )
    return bag.items
