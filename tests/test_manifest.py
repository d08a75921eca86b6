from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedplan import manifest as manifest_module
from fedplan.diagnostics import DiagnosticBag, ToolError
from fedplan.manifest import (
    Interned,
    LocalImport,
    ModuleDecl,
    RemoteImport,
    SharedImport,
    SharedSpec,
    load_workspace,
    parse_import_ref,
    parse_manifest,
    serialize_manifest,
    validate_manifest,
)

from conftest import FIXTURES, app, module

MINIMAL = '{"name":"r","version":"1.0.0","modules":[],"exposes":[],"remotes":[],"shared":[]}'


def test_parse_minimal_manifest():
    m, warnings = parse_manifest(MINIMAL)
    assert m.name == "r"
    assert str(m.version) == "1.0.0"
    assert m.modules == () and m.exposes == () and m.remotes == () and m.shared == ()
    assert warnings == []


def test_missing_name_names_the_path():
    with pytest.raises(ToolError) as err:
        parse_manifest('{"version":"1.0.0"}')
    assert err.value.code == "E-MISSING-FIELD"
    assert err.value.path == ".name"


def test_unknown_field_warns_and_round_trips():
    text = '{"name":"r","version":"1.0.0","xyzzy":1}'
    m, warnings = parse_manifest(text)
    assert [w.code for w in warnings] == ["W-UNKNOWN-FIELD"]
    assert "xyzzy" in warnings[0].message
    # Round-trip oracle: canonical serialization is a parse fixed point.
    canonical = serialize_manifest(m)
    m2, w2 = parse_manifest(canonical)
    assert m2 == m and w2 == []
    assert serialize_manifest(m2) == canonical


def test_bad_version_delegated():
    with pytest.raises(ToolError) as err:
        parse_manifest('{"name":"r","version":"1.0.0-rc.1"}')
    assert err.value.code == "E-BAD-VERSION"
    assert err.value.path == ".version"


def test_duplicate_json_keys_rejected():
    with pytest.raises(ToolError) as err:
        parse_manifest('{"name":"r","name":"s","version":"1.0.0"}')
    assert err.value.code == "E-SYNTAX"


def test_json_nested_past_the_recursion_limit_is_syntax_error():
    nested = "[" * 3000 + "]" * 3000
    text = '{"name":"r","version":"1.0.0","expects":[{"target":"remote/./X#X","interface":%s}]}' % nested
    with pytest.raises(ToolError) as err:
        parse_manifest(text)
    assert err.value.code == "E-SYNTAX"


def test_expected_type_nested_300_levels_is_too_deep():
    # Well within the JSON parser's limit; validate used to accept it.
    chain = '{"kind":"array","element":' * 299 + '{"kind":"string"}' + "}" * 299
    text = '{"name":"r","version":"1.0.0","expects":[{"target":"remote/./X#X","interface":%s}]}' % chain
    with pytest.raises(ToolError) as err:
        parse_manifest(text)
    assert err.value.code == "E-TYPE-TOO-DEEP"
    assert err.value.path.startswith(".expects[0].interface.element")
    # The path has one ".element" per level; the location stays short.
    assert len(err.value.path) <= 256


def test_import_ref_encoding():
    assert parse_import_ref("./Header") == LocalImport("./Header")
    assert parse_import_ref("remote/./Header") == RemoteImport("remote", "./Header")
    assert parse_import_ref("react") == SharedImport("react")


@pytest.mark.parametrize(
    "fixture",
    ["fig1/host", "fig1/remote", "fig1_shared/host", "fallback/remote", "bidirectional/host"],
)
def test_fixture_round_trip_fixed_point(fixture):
    text = (FIXTURES / fixture / "federation.json").read_text()
    m, _ = parse_manifest(text)
    canonical = serialize_manifest(m)
    m2, _ = parse_manifest(canonical)
    assert m2 == m
    assert serialize_manifest(m2) == canonical


def test_validate_dangling_expose():
    m, _ = parse_manifest(
        '{"name":"r","version":"1.0.0","modules":[],"exposes":[{"id":"./Ghost","module":"./Ghost"}]}'
    )
    diags = validate_manifest(m)
    assert [d.code for d in diags] == ["E-DANGLING-EXPOSE"]
    assert diags[0].severity == "error"


def test_validate_self_range_warning():
    m, _ = parse_manifest(
        json.dumps(
            {
                "name": "r",
                "version": "1.0.0",
                "shared": [
                    {
                        "package": "react",
                        "requiredRange": "^18.0.0",
                        "providedVersion": "16.0.0",
                        "singleton": True,
                        "eager": False,
                        "strictVersion": False,
                        "sizeBytes": 1,
                    }
                ],
            }
        )
    )
    diags = validate_manifest(m)
    assert [d.code for d in diags] == ["W-SELF-RANGE"]
    assert diags[0].severity == "warning"


def test_validate_consistent_manifest_is_clean():
    text = (FIXTURES / "fig1" / "remote" / "federation.json").read_text()
    m, _ = parse_manifest(text)
    assert validate_manifest(m) == []


def test_validate_duplicate_and_dangling_details():
    m, _ = parse_manifest(
        json.dumps(
            {
                "name": "r",
                "version": "1.0.0",
                "modules": [
                    {"id": "./A", "sizeBytes": -5, "staticImports": ["./B"], "dynamicImports": ["./B"]},
                    {"id": "./A", "sizeBytes": 0, "staticImports": [], "dynamicImports": []},
                ],
                "remotes": [{"name": "r", "manifest": "x.json"}],
            }
        )
    )
    codes = {d.code for d in validate_manifest(m)}
    assert codes == {
        "E-DUP-MODULE",
        "E-NEGATIVE-SIZE",
        "E-DUP-IMPORT",
        "E-SELF-REMOTE",
        "E-DANGLING-LOCAL",
    }


def test_validate_undeclared_remote_and_shared_imports():
    m, _ = parse_manifest(
        json.dumps(
            {
                "name": "r",
                "version": "1.0.0",
                "modules": [
                    {
                        "id": "./A",
                        "sizeBytes": 1,
                        "staticImports": ["ghost/./X", "react"],
                        "dynamicImports": [],
                    }
                ],
            }
        )
    )
    codes = sorted(d.code for d in validate_manifest(m))
    assert codes == ["E-UNDECLARED-REMOTE", "E-UNDECLARED-SHARED"]


def test_load_workspace_fig1(fig1_host_path):
    w, diags = load_workspace(fig1_host_path)
    assert w.host.name == "host"
    assert sorted(w.remotes) == ["remote"]
    assert len(w.applications()) == 2
    assert diags == []
    assert w.resolve_alias("host", "remote").name == "remote"


def test_load_workspace_self_reference_cycle():
    with pytest.raises(ToolError) as err:
        load_workspace(str(FIXTURES / "cycle_self" / "host" / "federation.json"))
    assert err.value.code == "E-REMOTE-CYCLE"
    assert "host" in err.value.message


def test_load_workspace_duplicate_app_names():
    with pytest.raises(ToolError) as err:
        load_workspace(str(FIXTURES / "dup_app" / "host" / "federation.json"))
    assert err.value.code == "E-DUP-APP"
    assert "shop" in err.value.message


def test_load_workspace_bidirectional_warns_not_errors():
    w, diags = load_workspace(str(FIXTURES / "bidirectional" / "host" / "federation.json"))
    assert [d.code for d in diags] == ["W-BIDIRECTIONAL"]
    assert diags[0].severity == "warning"
    assert w.resolve_alias("remote", "host") is w.host


def test_load_workspace_remote_cycle_between_remotes(tmp_path: Path):
    def write(name: str, doc: dict) -> Path:
        directory = tmp_path / name
        directory.mkdir()
        path = directory / "federation.json"
        path.write_text(json.dumps(doc))
        return path

    host = write(
        "host",
        {
            "name": "host",
            "version": "1.0.0",
            "entry": "entry",
            "modules": [{"id": "entry", "sizeBytes": 1, "staticImports": [], "dynamicImports": []}],
            "remotes": [{"name": "a", "manifest": "../a/federation.json"}],
        },
    )
    write(
        "a",
        {
            "name": "a",
            "version": "1.0.0",
            "modules": [],
            "remotes": [{"name": "b", "manifest": "../b/federation.json"}],
        },
    )
    write(
        "b",
        {
            "name": "b",
            "version": "1.0.0",
            "modules": [],
            "remotes": [{"name": "a", "manifest": "../a/federation.json"}],
        },
    )
    with pytest.raises(ToolError) as err:
        load_workspace(str(host))
    assert err.value.code == "E-REMOTE-CYCLE"
    assert "a -> b -> a" in err.value.message


def test_load_workspace_loads_each_manifest_once(tmp_path: Path):
    # Diamond: host -> a -> c, host -> b -> c; c loads once.
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "federation.json").write_text(
        '{"name":"c","version":"1.0.0","modules":[]}'
    )
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "federation.json").write_text(
            json.dumps(
                {
                    "name": name,
                    "version": "1.0.0",
                    "modules": [],
                    "remotes": [{"name": "c", "manifest": "../c/federation.json"}],
                }
            )
        )
    (tmp_path / "host").mkdir()
    host = tmp_path / "host" / "federation.json"
    host.write_text(
        json.dumps(
            {
                "name": "host",
                "version": "1.0.0",
                "entry": "entry",
                "modules": [{"id": "entry", "sizeBytes": 1, "staticImports": [], "dynamicImports": []}],
                "remotes": [
                    {"name": "a", "manifest": "../a/federation.json"},
                    {"name": "b", "manifest": "../b/federation.json"},
                ],
            }
        )
    )
    w, diags = load_workspace(str(host))
    assert sorted(w.remotes) == ["a", "b", "c"]
    assert w.resolve_alias("a", "c") is w.resolve_alias("b", "c")
    assert diags == []


def test_load_workspace_missing_file_is_io_error(tmp_path: Path):
    with pytest.raises(ToolError) as err:
        load_workspace(str(tmp_path / "nope" / "federation.json"))
    assert err.value.code == "E-IO"


# Pinned decoder errors: one malformed manifest per row, with the exact
# (code, message, path) that parse_manifest raises for it.


def _doc(**top) -> str:
    return json.dumps({"name": "r", "version": "1.0.0", **top})


_MODULE = {"id": "./A", "sizeBytes": 1, "staticImports": [], "dynamicImports": []}
_SHARED = {"package": "react", "requiredRange": "^18.0.0"}
_EXPECT = {"target": "remote/./X#X", "interface": {"kind": "string"}}


def _module(**fields) -> str:
    return _doc(modules=[{**_MODULE, **fields}])


def _shared(**fields) -> str:
    return _doc(shared=[{**_SHARED, **fields}])


def _expect(**fields) -> str:
    return _doc(expects=[{**_EXPECT, **fields}])


def _type(node) -> str:
    return _expect(interface=node)


_STRING = "expected a non-empty string"
_TARGET = 'target must look like "remote/expose#export", got '

PINNED_ERRORS = [
    ("document", "[]", "E-SYNTAX", "manifest must be a JSON object", ""),
    ("module-entry", _doc(modules=[1]), "E-SYNTAX", "module entry must be an object", ".modules[0]"),
    ("expose-entry", _doc(exposes=["x"]), "E-SYNTAX", "expose entry must be an object", ".exposes[0]"),
    ("remote-entry", _doc(remotes=[None]), "E-SYNTAX", "remote entry must be an object", ".remotes[0]"),
    ("shared-entry", _doc(shared=[[]]), "E-SYNTAX", "shared entry must be an object", ".shared[0]"),
    ("expects-entry", _doc(expects=[True]), "E-SYNTAX", "expects entry must be an object", ".expects[0]"),
    ("missing-version", '{"name": "r"}', "E-MISSING-FIELD", "required field missing", ".version"),
    ("missing-module-id", _doc(modules=[{"sizeBytes": 1}]), "E-MISSING-FIELD", "required field missing",
     ".modules[0].id"),
    ("missing-expose-module", _doc(exposes=[{"id": "./A"}]), "E-MISSING-FIELD", "required field missing",
     ".exposes[0].module"),
    ("missing-remote-manifest", _doc(remotes=[{"name": "x"}]), "E-MISSING-FIELD", "required field missing",
     ".remotes[0].manifest"),
    ("missing-shared-range", _doc(shared=[{"package": "react"}]), "E-MISSING-FIELD", "required field missing",
     ".shared[0].requiredRange"),
    ("missing-expects-interface", _doc(expects=[{"target": "remote/./X#X"}]), "E-MISSING-FIELD",
     "required field missing", ".expects[0].interface"),
    ("string-number", '{"name": 5, "version": "1.0.0"}', "E-SYNTAX", _STRING, ".name"),
    ("string-null", '{"name": null, "version": "1.0.0"}', "E-SYNTAX", _STRING, ".name"),
    ("string-empty", _module(id=""), "E-SYNTAX", _STRING, ".modules[0].id"),
    ("integer-string", _module(sizeBytes="1"), "E-SYNTAX", "expected an integer", ".modules[0].sizeBytes"),
    ("integer-float", _module(sizeBytes=1.0), "E-SYNTAX", "expected an integer", ".modules[0].sizeBytes"),
    ("integer-null", _module(sizeBytes=None), "E-SYNTAX", "expected an integer", ".modules[0].sizeBytes"),
    ("integer-boolean", _shared(sizeBytes=True), "E-SYNTAX", "expected an integer", ".shared[0].sizeBytes"),
    ("boolean", _shared(singleton=1), "E-SYNTAX", "expected a boolean", ".shared[0].singleton"),
    ("boolean-null", _shared(strictVersion=None), "E-SYNTAX", "expected a boolean", ".shared[0].strictVersion"),
    ("array", _doc(modules={}), "E-SYNTAX", "expected an array", ".modules"),
    ("array-null", _doc(exposes=None), "E-SYNTAX", "expected an array", ".exposes"),
    ("array-imports", _module(dynamicImports="./B"), "E-SYNTAX", "expected an array",
     ".modules[0].dynamicImports"),
    ("ref-element", _module(staticImports=["./B", 3]), "E-SYNTAX", _STRING, ".modules[0].staticImports[1]"),
    ("ref-empty", _module(dynamicImports=[""]), "E-SYNTAX", _STRING, ".modules[0].dynamicImports[0]"),
    ("nul-remote-manifest", _doc(remotes=[{"name": "x", "manifest": "a\0b"}]), "E-SYNTAX",
     "a path must not contain a NUL character", ".remotes[0].manifest"),
    ("nul-interface", _module(interface="a\0b"), "E-SYNTAX", "a path must not contain a NUL character",
     ".modules[0].interface"),
    ("interface-number", _module(interface=7), "E-SYNTAX", _STRING, ".modules[0].interface"),
    ("size-above-2**53", _module(sizeBytes=2**53 + 1), "E-SYNTAX", "sizeBytes must be at most 2**53",
     ".modules[0].sizeBytes"),
    ("shared-size-above-2**53", _shared(sizeBytes=2**64), "E-SYNTAX", "sizeBytes must be at most 2**53",
     ".shared[0].sizeBytes"),
    ("version", '{"name": "r", "version": "1.0"}', "E-BAD-VERSION",
     "expected MAJOR.MINOR.PATCH with decimal components, got '1.0'", ".version"),
    ("version-number", '{"name": "r", "version": 1}', "E-SYNTAX", _STRING, ".version"),
    ("provided-version", _shared(providedVersion="x"), "E-BAD-VERSION",
     "expected MAJOR.MINOR.PATCH with decimal components, got 'x'", ".shared[0].providedVersion"),
    ("provided-version-number", _shared(providedVersion=18), "E-SYNTAX", _STRING, ".shared[0].providedVersion"),
    ("range", _shared(requiredRange="^1"), "E-BAD-RANGE", "unsupported range token '^1'",
     ".shared[0].requiredRange"),
    ("range-empty-disjunct", _shared(requiredRange="1.0.0 ||"), "E-BAD-RANGE",
     "empty disjunct in range '1.0.0 ||'", ".shared[0].requiredRange"),
    ("target-no-hash", _expect(target="remote/./X"), "E-SYNTAX", _TARGET + "'remote/./X'", ".expects[0].target"),
    ("target-no-slash", _expect(target="remote#X"), "E-SYNTAX", _TARGET + "'remote#X'", ".expects[0].target"),
    ("target-no-export", _expect(target="remote/./X#"), "E-SYNTAX", _TARGET + "'remote/./X#'",
     ".expects[0].target"),
    ("target-number", _expect(target=1), "E-SYNTAX", _STRING, ".expects[0].target"),
    ("type-not-object", _type(1), "E-SYNTAX", "type node must be an object", ".expects[0].interface"),
    ("type-unknown-kind", _type({"kind": "tuple"}), "E-SYNTAX", "unknown type kind 'tuple'",
     ".expects[0].interface"),
    ("type-no-kind", _type({}), "E-SYNTAX", "unknown type kind None", ".expects[0].interface"),
    ("type-fields", _type({"kind": "record", "fields": []}), "E-SYNTAX", '"fields" must be an object',
     ".expects[0].interface"),
    ("type-field-spec", _type({"kind": "record", "fields": {"f": {"optional": True}}}), "E-SYNTAX",
     'record field needs a "type" node', ".expects[0].interface.f"),
    ("type-field-optional", _type({"kind": "record", "fields": {"f": {"type": {"kind": "string"}, "optional": 1}}}),
     "E-SYNTAX", '"optional" must be a boolean', ".expects[0].interface.f"),
    ("type-params", _type({"kind": "function", "params": {}, "returns": {"kind": "string"}}), "E-SYNTAX",
     '"params" must be an array', ".expects[0].interface"),
    ("type-returns", _type({"kind": "function", "params": []}), "E-SYNTAX", 'function type needs "returns"',
     ".expects[0].interface"),
    ("type-element", _type({"kind": "array", "element": {"kind": "array"}}), "E-SYNTAX",
     "type node must be an object", ".expects[0].interface.element.element"),
    ("type-param", _type({"kind": "function", "params": [{"kind": "string"}, 2], "returns": {"kind": "string"}}),
     "E-SYNTAX", "type node must be an object", ".expects[0].interface.params[1]"),
    ("type-returns-field", _type({"kind": "function", "returns": {"kind": "record", "fields": {"g": {"type": {}}}}}),
     "E-SYNTAX", "unknown type kind None", ".expects[0].interface.returns.g"),
    ("type-ref", _type({"kind": "array", "element": {"kind": "ref"}}), "E-RECURSIVE-TYPE",
     "named type references are not supported", ".expects[0].interface.element"),
]


@pytest.mark.parametrize("text,code,message,path", [row[1:] for row in PINNED_ERRORS],
                         ids=[row[0] for row in PINNED_ERRORS])
def test_pinned_decoder_errors(text, code, message, path):
    with pytest.raises(ToolError) as err:
        parse_manifest(text)
    assert (err.value.code, err.value.message, err.value.path) == (code, message, path)


def test_unknown_field_warning_paths_in_document_order():
    text = json.dumps(
        {
            "name": "r",
            "zz": 0,
            "version": "1.0.0",
            "modules": [_MODULE, {**_MODULE, "id": "./B", "extra": 1}],
            "exposes": [{"id": "./A", "module": "./A", "e": 1}],
            "remotes": [{"name": "x", "manifest": "m.json", "r": 1}],
            "shared": [{**_SHARED, "s": 1, "t": 2}],
            "expects": [{**_EXPECT, "x": 1}],
        }
    )
    _, warnings = parse_manifest(text)
    assert [(w.code, w.severity, w.path, w.message) for w in warnings] == [
        ("W-UNKNOWN-FIELD", "warning", ".zz", "unknown field 'zz' ignored"),
        ("W-UNKNOWN-FIELD", "warning", ".modules[1].extra", "unknown field 'extra' ignored"),
        ("W-UNKNOWN-FIELD", "warning", ".exposes[0].e", "unknown field 'e' ignored"),
        ("W-UNKNOWN-FIELD", "warning", ".remotes[0].r", "unknown field 'r' ignored"),
        ("W-UNKNOWN-FIELD", "warning", ".shared[0].s", "unknown field 's' ignored"),
        ("W-UNKNOWN-FIELD", "warning", ".shared[0].t", "unknown field 't' ignored"),
        ("W-UNKNOWN-FIELD", "warning", ".expects[0].x", "unknown field 'x' ignored"),
    ]


def test_explicit_null_is_absent_only_for_optional_fields():
    m, warnings = parse_manifest(
        _doc(entry=None, modules=[{**_MODULE, "interface": None}], shared=[{**_SHARED, "providedVersion": None}])
    )
    assert (m.entry, m.modules[0].interface, m.shared[0].provided_version) == (None, None, None)
    assert warnings == []


def test_pinned_validate_diagnostics():
    m, _ = parse_manifest(
        _doc(
            entry="./Ghost",
            modules=[_MODULE],
            exposes=[{"id": "./A", "module": "./A"}, {"id": "./A", "module": "./A"}],
            remotes=[{"name": "x", "manifest": "a.json"}, {"name": "x", "manifest": "b.json"}],
            shared=[{**_SHARED, "sizeBytes": -1}],
        )
    )
    assert [(d.code, d.severity, d.path, d.message) for d in validate_manifest(m)] == [
        ("E-DUP-EXPOSE", "error", ".exposes[1].id", "expose './A' declared twice"),
        ("E-DANGLING-ENTRY", "error", ".entry", "entry './Ghost' is not a declared module"),
        ("E-DUP-REMOTE", "error", ".remotes[1].name", "remote 'x' declared twice"),
        ("E-NEGATIVE-SIZE", "error", ".shared[0].sizeBytes", "sizeBytes must be >= 0"),
    ]


def test_host_without_entry_is_missing_field(tmp_path: Path):
    host = tmp_path / "federation.json"
    host.write_text(_doc(modules=[_MODULE]))
    with pytest.raises(ToolError) as err:
        load_workspace(str(host))
    assert (err.value.code, err.value.message, err.value.path) == (
        "E-MISSING-FIELD",
        "host manifest must declare an entry module",
        ".entry",
    )


def test_long_target_is_quoted_by_a_bounded_prefix():
    # Quoted whole, a 5,000-character target made a 5,052-character message.
    target = "remote/" + "x" * 4993
    with pytest.raises(ToolError) as err:
        parse_manifest(_expect(target=target))
    assert (err.value.message, err.value.path) == (
        f"{_TARGET}{target[:64]!r}... (5000 characters)",
        ".expects[0].target",
    )
    assert len(err.value.message) == 137


def test_long_unknown_field_is_quoted_by_a_bounded_prefix():
    key = "k" * 5000
    _, warnings = parse_manifest(_doc(modules=[{**_MODULE, key: 1}]))
    assert [(w.code, w.message) for w in warnings] == [
        ("W-UNKNOWN-FIELD", f"unknown field {'k' * 64!r}... (5000 characters) ignored")
    ]
    assert len(warnings[0].message) == 109


def _lookups(m) -> tuple:
    return (
        m.module("./A"),
        m.module("./Ghost"),
        m.expose_target("./X"),
        m.expose_target("./Ghost"),
    )


def test_module_and_expose_indexes_first_declaration_wins():
    m, _ = parse_manifest(
        _doc(
            modules=[{**_MODULE, "sizeBytes": 1}, {**_MODULE, "id": "./B"}, {**_MODULE, "sizeBytes": 2}],
            exposes=[{"id": "./X", "module": "./B"}, {"id": "./X", "module": "./A"}],
        )
    )
    assert _lookups(m) == (m.modules[0], None, "./B", None)
    assert m.module("./A") is m.modules[0]
    assert [d.code for d in validate_manifest(m)] == ["E-DUP-MODULE", "E-DUP-EXPOSE"]

    built = app("r", modules=(module("./A", 1), module("./B"), module("./A", 2)),
                exposes=(("./X", "./B"), ("./X", "./A")))
    assert _lookups(built) == (built.modules[0], None, "./B", None)
    assert validate_manifest(built) == validate_manifest(m)

    # A copy with other modules or exposes indexes its own.
    swapped = replace(built, modules=built.modules[::-1], exposes=built.exposes[::-1])
    assert _lookups(swapped) == (swapped.modules[0], None, "./A", None)
    assert swapped.module("./A").size_bytes == 2


def test_loaded_manifests_carry_the_index_of_their_decoding_pass(fig1_host_path):
    w, _ = load_workspace(fig1_host_path)
    for application in w.applications():
        assert "_index" in vars(application)  # set while decoding, not built on first use
        assert application.base_dir and application.module(application.modules[0].id) is application.modules[0]


def test_modules_share_interned_refs():
    m, _ = parse_manifest(
        _doc(modules=[{**_MODULE, "staticImports": ["react"]}, {**_MODULE, "id": "./B", "dynamicImports": ["react"]}])
    )
    assert m.modules[0].static_imports[0] is m.modules[1].dynamic_imports[0]


# Inline decoding against the table walk: module and shared entries, valid or
# with one field broken, decoded as one manifest must give the records,
# warnings and first error that walking each entry's table alone gives. Module
# entries take the inline path when they pass its checks.

_REFS = ["./A", "./B", "r/./X", "react", "lodash"]
# field -> (valid values, broken values)
_MODULE_FIELDS = {
    "id": (st.sampled_from(["./A", "./B", "./C"]), [None, "", 1, ["./A"]]),
    "sizeBytes": (st.integers(-2, 2**53), [None, True, 1.0, "1", 2**53 + 1]),
    "staticImports": (st.lists(st.sampled_from(_REFS), max_size=3), [None, "./A", {}, [3], [""], ["./A", None], [[]]]),
    "dynamicImports": (st.lists(st.sampled_from(_REFS), max_size=3), [None, "./A", {}, [True], ["r/./X", ""]]),
    "interface": (st.sampled_from([None, "a.json"]), ["", "a\0b", 7, False, []]),
}
_SHARED_FIELDS = {
    "package": (st.sampled_from(["react", "lodash"]), [None, "", 1]),
    "requiredRange": (st.sampled_from(["^18.0.0", ">=1.0.0 <2.0.0", "1.2.3"]), [None, "", "^1", "1.0.0 ||", 18]),
    "providedVersion": (st.sampled_from([None, "18.2.0", "1.0.0"]), ["", "x", "1.0", 18, "9" * 20 + ".0.0"]),
    "singleton": (st.booleans(), [None, 0, 1, "true"]),
    "eager": (st.booleans(), [None, 1]),
    "strictVersion": (st.booleans(), [None, 0]),
    "sizeBytes": (st.integers(-2, 2**53), [None, True, 1.0, 2**53 + 1]),
}


_REQUIRED = ("id", "package", "requiredRange")


def _entries(fields: dict):
    @st.composite
    def entry(draw):
        # Required fields are always there, optional ones sometimes.
        obj = {key: draw(valid) for key, (valid, _) in fields.items() if key in _REQUIRED or draw(st.booleans())}
        if draw(st.booleans()):  # one field broken, or not an object, or an unknown key
            key = draw(st.sampled_from([*fields, "extra", None]))
            if key is None:
                return draw(st.sampled_from([None, 1, "x", []]))
            obj[key] = draw(st.sampled_from(fields[key][1] if key in fields else [0, None, "x"]))
        return obj

    return st.lists(entry(), max_size=4)


def _decoded(text: str):
    try:
        m, warnings = parse_manifest(text)
    except ToolError as exc:
        return (exc.code, exc.message, exc.path)
    return m.modules, m.shared, warnings


def _walked(doc: dict):
    index = manifest_module._Index({}, {}, DiagnosticBag())
    walk, decoding = manifest_module._walk, manifest_module._Decoding(Interned(), DiagnosticBag(), index)
    try:
        modules = tuple(
            ModuleDecl(*walk(obj, manifest_module._MODULE, f".modules[{i}]", decoding))
            for i, obj in enumerate(doc["modules"])
        )
        shared = tuple(
            SharedSpec(*walk(obj, manifest_module._SHARED, f".shared[{i}]", decoding))
            for i, obj in enumerate(doc["shared"])
        )
    except ToolError as exc:
        return (exc.code, exc.message, exc.path)
    return modules, shared, decoding.bag.items


@settings(max_examples=300, deadline=None)
@given(_entries(_MODULE_FIELDS), _entries(_SHARED_FIELDS))
def test_inline_decoding_matches_the_table_walk(modules, shared):
    doc = {"name": "r", "version": "1.0.0", "modules": modules, "shared": shared}
    assert _decoded(json.dumps(doc)) == _walked(doc)


@pytest.mark.parametrize("kind,fields", [("modules", _MODULE_FIELDS), ("shared", _SHARED_FIELDS)])
def test_inline_decoding_matches_the_table_walk_field_by_field(kind, fields):
    valid = {"modules": {**_MODULE, "interface": "a.json"}, "shared": {**_SHARED, "providedVersion": "18.2.0"}}[kind]
    for key, (_, broken) in fields.items():
        for value in [*broken, "absent"]:
            entry = {k: v for k, v in valid.items() if k != key}
            if value != "absent":
                entry[key] = value
            doc = {"name": "r", "version": "1.0.0", "modules": [], "shared": [], kind: [valid, entry]}
            assert _decoded(json.dumps(doc)) == _walked(doc), (key, value)
