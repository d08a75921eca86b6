from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedplan.diagnostics import ToolError
from fedplan.interfaces import (
    MAX_TYPE_DEPTH,
    ArrayType,
    FunctionType,
    PrimitiveType,
    RecordField,
    RecordType,
    UnknownType,
    check_compatibility,
    collect_expectations,
    is_subtype,
    parse_interface,
    parse_type_node,
    serialize_interface,
    subtype_failure,
)
from fedplan.manifest import load_workspace

from conftest import FIXTURES
from oracles import oracle_subtype

STR = PrimitiveType("string")
NUM = PrimitiveType("number")
BOOL = PrimitiveType("boolean")


def record(**fields) -> RecordType:
    return RecordType(tuple(RecordField(k, t) for k, t in fields.items()))


HEADER_DOC = json.dumps(
    {
        "exports": {
            "Header": {
                "kind": "function",
                "params": [
                    {
                        "kind": "record",
                        "fields": {"title": {"type": {"kind": "string"}, "optional": False}},
                    }
                ],
                "returns": {"kind": "string"},
            }
        }
    }
)


def test_parse_interface_header():
    decl = parse_interface(HEADER_DOC)
    assert [name for name, _ in decl.exports] == ["Header"]
    header = decl.export("Header")
    assert isinstance(header, FunctionType)
    assert header.returns == STR
    # Round-trip oracle.
    again = parse_interface(serialize_interface(decl))
    assert again == decl


def test_parse_interface_empty():
    assert parse_interface('{"exports":{}}').exports == ()


def test_parse_interface_nested_past_the_recursion_limit_is_syntax_error():
    with pytest.raises(ToolError) as err:
        parse_interface('{"exports":{"X":%s}}' % ("[" * 3000 + "]" * 3000))
    assert err.value.code == "E-SYNTAX"


def test_parse_interface_duplicate_field_names():
    doc = '{"exports":{"X":{"kind":"record","fields":{"a":{"type":{"kind":"string"}},"a":{"type":{"kind":"number"}}}}}}'
    with pytest.raises(ToolError) as err:
        parse_interface(doc)
    assert err.value.code == "E-SYNTAX"


def test_parse_rejects_named_references():
    with pytest.raises(ToolError) as err:
        parse_type_node({"kind": "ref", "name": "Self"})
    assert err.value.code == "E-RECURSIVE-TYPE"


def _type_chain(levels: int) -> dict:
    """A type tree `levels` deep, nesting through arrays, records and functions."""
    node = {"kind": "number"}
    for i in range(levels - 1):
        node = (
            {"kind": "array", "element": node},
            {"kind": "record", "fields": {"f": {"type": node}}},
            {"kind": "function", "params": [node], "returns": {"kind": "string"}},
            {"kind": "function", "returns": node},
        )[i % 4]
    return node


def test_type_nesting_is_bounded():
    assert parse_type_node(_type_chain(MAX_TYPE_DEPTH)) is not None
    # 1100 levels used to overflow the recursion limit.
    for levels in (MAX_TYPE_DEPTH + 1, 1100):
        with pytest.raises(ToolError) as err:
            parse_type_node(_type_chain(levels), ".x")
        assert err.value.code == "E-TYPE-TOO-DEEP"
        assert err.value.path.startswith(".x.")
    # The location keeps the outermost 200 characters of a too-deep node's
    # path; a failure at the deepest accepted level keeps its whole path.
    node = {"kind": "tuple"}
    for _ in range(MAX_TYPE_DEPTH - 1):
        node = {"kind": "array", "element": node}
    with pytest.raises(ToolError) as err:
        parse_type_node(node, ".x")
    assert (err.value.code, err.value.path) == ("E-SYNTAX", ".x" + ".element" * (MAX_TYPE_DEPTH - 1))
    with pytest.raises(ToolError) as err:
        parse_type_node({"kind": "array", "element": node}, ".x")
    assert (err.value.code, err.value.path) == ("E-TYPE-TOO-DEEP", ".x" + (".element" * 26)[:200] + "...")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ToolError) as err:
        parse_type_node({"kind": "tuple"})
    assert err.value.code == "E-SYNTAX"


@pytest.mark.parametrize(
    "kind,message",
    [
        ("k" * 64, f"unknown type kind {'k' * 64!r}"),
        ("k" * 5000, f"unknown type kind {'k' * 64!r}... (5000 characters)"),
        ([0] * 3000, f"unknown type kind {repr([0] * 22)[:64]}... (9000 characters)"),
        (None, "unknown type kind None"),
    ],
    ids=["64-characters", "5000-characters", "list", "none"],
)
def test_unknown_kind_is_quoted_by_a_bounded_prefix(kind, message):
    # An unbounded repr() echoed 5,020 characters for a 5,000-character kind.
    with pytest.raises(ToolError) as err:
        parse_type_node({"kind": kind})
    assert err.value.message == message
    assert len(err.value.message) <= 110


def test_subtype_primitives_reflexive():
    assert is_subtype(STR, STR)
    assert not is_subtype(STR, NUM)


def test_everything_below_unknown():
    for t in (STR, NUM, record(a=STR), FunctionType((STR,), NUM), ArrayType(BOOL)):
        assert is_subtype(t, UnknownType())
    assert not is_subtype(UnknownType(), STR)


def test_record_width_subtyping():
    wide = record(a=STR, b=NUM)
    narrow = record(a=STR)
    assert is_subtype(wide, narrow)
    assert not is_subtype(narrow, wide)
    assert oracle_subtype(wide, narrow) and not oracle_subtype(narrow, wide)


def test_record_optional_fields():
    expected = RecordType((RecordField("a", STR), RecordField("b", NUM, optional=True)))
    assert is_subtype(record(a=STR), expected)
    assert is_subtype(record(a=STR, b=NUM), expected)
    # Optional expected fields are admission-only: deep-checking a declared
    # "b" here would break transitivity through records that omit "b".
    assert is_subtype(record(a=STR, b=STR), expected)
    # A required expectation is never met by an optional declaration.
    optional_actual = RecordType((RecordField("a", STR, optional=True),))
    assert not is_subtype(optional_actual, record(a=STR))


def test_function_parameter_contravariance():
    takes_narrow = FunctionType((record(a=STR),), STR)
    takes_wide = FunctionType((record(a=STR, b=NUM),), STR)
    assert is_subtype(takes_narrow, takes_wide)
    assert not is_subtype(takes_wide, takes_narrow)
    assert oracle_subtype(takes_narrow, takes_wide)


def test_function_arity_and_return_covariance():
    fewer = FunctionType((), record(a=STR, b=NUM))
    more = FunctionType((STR,), record(a=STR))
    assert is_subtype(fewer, more)  # fewer params, wider return record
    assert not is_subtype(more, fewer)


def test_array_covariance():
    assert is_subtype(ArrayType(record(a=STR, b=NUM)), ArrayType(record(a=STR)))
    assert not is_subtype(ArrayType(record(a=STR)), ArrayType(record(a=STR, b=NUM)))


def test_failure_paths():
    assert subtype_failure(FunctionType((STR,), STR), FunctionType((STR,), NUM)) == ".returns"
    assert subtype_failure(record(a=STR), record(a=STR, b=NUM)) == ".b"
    # The provider demands field "a" that callers of the expected shape omit.
    assert (
        subtype_failure(
            FunctionType((record(a=STR),), STR), FunctionType((record(),), STR)
        )
        == ".params[0].a"
    )
    assert subtype_failure(ArrayType(STR), ArrayType(NUM)) == "[]"


_type_st = st.deferred(
    lambda: st.one_of(
        st.sampled_from([STR, NUM, BOOL, UnknownType()]),
        st.builds(ArrayType, _type_st),
        st.builds(
            RecordType,
            st.lists(
                st.builds(
                    RecordField,
                    st.sampled_from(["a", "b", "c"]),
                    _type_st,
                    st.booleans(),
                ),
                max_size=3,
                unique_by=lambda f: f.name,
            ).map(tuple),
        ),
        st.builds(FunctionType, st.lists(_type_st, max_size=2).map(tuple), _type_st),
    )
)


@settings(max_examples=150, deadline=None)
@given(_type_st)
def test_subtype_reflexive(t):
    assert is_subtype(t, t)


@settings(max_examples=150, deadline=None)
@given(_type_st, _type_st, _type_st)
def test_subtype_transitive(a, b, c):
    if is_subtype(a, b) and is_subtype(b, c):
        assert is_subtype(a, c)


@settings(max_examples=150, deadline=None)
@given(_type_st, _type_st)
def test_subtype_agrees_with_rule_oracle(a, b):
    assert is_subtype(a, b) == oracle_subtype(a, b)


@settings(max_examples=100, deadline=None)
@given(_type_st, _type_st, _type_st)
def test_record_width_monotonicity(actual_extra, sub, expected):
    base = record(a=sub)
    if not isinstance(expected, RecordType):
        return
    if is_subtype(base, expected):
        widened = RecordType(base.fields + (RecordField("zz", actual_extra),))
        assert is_subtype(widened, expected)


def _fig1_workspace():
    w, _ = load_workspace(str(FIXTURES / "fig1" / "host" / "federation.json"))
    return w


def test_check_compatibility_identical_types():
    w = _fig1_workspace()
    expectations = collect_expectations(w)
    assert len(expectations) == 1
    assert expectations[0].consumer == "host"
    assert check_compatibility(w, expectations) == []


def test_check_compatibility_return_mismatch():
    w, _ = load_workspace(str(FIXTURES / "type_mismatch" / "host" / "federation.json"))
    diags = check_compatibility(w, collect_expectations(w))
    assert [d.code for d in diags] == ["E-TYPE-MISMATCH"]
    assert diags[0].path == ".returns"


def test_check_compatibility_missing_export():
    w = _fig1_workspace()
    exp = collect_expectations(w)[0]
    from dataclasses import replace

    diags = check_compatibility(w, [replace(exp, export="Footer")])
    assert [d.code for d in diags] == ["E-MISSING-EXPORT"]


def test_check_compatibility_permutation_invariance():
    w, _ = load_workspace(str(FIXTURES / "type_mismatch" / "host" / "federation.json"))
    from dataclasses import replace

    good = collect_expectations(_fig1_workspace())[0]
    bad = collect_expectations(w)[0]
    missing = replace(bad, export="Footer")
    a = check_compatibility(w, [bad, missing])
    b = check_compatibility(w, [missing, bad])
    assert sorted(d.code for d in a) == sorted(d.code for d in b)


def test_no_interface_is_warning_unless_strict(tmp_path: Path):
    host_dir = tmp_path / "host"
    remote_dir = tmp_path / "remote"
    host_dir.mkdir()
    remote_dir.mkdir()
    (remote_dir / "federation.json").write_text(
        json.dumps(
            {
                "name": "remote",
                "version": "1.0.0",
                "modules": [
                    {"id": "./Bare", "sizeBytes": 1, "staticImports": [], "dynamicImports": []}
                ],
                "exposes": [{"id": "./Bare", "module": "./Bare"}],
            }
        )
    )
    (host_dir / "federation.json").write_text(
        json.dumps(
            {
                "name": "host",
                "version": "1.0.0",
                "entry": "entry",
                "modules": [
                    {"id": "entry", "sizeBytes": 1, "staticImports": [], "dynamicImports": []}
                ],
                "remotes": [{"name": "remote", "manifest": "../remote/federation.json"}],
                "expects": [
                    {"target": "remote/./Bare#Bare", "interface": {"kind": "unknown"}}
                ],
            }
        )
    )
    w, _ = load_workspace(str(host_dir / "federation.json"))
    expectations = collect_expectations(w)
    relaxed = check_compatibility(w, expectations)
    assert [(d.code, d.severity) for d in relaxed] == [("E-NO-INTERFACE", "warning")]
    strict = check_compatibility(w, expectations, strict_types=True)
    assert [(d.code, d.severity) for d in strict] == [("E-NO-INTERFACE", "error")]


def test_check_compatibility_dangling_remote_and_expose():
    from dataclasses import replace

    w = _fig1_workspace()
    exp = collect_expectations(w)[0]
    diags = check_compatibility(w, [replace(exp, remote="ghost"), replace(exp, expose="./Footer")])
    assert [(d.code, d.path, d.message) for d in diags] == [
        ("E-DANGLING-REMOTE", "ghost/./Header#Header", "host declares no remote 'ghost'"),
        ("E-DANGLING-REMOTE", "remote/./Footer#Header", "remote exposes no './Footer'"),
    ]


@pytest.mark.parametrize("interface", [None, "{}"], ids=["missing", "malformed"])
def test_check_compatibility_unusable_interface_file(tmp_path: Path, interface):
    shutil.copytree(FIXTURES / "fig1", tmp_path / "fig1")
    interface_file = tmp_path / "fig1" / "remote" / "Header.interface.json"
    if interface is None:
        interface_file.unlink()
    else:
        interface_file.write_text(interface)
    w, _ = load_workspace(str(tmp_path / "fig1" / "host" / "federation.json"))
    [diag] = check_compatibility(w, collect_expectations(w))
    assert (diag.path, diag.severity) == ("remote/./Header#Header", "error")
    if interface is None:
        assert diag.code == "E-IO"
        assert diag.message.startswith(f"cannot read interface file {interface_file}")
    else:
        assert diag.code == "E-SYNTAX"
        assert diag.message == f'{interface_file}: interface document needs an "exports" object'
