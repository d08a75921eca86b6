from __future__ import annotations

import json
from pathlib import Path

import pytest

from fedplan.diagnostics import ToolError
from fedplan.manifest import (
    LocalImport,
    RemoteImport,
    SharedImport,
    load_workspace,
    parse_import_ref,
    parse_manifest,
    serialize_manifest,
    validate_manifest,
)

from conftest import FIXTURES

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
