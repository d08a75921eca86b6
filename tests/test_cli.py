from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from fedplan.cli import run

from conftest import FIXTURES, REPO_ROOT, deadline

GOLDEN = FIXTURES / "golden"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    # Goldens embed fixture paths relative to the repository root.
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("FEDPLAN_COLOR", "0")


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_MATRIX = [
    ("validate_fig1.json", 0, ["validate", "fixtures/fig1/host/federation.json", "--format", "json"]),
    ("graph_fig1.dot", 0, ["graph", "fixtures/fig1/host/federation.json"]),
    ("graph_fig1.json", 0, ["graph", "fixtures/fig1/host/federation.json", "--format", "json"]),
    ("graph_fig1_shared.json", 0, ["graph", "fixtures/fig1_shared/host/federation.json", "--format", "json"]),
    ("resolve_fig1_shared.json", 0, ["resolve-shared", "fixtures/fig1_shared/host/federation.json", "--format", "json"]),
    ("resolve_fallback.json", 0, ["resolve-shared", "fixtures/fallback/host/federation.json", "--format", "json"]),
    ("check_types_fig1.json", 0, ["check-types", "fixtures/fig1/host/federation.json", "--format", "json"]),
    ("plan_lazy_fig1.json", 0, ["plan", "fixtures/fig1/host/federation.json", "--strategy", "lazy", "--format", "json"]),
    ("plan_prefetch_fig1.json", 0, ["plan", "fixtures/fig1/host/federation.json", "--strategy", "prefetch", "--format", "json"]),
    ("simulate_lazy_fig1.json", 0, ["simulate", "fixtures/fig1/host/federation.json", "--strategy", "lazy", "--net", "fixtures/nets/default.json", "--format", "json"]),
    ("compare_fig1_shared.json", 0, ["compare", "fixtures/fig1_shared/host/federation.json", "--net", "fixtures/nets/default.json", "--format", "json"]),
    ("validate_invalid.json", 1, ["validate", "fixtures/invalid_manifest/host/federation.json", "--format", "json"]),
    ("resolve_conflict.json", 1, ["resolve-shared", "fixtures/conflict_singleton/host/federation.json", "--format", "json"]),
    ("check_types_mismatch.json", 1, ["check-types", "fixtures/type_mismatch/host/federation.json", "--format", "json"]),
]


@pytest.mark.parametrize("golden,expected_code,argv", GOLDEN_MATRIX, ids=[g for g, _, _ in GOLDEN_MATRIX])
def test_golden_outputs_byte_for_byte(capsys, golden, expected_code, argv):
    code, out, _err = invoke(capsys, *argv)
    assert code == expected_code
    assert out == (GOLDEN / golden).read_text()
    if golden.endswith(".json"):
        json.loads(out)  # exactly one parseable JSON document


@pytest.mark.parametrize("golden,expected_code,argv", GOLDEN_MATRIX, ids=[g for g, _, _ in GOLDEN_MATRIX])
def test_double_run_is_byte_identical(capsys, golden, expected_code, argv):
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_trace_writes_golden_jsonl(capsys, tmp_path):
    out_file = tmp_path / "spans.jsonl"
    code, out, _ = invoke(
        capsys,
        "trace",
        "fixtures/fig1/host/federation.json",
        "--strategy",
        "lazy",
        "--net",
        "fixtures/nets/default.json",
        "--out",
        str(out_file),
        "--format",
        "json",
    )
    assert code == 0
    assert out_file.read_text() == (GOLDEN / "trace_lazy_fig1.jsonl").read_text()
    summary = json.loads(out)
    assert summary["spans"] == 7 and summary["traceId"] == "sim-lazy"


def test_validate_table_mode_splits_streams(capsys):
    code, out, err = invoke(capsys, "validate", "fixtures/invalid_manifest/host/federation.json")
    assert code == 1
    assert "E-DANGLING-EXPOSE" in err
    assert "E-DANGLING-EXPOSE" not in out


def test_validate_warning_only_exits_zero(capsys):
    code, _out, err = invoke(capsys, "validate", "fixtures/bidirectional/host/federation.json")
    assert code == 0
    assert "W-BIDIRECTIONAL" in err


def test_quiet_suppresses_table_output(capsys):
    code, out, err = invoke(
        capsys, "validate", "fixtures/invalid_manifest/host/federation.json", "--quiet"
    )
    assert code == 1
    assert out == "" and err == ""


def test_resolve_shared_quiet_silences_conflicts(capsys):
    code, out, err = invoke(
        capsys, "resolve-shared", "fixtures/conflict_singleton/host/federation.json", "--quiet"
    )
    assert code == 1
    assert out == "" and err == ""


def test_missing_host_file_is_usage_error(capsys):
    code, _out, err = invoke(capsys, "validate", "fixtures/nope/federation.json")
    assert code == 2
    assert "E-IO" in err


MALFORMED_NETS = {
    "duplicate-key": b'{"rttMs": 1, "rttMs": 2}',
    "nested-100000": b"[" * 100000 + b"]" * 100000,
    "non-utf8": b'{"rttMs": 1\xff}',
    "huge-int": b'{"rttMs": ' + b"9" * 400 + b"}",
}


def test_malformed_net_is_usage_error(capsys, tmp_path):
    nets = {"fixture": "fixtures/nets/bad.json"}
    for case, data in MALFORMED_NETS.items():
        nets[case] = tmp_path / f"{case}.json"
        nets[case].write_bytes(data)
    for case, net in nets.items():
        code, _out, err = invoke(
            capsys,
            "simulate",
            "fixtures/fig1/host/federation.json",
            "--strategy",
            "lazy",
            "--net",
            str(net),
        )
        assert code == 2, case
        assert "E-BAD-NET" in err and "Traceback" not in err, case


NET_FIELDS = (
    "rttMs",
    "bandwidthBytesPerMs",
    "maxConcurrent",
    "parseMsPerKb",
    "serverComposeMs",
    "hydrationFactor",
    "interactionDelayMs",
)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", NET_FIELDS)
def test_non_finite_net_is_usage_error(capsys, tmp_path, field, value):
    # Python's json reads these literals; NaN used to make simulate loop forever.
    net = tmp_path / "net.json"
    net.write_text(f'{{"{field}": {value}}}')
    with deadline(10):
        code, out, err = invoke(
            capsys,
            "simulate",
            "fixtures/fig1/host/federation.json",
            "--strategy",
            "lazy",
            "--net",
            str(net),
        )
    assert code == 2
    assert out == ""
    assert "E-BAD-NET" in err


@pytest.mark.parametrize("doc", ['{"rttMs": 1e308}', '{"bandwidthBytesPerMs": 1e-320}'])
def test_overflowing_simulated_time_is_usage_error(capsys, tmp_path, doc):
    # Finite nets whose event times overflow the float range used to print
    # Infinity, which is not JSON.
    net = tmp_path / "net.json"
    net.write_text(doc)
    with deadline(10):
        code, out, err = invoke(
            capsys,
            "simulate",
            "fixtures/fig1/host/federation.json",
            "--strategy",
            "lazy",
            "--net",
            str(net),
            "--format",
            "json",
        )
    assert code == 2
    assert "Infinity" not in out
    assert "E-BAD-NET" in err


def test_zero_fair_share_is_usage_error(capsys, tmp_path):
    # Two eager bundles split the smallest positive bandwidth into 0.0 each,
    # which used to raise ZeroDivisionError in the simulator.
    net = tmp_path / "net.json"
    net.write_text('{"rttMs": 1, "bandwidthBytesPerMs": 5e-324, "maxConcurrent": 6}')
    with deadline(10):
        code, out, err = invoke(
            capsys,
            "simulate",
            "fixtures/fig1_shared/host/federation.json",
            "--strategy",
            "eager",
            "--net",
            str(net),
            "--format",
            "json",
        )
    assert code == 2
    assert out == ""
    assert "E-BAD-NET" in err and "Traceback" not in err


def test_non_utf8_manifest_is_syntax_error(capsys, tmp_path):
    host = tmp_path / "federation.json"
    host.write_bytes(b'{"name": "h\xff"}')
    code, _out, err = invoke(capsys, "validate", str(host))
    assert code == 1
    assert "E-SYNTAX" in err and "UTF-8" in err
    assert "Traceback" not in err


def test_non_utf8_interface_is_syntax_error(capsys, tmp_path):
    shutil.copytree(FIXTURES / "fig1", tmp_path / "fig1")
    (tmp_path / "fig1" / "remote" / "Header.interface.json").write_bytes(b'{"exports": \xff}')
    code, out, _err = invoke(
        capsys, "check-types", str(tmp_path / "fig1" / "host" / "federation.json"), "--format", "json"
    )
    assert code == 1
    [diag] = json.loads(out)["diagnostics"]
    assert (diag["code"], diag["path"]) == ("E-SYNTAX", "remote/./Header#Header")
    assert "UTF-8" in diag["message"]


def test_duplicate_shared_package_is_validation_error(capsys, tmp_path):
    # The second react spec used to pass validate, and the graph then sized
    # its 99-byte fallback node with the first spec's 130000 bytes.
    shutil.copytree(FIXTURES / "fig1_shared", tmp_path / "fig1_shared")
    host = tmp_path / "fig1_shared" / "host" / "federation.json"
    doc = json.loads(host.read_text())
    doc["shared"].append({**doc["shared"][0], "requiredRange": "^17.0.0",
                          "providedVersion": "17.0.0", "singleton": False, "sizeBytes": 99})
    host.write_text(json.dumps(doc))
    code, out, _err = invoke(capsys, "validate", str(host), "--format", "json")
    assert code == 1
    [diag] = json.loads(out)["diagnostics"]
    assert (diag["code"], diag["path"]) == ("E-DUP-SHARED", "host:.shared[1].package")


@pytest.mark.parametrize("where", ["modules", "shared"])
def test_size_beyond_two_pow_53_is_syntax_error(capsys, tmp_path, where):
    # 309 digits used to pass validate, then end simulate in an OverflowError.
    shutil.copytree(FIXTURES / "fig1_shared", tmp_path / "fig1_shared")
    host = tmp_path / "fig1_shared" / "host" / "federation.json"
    doc = json.loads(host.read_text())
    doc[where][0]["sizeBytes"] = 10**308
    host.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "compare", str(host), "--net", "fixtures/nets/default.json",
                            "--format", "json")
    assert code == 1
    [diag] = json.loads(out)["diagnostics"]
    assert diag["code"] == "E-SYNTAX"
    assert diag["path"] == f".{where}[0].sizeBytes"
    assert "Traceback" not in err


def test_sizes_at_two_pow_53_stay_exact_and_finite(capsys, tmp_path):
    shutil.copytree(FIXTURES / "fig1_shared", tmp_path / "fig1_shared")
    for name in ("host", "remote"):
        path = tmp_path / "fig1_shared" / name / "federation.json"
        doc = json.loads(path.read_text())
        for entry in doc["modules"] + doc["shared"]:
            entry["sizeBytes"] = 2**53
        path.write_text(json.dumps(doc))
    host = str(tmp_path / "fig1_shared" / "host" / "federation.json")
    code, out, _err = invoke(capsys, "plan", host, "--strategy", "eager", "--format", "json")
    assert code == 0
    eager = json.loads(out)
    bundles = [r["sizeBytes"] for r in eager["requests"]]
    assert sum(bundles) == 2**53 * sum(len(r["payload"]) for r in eager["requests"])
    code, out, _err = invoke(capsys, "compare", host, "--net", "fixtures/nets/default.json",
                             "--format", "json")
    assert code == 0
    assert "Infinity" not in out and "NaN" not in out
    for report in json.loads(out):
        assert 0 < report["timeToInteractiveMs"] < float("inf")


@pytest.mark.parametrize(
    "value", ["-5", pytest.param("9" * 400, id="400-digits"), str(2**53 + 1), "many"]
)
def test_manifest_bytes_out_of_range_is_usage_error(capsys, value):
    code, out, err = invoke(
        capsys, "plan", "fixtures/fig1/host/federation.json", "--strategy", "prefetch",
        "--manifest-bytes", value,
    )
    assert code == 2
    assert out == ""
    assert "--manifest-bytes" in err and "Traceback" not in err


def _write_host(tmp_path, remotes=(), **entry_fields) -> str:
    entry = {"id": "entry", "sizeBytes": 1, "staticImports": [], "dynamicImports": [], **entry_fields}
    doc = {"name": "host", "version": "1.0.0", "entry": "entry", "modules": [entry], "remotes": list(remotes)}
    path = tmp_path / "federation.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_nul_in_remote_manifest_path_is_syntax_error(capsys, tmp_path):
    host = _write_host(tmp_path, remotes=[{"name": "r", "manifest": "a\u0000b"}])
    code, _out, err = invoke(capsys, "validate", host)
    assert code == 1
    assert "E-SYNTAX" in err and ".remotes[0].manifest" in err
    assert "Traceback" not in err


def test_nul_in_module_interface_path_is_syntax_error(capsys, tmp_path):
    host = _write_host(tmp_path, interface="a\u0000b")
    code, _out, err = invoke(capsys, "check-types", host)
    assert code == 1
    assert "E-SYNTAX" in err and ".modules[0].interface" in err
    assert "Traceback" not in err


def test_validate_long_remote_chain(capsys, tmp_path):
    # Application i imports application i+1's exposed module: 1200 manifests,
    # one remote hop each, far past the default recursion limit.
    n = 1200
    for i in range(n):
        module = {"id": "./m", "sizeBytes": 1, "staticImports": [] if i == n - 1 else ["r/./m"]}
        doc = {
            "name": f"a{i}",
            "version": "1.0.0",
            "modules": [module],
            "exposes": [{"id": "./m", "module": "./m"}],
            "remotes": [] if i == n - 1 else [{"name": "r", "manifest": f"a{i + 1}.json"}],
        }
        if i == 0:
            doc["entry"] = "./m"
        (tmp_path / f"a{i}.json").write_text(json.dumps(doc))
    code, out, _err = invoke(capsys, "validate", str(tmp_path / "a0.json"), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["applications"]) == n


def test_unknown_strategy_is_usage_error(capsys):
    code, _out, _err = invoke(
        capsys,
        "simulate",
        "fixtures/fig1/host/federation.json",
        "--strategy",
        "psychic",
        "--net",
        "fixtures/nets/default.json",
    )
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _out, _err = invoke(capsys)
    assert code == 2


def test_cycle_fixture_is_content_error(capsys):
    code, _out, err = invoke(capsys, "validate", "fixtures/cycle_self/host/federation.json")
    assert code == 1
    assert "E-REMOTE-CYCLE" in err


def test_remote_cycle_json_mode_reports_on_stdout(capsys):
    code, out, _err = invoke(
        capsys, "validate", "fixtures/cycle_self/host/federation.json", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["diagnostics"][0]["code"] == "E-REMOTE-CYCLE"


def test_compare_table_mode(capsys):
    code, out, _err = invoke(
        capsys,
        "compare",
        "fixtures/fig1_shared/host/federation.json",
        "--net",
        "fixtures/nets/default.json",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split()[:3] == ["strategy", "firstRenderMs", "interactiveMs"]
    assert [line.split()[0] for line in lines[2:]] == ["lazy", "prefetch", "eager", "ssr"]


def test_strict_types_escalates_missing_interface(capsys, tmp_path):
    remote_dir = tmp_path / "remote"
    host_dir = tmp_path / "host"
    remote_dir.mkdir()
    host_dir.mkdir()
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
                "expects": [{"target": "remote/./Bare#Bare", "interface": {"kind": "unknown"}}],
            }
        )
    )
    host = str(host_dir / "federation.json")
    relaxed, _, err = invoke(capsys, "check-types", host)
    assert relaxed == 0 and "E-NO-INTERFACE" in err
    strict, _, _ = invoke(capsys, "check-types", host, "--strict-types")
    assert strict == 1


def test_quiet_json_mode_still_emits_document(capsys):
    code, out, err = invoke(
        capsys, "validate", "fixtures/fig1/host/federation.json", "--format", "json", "--quiet"
    )
    assert code == 0
    assert err == ""
    assert json.loads(out)["applications"] == ["host", "remote"]


def test_console_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), FEDPLAN_COLOR="0")
    proc = subprocess.run(
        [sys.executable, "-m", "fedplan", "validate", "fixtures/fig1/host/federation.json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0
    assert "2 application(s)" in proc.stdout


def test_closed_stdout_pipe_is_io_failure_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), FEDPLAN_COLOR="0")
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails with EPIPE
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "fedplan", "compare", "fixtures/fig1_shared/host/federation.json",
                "--net", "fixtures/nets/default.json", "--format", "json",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check-types"],
        ["plan", "--strategy", "lazy"],
        ["compare", "--net", "fixtures/nets/default.json"],
    ],
    ids=["check-types", "plan", "compare"],
)
def test_validation_errors_end_analysis_commands(capsys, argv):
    host = "fixtures/invalid_manifest/host/federation.json"
    code, out, _err = invoke(capsys, argv[0], host, *argv[1:], "--format", "json")
    assert code == 1
    doc = json.loads(out)  # exactly one JSON document
    assert list(doc) == ["diagnostics"]
    assert [(d["code"], d["path"]) for d in doc["diagnostics"]] == [
        ("E-DANGLING-EXPOSE", "host:.exposes[0].module")
    ]
    code, out, err = invoke(capsys, argv[0], host, *argv[1:])
    assert code == 1
    assert out == ""
    assert "E-DANGLING-EXPOSE host:.exposes[0].module" in err


def test_plan_table_mode(capsys):
    code, out, _err = invoke(capsys, "plan", "fixtures/fig1/host/federation.json", "--strategy", "prefetch")
    assert code == 0
    assert [line.split() for line in out.splitlines()[2:]] == [
        ["0", "remote/__manifest__", "2000", "-"],
        ["1", "host/entry", "10000", "-"],
        ["2", "remote/./Header", "10000", "0"],
        ["3", "remote/./Nav", "10000", "0"],
    ]


def test_simulate_table_mode(capsys):
    code, out, _err = invoke(
        capsys, "simulate", "fixtures/fig1/host/federation.json", "--strategy", "lazy",
        "--net", "fixtures/nets/default.json",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows[0] == ["strategy", "firstRenderMs", "interactiveMs", "bytes", "requests", "rounds", "maxConc"]
    assert rows[2] == ["lazy", "200", "600", "30000", "3", "3", "1"]
    assert rows[3] == ["request", "start", "headers", "done", "parsed", "bytes"]
    assert rows[5:] == [
        ["0", "0", "100", "200", "200", "10000"],
        ["1", "200", "300", "400", "400", "10000"],
        ["2", "400", "500", "600", "600", "10000"],
    ]


def test_trace_table_mode(capsys, tmp_path):
    out_file = tmp_path / "spans.jsonl"
    code, out, _err = invoke(
        capsys, "trace", "fixtures/fig1/host/federation.json", "--strategy", "lazy",
        "--net", "fixtures/nets/default.json", "--out", str(out_file),
    )
    assert code == 0
    assert out == f"wrote 7 span(s) to {out_file}\n"
    assert out_file.read_text() == (GOLDEN / "trace_lazy_fig1.jsonl").read_text()


def test_resolve_shared_table_mode_lists_fallbacks(capsys):
    code, out, _err = invoke(capsys, "resolve-shared", "fixtures/fallback/host/federation.json")
    assert code == 0
    lines = out.splitlines()
    assert lines[2].split() == ["lodash", "4.17.21", "host"]
    assert lines[3] == "fallbacks: remote:lodash@3.10.1 (duplicateBytes=60000)"


def test_missing_net_file_is_io_usage_error(capsys, tmp_path):
    net = str(tmp_path / "nope.json")
    code, out, err = invoke(
        capsys, "simulate", "fixtures/fig1/host/federation.json", "--strategy", "lazy", "--net", net,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error E-IO {net}: cannot read network model:")


def test_trace_out_directory_is_io_usage_error(capsys, tmp_path):
    code, out, err = invoke(
        capsys, "trace", "fixtures/fig1/host/federation.json", "--strategy", "lazy",
        "--net", "fixtures/nets/default.json", "--out", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error E-IO {tmp_path}: cannot write trace:")


def test_manifest_bytes_zero_sizes_the_prefetch_manifest_request(capsys):
    code, out, _err = invoke(
        capsys, "plan", "fixtures/fig1/host/federation.json", "--strategy", "prefetch",
        "--manifest-bytes", "0", "--format", "json",
    )
    assert code == 0
    manifest_request = json.loads(out)["requests"][0]
    assert manifest_request["payload"] == ["remote/__manifest__"]
    assert manifest_request["sizeBytes"] == 0
    assert manifest_request["trigger"] == {"kind": "manifest"}


@pytest.mark.parametrize(
    "where,value,code",
    [
        ("version", "9" * 5000 + ".0.0", "E-BAD-VERSION"),
        ("providedVersion", "4.17." + "9" * 5000, "E-BAD-VERSION"),
        ("requiredRange", "^" + "9" * 5000 + ".0.0", "E-BAD-RANGE"),
    ],
    ids=["version", "providedVersion", "requiredRange"],
)
def test_5000_digit_version_component_is_content_error(capsys, tmp_path, where, value, code):
    # int() used to end these in "ValueError: Exceeds the limit (4300 digits)".
    shutil.copytree(FIXTURES / "fallback", tmp_path / "fallback")
    host = tmp_path / "fallback" / "host" / "federation.json"
    doc = json.loads(host.read_text())
    target = doc if where == "version" else doc["shared"][0]
    target[where] = value
    host.write_text(json.dumps(doc))
    code_out, out, err = invoke(capsys, "resolve-shared", str(host), "--format", "json")
    assert code_out == 1
    [diag] = json.loads(out)["diagnostics"]
    path = ".version" if where == "version" else f".shared[0].{where}"
    assert (diag["code"], diag["path"]) == (code, path)
    assert "Traceback" not in err
