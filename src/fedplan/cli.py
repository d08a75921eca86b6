"""Command-line front end: validate, resolve, type-check, plan, simulate, trace.

Exit codes: 0 when the analysis found no errors, 1 when diagnostics of
severity error were produced (validation failures, share conflicts, type
mismatches), 2 for usage and IO failures (bad arguments, unreadable files,
malformed network configs, a stdout pipe whose reader has gone away).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagnostics import Diagnostic, ERROR, ToolError, has_errors, parse_json
from .graph import ModuleGraph, build_graph, export_dot, graph_to_json, node_label
from .interfaces import check_compatibility, collect_expectations
from .manifest import MAX_BYTES, Workspace, load_workspace, validate_workspace
from .planner import DEFAULT_MANIFEST_BYTES, LoadStrategy, plan
from .shares import ShareResolution, build_share_scope, resolve_shares
from .simulator import ALL_STRATEGIES, SimReport, network_from_json, simulate
from .trace import export_jsonl, from_sim

_USAGE_CODES = {"E-IO", "E-BAD-NET"}


def _color_enabled() -> bool:
    if os.environ.get("FEDPLAN_COLOR") == "0":
        return False
    return sys.stderr.isatty()


def _paint(severity: str, text: str) -> str:
    if not _color_enabled():
        return text
    code = "31" if severity == ERROR else "33"
    return f"\x1b[{code}m{text}\x1b[0m"


class _Failed(Exception):
    """Error diagnostics that end a subcommand with exit code 1."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        super().__init__()
        self.diagnostics = diagnostics


class _Output:
    def __init__(self, args: argparse.Namespace) -> None:
        self.json_mode = args.format == "json"
        self.quiet = args.quiet

    def emit_json(self, doc) -> None:
        print(json.dumps(doc, indent=2))

    def emit_diagnostics(self, diags: list[Diagnostic]) -> None:
        if self.quiet:
            return
        for d in diags:
            print(_paint(d.severity, str(d)), file=sys.stderr)

    def emit_line(self, text: str) -> None:
        if not self.quiet:
            print(text)

    def emit_table(self, headers: list[str], rows: list[list[str]]) -> None:
        if self.quiet:
            return
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        print(line)
        print("  ".join("-" * w for w in widths))
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _fmt_ms(value: float) -> str:
    return f"{value:g}"


def _load(args) -> tuple[Workspace, list[Diagnostic]]:
    """Load and validate the workspace."""
    w, diags = load_workspace(args.host)
    return w, diags + validate_workspace(w)


def _load_checked(args) -> tuple[Workspace, list[Diagnostic]]:
    """Load and validate the workspace; validation errors end the command."""
    w, diags = _load(args)
    if has_errors(diags):
        raise _Failed(diags)
    return w, diags


def cmd_validate(args: argparse.Namespace, out: _Output) -> int:
    w, diags = _load(args)
    apps = [a.name for a in w.applications()]
    if out.json_mode:
        out.emit_json({"applications": apps, "diagnostics": [d.to_json() for d in diags]})
    else:
        out.emit_diagnostics(diags)
        errors = sum(1 for d in diags if d.severity == ERROR)
        warnings = len(diags) - errors
        out.emit_line(
            f"{len(apps)} application(s): {', '.join(apps)} "
            f"({errors} error(s), {warnings} warning(s))"
        )
    return 1 if has_errors(diags) else 0


def _analysis(args, out: _Output) -> tuple[ShareResolution, ModuleGraph]:
    """Shared pipeline: workspace -> share resolution -> module graph."""
    w, diags = _load_checked(args)
    res = resolve_shares(build_share_scope(w))
    g, graph_warnings = build_graph(w, res)
    if not out.json_mode:
        out.emit_diagnostics(diags + graph_warnings)
    return res, g


def cmd_graph(args: argparse.Namespace, out: _Output) -> int:
    _, g = _analysis(args, out)
    if out.json_mode:
        out.emit_json(graph_to_json(g))
    else:
        print(export_dot(g), end="")
    return 0


def cmd_resolve_shared(args: argparse.Namespace, out: _Output) -> int:
    w, diags = _load_checked(args)
    res = resolve_shares(build_share_scope(w))
    if out.json_mode:
        out.emit_json(res.to_json())
    else:
        out.emit_diagnostics(diags)
        rows = [
            [pkg, str(version), provider]
            for pkg, (version, provider) in res.bindings.items()
        ]
        out.emit_table(["package", "version", "provider"], rows)
        out.emit_diagnostics([
            Diagnostic(c.code, c.severity, f"{c.package}@{c.application}",
                       f"requires {c.required_range}, chose {c.chosen_version}")
            for c in res.conflicts
        ])
        if res.fallbacks:
            out.emit_line(
                "fallbacks: "
                + ", ".join(f"{app}:{pkg}@{version}" for app, pkg, version in res.fallbacks)
                + f" (duplicateBytes={res.duplicate_bytes})"
            )
    return 1 if any(c.severity == ERROR for c in res.conflicts) else 0


def cmd_check_types(args: argparse.Namespace, out: _Output) -> int:
    w, diags = _load_checked(args)
    type_diags = check_compatibility(w, collect_expectations(w), strict_types=args.strict_types)
    if out.json_mode:
        out.emit_json({"diagnostics": [d.to_json() for d in type_diags]})
    else:
        out.emit_diagnostics(diags + type_diags)
        out.emit_line(f"{len(type_diags)} finding(s)")
    return 1 if has_errors(type_diags) else 0


def cmd_plan(args: argparse.Namespace, out: _Output) -> int:
    res, g = _analysis(args, out)
    built = plan(g, res, LoadStrategy(args.strategy), manifest_bytes=args.manifest_bytes)
    if out.json_mode:
        out.emit_json(built.to_json())
    else:
        rows = [
            [
                str(r.id),
                ",".join(sorted(node_label(key) for key in r.payload)),
                str(r.size_bytes),
                ",".join(str(d) for d in sorted(r.depends_on)) or "-",
            ]
            for r in built.requests
        ]
        out.emit_table(["id", "payload", "bytes", "dependsOn"], rows)
    return 0


def _read_network(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ToolError("E-IO", f"cannot read network model: {exc}", path)
    except UnicodeDecodeError as exc:
        raise ToolError("E-BAD-NET", f"not valid UTF-8: {exc}", path)
    return network_from_json(parse_json(text, "E-BAD-NET", path))


def _simulated(args, out: _Output, strategies) -> list[SimReport]:
    """Plan and simulate each strategy over `--net`, which is read before the workspace."""
    net = _read_network(args.net)
    res, g = _analysis(args, out)
    return [simulate(plan(g, res, s, manifest_bytes=args.manifest_bytes), net) for s in strategies]


def _report_rows(reports) -> list[list[str]]:
    return [
        [
            r.strategy.value,
            _fmt_ms(r.time_to_first_render_ms),
            _fmt_ms(r.time_to_interactive_ms),
            str(r.total_bytes),
            str(r.request_count),
            str(r.waterfall_rounds),
            str(r.max_observed_concurrency),
        ]
        for r in reports
    ]


_REPORT_HEADERS = ["strategy", "firstRenderMs", "interactiveMs", "bytes", "requests", "rounds", "maxConc"]


def cmd_simulate(args: argparse.Namespace, out: _Output) -> int:
    [report] = _simulated(args, out, [LoadStrategy(args.strategy)])
    if out.json_mode:
        out.emit_json(report.to_json())
    else:
        out.emit_table(_REPORT_HEADERS, _report_rows([report]))
        rows = [
            [
                str(e.request_id),
                _fmt_ms(e.start_ms),
                _fmt_ms(e.headers_ms),
                _fmt_ms(e.done_ms),
                _fmt_ms(e.parse_done_ms),
                str(e.size_bytes),
            ]
            for e in report.timeline
        ]
        out.emit_table(["request", "start", "headers", "done", "parsed", "bytes"], rows)
    return 0


def cmd_compare(args: argparse.Namespace, out: _Output) -> int:
    reports = _simulated(args, out, ALL_STRATEGIES)
    if out.json_mode:
        out.emit_json([r.to_json() for r in reports])
    else:
        out.emit_table(_REPORT_HEADERS, _report_rows(reports))
    return 0


def cmd_trace(args: argparse.Namespace, out: _Output) -> int:
    [report] = _simulated(args, out, [LoadStrategy(args.strategy)])
    log = from_sim(report)
    text = export_jsonl(log)
    spans = text.count("\n")  # one line per span; counted so that the spans need not be built
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ToolError("E-IO", f"cannot write trace: {exc}", args.out)
    if out.json_mode:
        out.emit_json({"out": args.out, "traceId": log.trace_id, "spans": spans})
    else:
        out.emit_line(f"wrote {spans} span(s) to {args.out}")
    return 0


def _byte_count(text: str) -> int:
    """A byte count for --manifest-bytes: an integer from 0 to MAX_BYTES."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # not an integer: rejected with the out-of-range values below
    if not 0 <= value <= MAX_BYTES:
        raise argparse.ArgumentTypeError(f"expected an integer from 0 to 2**53, got {text!r}")
    return value


def _option(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedplan",
        description="Static analysis and load simulation for bundler-independent module federations.",
    )
    host = _option("host", help="path to the host federation.json")
    quiet = _option("--quiet", action="store_true", help="suppress tables and diagnostics")
    table = _option("--format", choices=["json", "table"], default="table")
    strategy = _option("--strategy", choices=[s.value for s in ALL_STRATEGIES], required=True)
    net = _option("--net", required=True, help="network model JSON file")
    manifest_bytes = _option("--manifest-bytes", type=_byte_count, default=DEFAULT_MANIFEST_BYTES)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, fmt: argparse.ArgumentParser, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[host, fmt, quiet, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "validate a workspace's manifests", table)
    command("graph", cmd_graph, "export the cross-application module graph",
            _option("--format", choices=["dot", "json"], default="dot"))
    command("resolve-shared", cmd_resolve_shared, "negotiate shared package versions", table)
    p = command("check-types", cmd_check_types, "check consumer expectations against exposed interfaces", table)
    p.add_argument("--strict-types", action="store_true", help="treat missing interfaces as errors")
    command("plan", cmd_plan, "build the fetch plan for one strategy", table, strategy, manifest_bytes)
    command("simulate", cmd_simulate, "simulate one strategy over a network model",
            table, strategy, net, manifest_bytes)
    command("compare", cmd_compare, "simulate all four strategies", table, net, manifest_bytes)
    command("trace", cmd_trace, "export the simulated timeline as JSON-lines spans",
            table, strategy, net, _option("--out", required=True, help="output spans.jsonl path"), manifest_bytes)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out = _Output(args)
    try:
        return args.func(args, out)
    except ToolError as exc:
        if exc.code in _USAGE_CODES:
            print(_paint(ERROR, str(exc.to_diagnostic())), file=sys.stderr)
            return 2
        diags = [exc.to_diagnostic()]
    except _Failed as exc:
        diags = exc.diagnostics
    if out.json_mode:
        out.emit_json({"diagnostics": [d.to_json() for d in diags]})
    else:
        out.emit_diagnostics(diags)
    return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away. Point stdout at devnull so the
        # interpreter's final flush cannot fail again, and exit as an IO failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
