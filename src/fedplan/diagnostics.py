"""Diagnostic records and the error type shared by every analysis stage."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"

# Longest text a diagnostic message quotes in full.
QUOTE_LIMIT = 64


def quote(value: object) -> str:
    """repr() of a value for a diagnostic message, bounded.

    A str longer than QUOTE_LIMIT is quoted by its first QUOTE_LIMIT
    characters plus its length; any other value by the first QUOTE_LIMIT
    characters of its repr() plus that repr's length.
    """
    if isinstance(value, str):
        if len(value) <= QUOTE_LIMIT:
            return repr(value)
        return f"{value[:QUOTE_LIMIT]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


@dataclass(frozen=True)
class Diagnostic:
    """One machine-readable finding: a stable code, a severity, and a location."""

    code: str
    severity: str
    path: str
    message: str

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "message": self.message,
        }

    def __str__(self) -> str:
        loc = f" {self.path}" if self.path else ""
        return f"{self.severity} {self.code}{loc}: {self.message}"


class ToolError(Exception):
    """Raised when an operation cannot produce a result at all.

    Carries the same (code, path, message) triple as a Diagnostic so the CLI
    can render failures uniformly. Recoverable findings are returned as
    Diagnostic lists instead of raised.
    """

    def __init__(self, code: str, message: str, path: str = "") -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.path = path

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.code, ERROR, self.path, self.message)


@dataclass
class DiagnosticBag:
    """Mutable collector used while walking a document."""

    items: list[Diagnostic] = field(default_factory=list)

    def error(self, code: str, path: str, message: str) -> None:
        self.items.append(Diagnostic(code, ERROR, path, message))

    def warning(self, code: str, path: str, message: str) -> None:
        self.items.append(Diagnostic(code, WARNING, path, message))

    def extend(self, more: list[Diagnostic]) -> None:
        self.items.extend(more)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # some key repeats: name the first that does
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r} in object")
            seen.add(key)
    return obj


def parse_json(text: str, code: str, path: str = "") -> object:
    """Parse one JSON document that every stage reads: manifest, interface, network model.

    A duplicate object key, malformed text, or nesting too deep for the
    parser raises ToolError(code) at `path` instead of escaping as a Python
    exception.
    """
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except (ValueError, RecursionError) as exc:
        raise ToolError(code, f"invalid JSON: {exc}", path) from exc
