"""Semantic versions and version ranges.

Versions are plain MAJOR.MINOR.PATCH triples (no prerelease or build
suffixes) whose components are at most MAX_COMPONENT = 2**53-1. Ranges
normalize to a union of disjoint half-open intervals [lo, hi), which makes
intersection, emptiness, and equality decidable by an interval sweep. Because version components are integers, closed upper
bounds are folded into half-open ones via the patch successor: "<=1.2.3"
and "<1.2.4" admit exactly the same versions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import ToolError, quote

# [0-9], not \d: \d also matches fullwidth, Arabic-Indic and other Unicode
# decimal digits, which int() accepts but no version in a manifest means.
_VERSION_RE = re.compile(r"^([0-9]+)\.([0-9]+)\.([0-9]+)$")
_ATOM_RE = re.compile(r"^(>=|<=|>|<|=|\^|~)?([0-9]+)\.([0-9]+)\.([0-9]+)$")

# Largest version component, as in node-semver (Number.MAX_SAFE_INTEGER).
MAX_COMPONENT = 2**53 - 1
_MAX_DIGITS = len(str(MAX_COMPONENT))


@dataclass(frozen=True, order=True)
class Version:
    major: int
    minor: int
    patch: int

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


ZERO = Version(0, 0, 0)

# An interval is [lo, hi) with hi=None meaning unbounded above; ranges are
# unions of them.


@dataclass(frozen=True)
class VersionRange:
    """Union of disjoint, sorted, merged half-open intervals."""

    intervals: tuple[tuple[Version, Version | None], ...]

    def is_empty(self) -> bool:
        return not self.intervals

    def is_universal(self) -> bool:
        return self.intervals == ((ZERO, None),)

    def __str__(self) -> str:
        return render_range(self)


EMPTY_RANGE = VersionRange(())
UNIVERSAL_RANGE = VersionRange(((ZERO, None),))


def _components(digits: tuple[str, str, str], code: str, text: str) -> Version:
    """The Version of three digit strings; a component above MAX_COMPONENT is `code`.

    The length check comes before int(), so no digit run reaches the
    interpreter's limit on integer string conversion.
    """
    parts = []
    for run in digits:
        run = run.lstrip("0") or "0"
        value = int(run) if len(run) <= _MAX_DIGITS else MAX_COMPONENT + 1
        if value > MAX_COMPONENT:
            raise ToolError(code, f"version components must be at most {MAX_COMPONENT}, got {quote(text)}")
        parts.append(value)
    return Version(*parts)


def parse_version(text: str) -> Version:
    m = _VERSION_RE.match(text.strip())
    if not m:
        raise ToolError(
            "E-BAD-VERSION",
            f"expected MAJOR.MINOR.PATCH with decimal components, got {quote(text)}",
        )
    return _components(m.groups(), "E-BAD-VERSION", text)


def _succ_patch(v: Version) -> Version:
    return Version(v.major, v.minor, v.patch + 1)


def _caret_upper(v: Version) -> Version:
    # ^ pins the leftmost nonzero component.
    if v.major > 0:
        return Version(v.major + 1, 0, 0)
    if v.minor > 0:
        return Version(0, v.minor + 1, 0)
    return Version(0, 0, v.patch + 1)


def _tilde_upper(v: Version) -> Version:
    return Version(v.major, v.minor + 1, 0)


def _atom_interval(atom: str) -> tuple[Version, Version | None]:
    if atom == "*":
        return (ZERO, None)
    m = _ATOM_RE.match(atom)
    if not m:
        raise ToolError("E-BAD-RANGE", f"unsupported range token {quote(atom)}")
    op = m.group(1) or "="
    v = _components(m.groups()[1:], "E-BAD-RANGE", atom)
    if op == "=":
        return (v, _succ_patch(v))
    if op == ">=":
        return (v, None)
    if op == ">":
        return (_succ_patch(v), None)
    if op == "<=":
        return (ZERO, _succ_patch(v))
    if op == "<":
        return (ZERO, v)
    if op == "^":
        return (v, _caret_upper(v))
    return (v, _tilde_upper(v))  # "~"


def _lt_bound(a: Version | None, b: Version | None) -> bool:
    # Compare upper bounds where None is +infinity.
    if b is None:
        return a is not None
    if a is None:
        return False
    return a < b


def _normalize(
    intervals: list[tuple[Version, Version | None]],
) -> tuple[tuple[Version, Version | None], ...]:
    live = [(lo, hi) for lo, hi in intervals if hi is None or lo < hi]
    live.sort(key=lambda iv: (iv[0], iv[1] is None, iv[1] or ZERO))
    merged: list[tuple[Version, Version | None]] = []
    for lo, hi in live:
        if merged:
            plo, phi = merged[-1]
            if phi is None or lo <= phi:
                if _lt_bound(phi, hi):
                    merged[-1] = (plo, hi)
                continue
        merged.append((lo, hi))
    return tuple(merged)


def parse_range(text: str) -> VersionRange:
    """Parse "||"-separated disjuncts of whitespace-separated comparator atoms."""
    intervals: list[tuple[Version, Version | None]] = []
    for disjunct in text.split("||"):
        atoms = disjunct.split()
        if not atoms:
            raise ToolError("E-BAD-RANGE", f"empty disjunct in range {quote(text)}")
        lo, hi = ZERO, None
        for atom in atoms:
            alo, ahi = _atom_interval(atom)
            if alo > lo:
                lo = alo
            if _lt_bound(ahi, hi):
                hi = ahi
        intervals.append((lo, hi))
    return VersionRange(_normalize(intervals))


def satisfies(r: VersionRange, v: Version) -> bool:
    return any(lo <= v and (hi is None or v < hi) for lo, hi in r.intervals)


def intersect(a: VersionRange, b: VersionRange) -> VersionRange:
    out: list[tuple[Version, Version | None]] = []
    for alo, ahi in a.intervals:
        for blo, bhi in b.intervals:
            lo = max(alo, blo)
            hi = ahi if _lt_bound(ahi, bhi) else bhi
            out.append((lo, hi))
    return VersionRange(_normalize(out))


def highest_satisfying(r: VersionRange, candidates: list[Version]) -> Version | None:
    best: Version | None = None
    for c in candidates:
        if satisfies(r, c) and (best is None or c > best):
            best = c
    return best


def render_range(r: VersionRange) -> str:
    """Canonical form: ">=lo <hi" conjunctions joined by " || "."""
    if r.is_empty():
        return "<0.0.0"
    if r.is_universal():
        return "*"
    parts = []
    for lo, hi in r.intervals:
        parts.append(f">={lo}" if hi is None else f">={lo} <{hi}")
    return " || ".join(parts)
