from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedplan.diagnostics import ToolError
from fedplan.semver import (
    MAX_COMPONENT,
    Version,
    highest_satisfying,
    intersect,
    parse_range,
    parse_version,
    render_range,
    satisfies,
)
from oracles import all_versions, oracle_satisfies, random_range_text


def v(text: str) -> Version:
    return parse_version(text)


def test_parse_version_plain():
    assert parse_version("18.2.0") == Version(18, 2, 0)


@pytest.mark.parametrize("bad", ["1.0.0-rc.1", "1.2", "1", "", "a.b.c", "1.-2.0", "1.2.3.4"])
def test_parse_version_rejects(bad):
    with pytest.raises(ToolError) as err:
        parse_version(bad)
    assert err.value.code == "E-BAD-VERSION"


def test_component_bound_is_two_pow_53_minus_one():
    assert MAX_COMPONENT == 9007199254740991
    assert parse_version("9007199254740991.0.9007199254740991") == Version(MAX_COMPONENT, 0, MAX_COMPONENT)
    assert parse_version("0009007199254740991.0.0") == Version(MAX_COMPONENT, 0, 0)
    assert render_range(parse_range("^0.0.9007199254740991")) == ">=0.0.9007199254740991 <0.0.9007199254740992"
    with pytest.raises(ToolError) as err:
        parse_version("1.9007199254740992.0")
    assert (err.value.code, err.value.message) == (
        "E-BAD-VERSION", "version components must be at most 9007199254740991, got '1.9007199254740992.0'"
    )
    with pytest.raises(ToolError) as err:
        parse_range(">=1.0.0 <9007199254740992.0.0")
    assert (err.value.code, err.value.message) == (
        "E-BAD-RANGE", "version components must be at most 9007199254740991, got '<9007199254740992.0.0'"
    )


@pytest.mark.parametrize("text", ["9" * 5000 + ".0.0", "0.0." + "1" * 5000], ids=["major", "patch"])
def test_version_with_5000_digit_component_is_bad_version(text):
    with pytest.raises(ToolError) as err:
        parse_version(text)
    assert err.value.code == "E-BAD-VERSION"
    with pytest.raises(ToolError) as err:
        parse_range("^" + text)
    assert err.value.code == "E-BAD-RANGE"


def test_version_total_order():
    assert v("1.2.3") < v("1.3.0") < v("2.0.0")
    assert sorted([v("2.0.0"), v("0.9.9"), v("1.10.0")]) == [
        v("0.9.9"),
        v("1.10.0"),
        v("2.0.0"),
    ]


def test_caret_interval():
    r = parse_range("^1.2.3")
    assert r.intervals == ((v("1.2.3"), v("2.0.0")),)


def test_caret_zero_major_zero_minor():
    assert parse_range("^0.2.3").intervals == ((v("0.2.3"), v("0.3.0")),)
    assert parse_range("^0.0.3").intervals == ((v("0.0.3"), v("0.0.4")),)


def test_tilde_interval():
    assert parse_range("~1.2.3").intervals == ((v("1.2.3"), v("1.3.0")),)


def test_wildcard_is_universal():
    assert parse_range("*").is_universal()


def test_union_range_membership():
    r = parse_range(">=1.0.0 <1.5.0 || 2.0.0")
    # Exact membership check against the enumerated oracle.
    for t in all_versions(5):
        assert satisfies(r, Version(*t)) == oracle_satisfies(">=1.0.0 <1.5.0 || 2.0.0", t)


@pytest.mark.parametrize("bad", ["", "  ", "||", "1.2.x", "1.2.3 - 2.0.0", ">1.0", "foo"])
def test_parse_range_rejects(bad):
    with pytest.raises(ToolError) as err:
        parse_range(bad)
    assert err.value.code == "E-BAD-RANGE"


def test_satisfies_examples():
    assert satisfies(parse_range("^18.2.0"), v("18.2.0"))
    assert not satisfies(parse_range("~1.2.3"), v("1.3.0"))
    assert satisfies(parse_range("^0.2.3"), v("0.2.9"))


def test_intersect_universal_identity():
    a = parse_range("^1.2.0")
    assert intersect(a, parse_range("*")) == a


def test_intersect_disjoint_carets_empty():
    assert intersect(parse_range("^1.2.0"), parse_range("^2.0.0")).is_empty()


def test_intersect_union_example():
    got = intersect(parse_range(">=1.4.0"), parse_range("~1.4.2 || ^1.6.0"))
    assert got.intervals == (
        (v("1.4.2"), v("1.5.0")),
        (v("1.6.0"), v("2.0.0")),
    )


def test_highest_satisfying():
    candidates = [v("18.0.0"), v("18.2.0"), v("19.0.0")]
    # Oracle: filter then max.
    expect = max(c for c in candidates if satisfies(parse_range("^18.0.0"), c))
    assert highest_satisfying(parse_range("^18.0.0"), candidates) == expect == v("18.2.0")
    assert highest_satisfying(parse_range("*"), []) is None
    assert highest_satisfying(parse_range("<1.0.0"), [v("1.0.0")]) is None


def test_membership_matches_oracle_over_random_ranges():
    rng = random.Random(1337)
    versions = all_versions(5)
    for _ in range(200):
        text = random_range_text(rng)
        r = parse_range(text)
        for t in versions:
            assert satisfies(r, Version(*t)) == oracle_satisfies(text, t), (text, t)


def test_intersection_matches_conjunction_of_oracles():
    rng = random.Random(99)
    versions = all_versions(4)
    for _ in range(100):
        a_text, b_text = random_range_text(rng), random_range_text(rng)
        both = intersect(parse_range(a_text), parse_range(b_text))
        for t in versions:
            expect = oracle_satisfies(a_text, t) and oracle_satisfies(b_text, t)
            assert satisfies(both, Version(*t)) == expect, (a_text, b_text, t)


def test_render_round_trip_preserves_membership():
    rng = random.Random(7)
    versions = all_versions(5)
    for _ in range(150):
        text = random_range_text(rng)
        r = parse_range(text)
        reparsed = parse_range(render_range(r))
        assert reparsed == r
        for t in versions:
            assert satisfies(reparsed, Version(*t)) == satisfies(r, Version(*t))


def test_render_canonical_forms():
    assert render_range(parse_range("*")) == "*"
    assert render_range(parse_range("^1.2.3")) == ">=1.2.3 <2.0.0"
    assert render_range(intersect(parse_range("^1.0.0"), parse_range("^2.0.0"))) == "<0.0.0"
    assert render_range(parse_range(">=1.4.0")) == ">=1.4.0"


_version_st = st.builds(
    Version,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
_range_st = st.builds(
    lambda seed: parse_range(random_range_text(random.Random(seed))),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=300, deadline=None)
@given(_range_st, _range_st, _version_st)
def test_intersect_law(a, b, version):
    assert satisfies(intersect(a, b), version) == (satisfies(a, version) and satisfies(b, version))


@pytest.mark.parametrize(
    "digits", ["１.٣.0", "1.0.٣", "９９.0.0"], ids=["fullwidth-arabic", "arabic-indic", "fullwidth"]
)
def test_non_ascii_digits_are_not_version_components(digits):
    # int() reads these as 1, 3 and 99; a manifest version must not.
    with pytest.raises(ToolError) as err:
        parse_version(digits)
    assert err.value.code == "E-BAD-VERSION"
    with pytest.raises(ToolError) as err:
        parse_range("^" + digits)
    assert err.value.code == "E-BAD-RANGE"


def test_long_offending_text_is_quoted_by_a_bounded_prefix():
    text = "9" * 5000 + ".0.0"
    with pytest.raises(ToolError) as err:
        parse_version(text)
    assert err.value.message == (
        f"version components must be at most 9007199254740991, got {'9' * 64!r}... (5004 characters)"
    )
    with pytest.raises(ToolError) as err:
        parse_range(">=1.0.0 <" + "x" * 100)
    assert err.value.message == f"unsupported range token {'<' + 'x' * 63!r}... (101 characters)"
    with pytest.raises(ToolError) as err:
        parse_version("v" * 64)
    assert err.value.message == f"expected MAJOR.MINOR.PATCH with decimal components, got {'v' * 64!r}"
