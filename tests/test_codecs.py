"""Serialization round-trips, canonical ordering, and malformed-input handling."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from spreadforge import codecs, verify
from spreadforge.codecs import CodeHeader, read_code, write_code
from spreadforge.construction import (
    build_group,
    default_completion,
    orbit_code,
    spread_components,
    spread_union,
    validate_params,
)
from spreadforge.errors import (
    DuplicateMember,
    MalformedHeader,
    NonCanonicalMember,
    VersionUnsupported,
)
from spreadforge.reduction import ReductionContext
from spreadforge.subspaces import Subspace, SubspaceCode
from spreadforge.verify import classify, codes_equal


def _spread_header(pekt, i=1, j=None, component="spread", bm=None):
    p, e, k, t = pekt
    return CodeHeader(p=p, e=e, k=k, t=t, kind=codecs.KIND_SUBSPACES,
                      component=component, i=i, j=(t + 1 if j is None else j), bm=bm)


def test_roundtrip_small_spread(spreads):
    pekt = (2, 1, 1, 2)
    text = write_code(spreads[pekt], _spread_header(pekt))
    header, code = read_code(text)
    assert codes_equal(code, spreads[pekt])
    assert write_code(code, header) == text
    assert header.n == 4 and header.r == 3


def test_roundtrip_line_code(ctx_2122):
    code = orbit_code(ctx_2122, 1)
    header = CodeHeader(p=2, e=1, k=2, t=2, kind=codecs.KIND_LINES, component="Ci", i=1)
    text = write_code(code, header)
    header2, code2 = read_code(text)
    assert codes_equal(code2, code)
    assert write_code(code2, header2) == text


def test_member_kind_must_match_the_header_kind(ctx_2122, spreads):
    lines = orbit_code(ctx_2122, 1)
    with pytest.raises(ValueError):
        write_code(lines, _spread_header((2, 1, 2, 2), component="Ci", j=None))
    with pytest.raises(ValueError):
        write_code(spreads[(2, 1, 2, 2)],
                   CodeHeader(p=2, e=1, k=2, t=2, kind=codecs.KIND_LINES, component="spread",
                              i=1, j=3))


def test_read_back_equals_the_pipeline_code(spreads):
    # reading builds only F_p, F_q and F_{q^k}, which is all that members use
    pekt = (2, 1, 2, 2)
    header, code = read_code(write_code(spreads[pekt], _spread_header(pekt)))
    assert header.tower().nlevels == 3
    assert codes_equal(code, spreads[pekt])


def test_given_records_are_the_codes_records(contexts, spreads):
    # construct passes the parts' records merged as the spread's body: the same text
    pekt = (2, 1, 2, 2)
    parts = spread_components(contexts[pekt], 1, 3)
    spread = spreads[pekt]
    merged = sorted(record for part in parts for record in codecs.code_records(part))
    assert merged == codecs.code_records(spread)
    header = _spread_header(pekt)
    assert write_code(spread, header, merged) == write_code(spread, header)


def test_golden_files_rewrite_byte_identical():
    paths = sorted((Path(__file__).parent / "golden").glob("*/*.code"))
    assert len(paths) == 8
    for path in paths:
        text = path.read_text(encoding="ascii")
        header, code = read_code(text)
        assert write_code(code, header) == text


def test_spread_file_has_85_records(spreads):
    pekt = (2, 1, 2, 2)
    text = write_code(spreads[pekt], _spread_header(pekt))
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(body) == 85
    assert body == sorted(body)


def test_distinct_codes_have_distinct_bytes(ctx_2122):
    parts = spread_components(ctx_2122, 1, 3)
    header = _spread_header((2, 1, 2, 2), component="external")
    texts = {write_code(part, header) for part in parts}
    assert len(texts) == 3


def test_bm_fingerprint_is_stable(ctx_2122):
    a = codecs.completion_fingerprint(ctx_2122.block_rows, default_completion(ctx_2122))
    b = codecs.completion_fingerprint(ctx_2122.block_rows, default_completion(ctx_2122))
    assert a == b and len(a) == 16


def _valid_text(spreads):
    return write_code(spreads[(2, 1, 1, 2)], _spread_header((2, 1, 1, 2)))


def test_truncated_body_reports_line_number(spreads):
    text = _valid_text(spreads)
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(MalformedHeader) as err:
        read_code(truncated)
    assert "line" in str(err.value)


def test_unknown_version_rejected(spreads):
    text = _valid_text(spreads).replace("spreadforge-code v1", "spreadforge-code v9")
    with pytest.raises(VersionUnsupported):
        read_code(text)


def test_missing_magic_rejected(spreads):
    text = "\n".join(_valid_text(spreads).splitlines()[1:]) + "\n"
    with pytest.raises(MalformedHeader):
        read_code(text)


def test_duplicate_member_rejected(spreads):
    lines = _valid_text(spreads).splitlines()
    lines.append(lines[-1])
    lines = [l.replace("members=15", "members=16") for l in lines]
    with pytest.raises(DuplicateMember):
        read_code("\n".join(lines) + "\n")


def test_non_adjacent_repeat_is_refused_as_out_of_order(spreads):
    lines = _valid_text(spreads).splitlines()
    lines.append(lines[-2])  # a, b, a: the repeat sorts before its predecessor
    lines = [l.replace("members=15", "members=16") for l in lines]
    with pytest.raises(NonCanonicalMember, match="out of canonical order"):
        read_code("\n".join(lines) + "\n")


def test_unsorted_body_rejected(spreads):
    lines = _valid_text(spreads).splitlines()
    lines[-1], lines[-2] = lines[-2], lines[-1]
    with pytest.raises(NonCanonicalMember):
        read_code("\n".join(lines) + "\n")


def test_non_echelon_member_rejected(spreads):
    pekt = (2, 1, 2, 2)
    text = write_code(spreads[pekt], _spread_header(pekt))
    lines = text.splitlines()
    first_body = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    rows = lines[first_body].split(";")
    lines[first_body] = ";".join(rows[::-1])  # swapped rows are not RREF
    with pytest.raises(NonCanonicalMember):
        read_code("\n".join(lines) + "\n")


def test_bad_digit_rejected(spreads):
    text = _valid_text(spreads)
    lines = text.splitlines()
    lines[-1] = "3" + lines[-1][1:]  # digit 3 invalid for p = 2
    with pytest.raises(MalformedHeader):
        read_code("\n".join(lines) + "\n")


def test_inconsistent_derived_key_rejected(spreads):
    text = _valid_text(spreads).replace("# r=3", "# r=4")
    with pytest.raises(MalformedHeader):
        read_code(text)


def test_header_validates_kind_and_component():
    with pytest.raises(ValueError):
        CodeHeader(p=2, e=1, k=1, t=2, kind="planes", component="spread")
    with pytest.raises(ValueError):
        CodeHeader(p=2, e=1, k=1, t=2, kind="lines", component="mystery")


@pytest.mark.parametrize("component, tags, message", [
    ("Ci", {}, "component 'Ci' requires an 'i' tag"),
    ("Ai", {"j": 2}, "component 'Ai' requires an 'i' tag"),
    ("spread", {"j": 2}, "component 'spread' requires an 'i' tag"),
    ("spread", {"i": 1}, "component 'spread' requires a 'j' tag"),
    ("Bj", {"i": 1}, "component 'Bj' requires a 'j' tag"),
])
def test_component_tags_are_required_by_the_header(component, tags, message):
    # so write_code cannot write a header that read_code refuses
    with pytest.raises(ValueError, match=f"^{message}$"):
        CodeHeader(p=2, e=1, k=1, t=1, kind="subspaces", component=component, **tags)


@pytest.mark.parametrize("changes", [
    {"i": 99, "kind": "mystery"}, {"i": 99}, {"kind": "planes"}, {"component": "mystery"},
    {"component": "Bj"}, {"i": None}, {"j": 5}, {"p": 4}, {"e": 0},
])
def test_replace_runs_the_header_checks(changes):
    header = CodeHeader(p=2, e=1, k=2, t=2, kind="subspaces", component="Ci", i=1)
    with pytest.raises(ValueError):
        header._replace(**changes)


def test_replace_keeps_a_valid_header():
    header = CodeHeader(p=2, e=1, k=2, t=2, kind="subspaces", component="Ci", i=1)
    tagged = header._replace(bm="0123456789abcdef")
    assert type(tagged) is CodeHeader
    assert tagged == CodeHeader(p=2, e=1, k=2, t=2, kind="subspaces", component="Ci", i=1,
                                bm="0123456789abcdef")
    with pytest.raises(ValueError):
        header._replace(nonsense=1)


def test_component_tags_are_required_on_read(spreads):
    text = _valid_text(spreads)
    without_i = "\n".join(l for l in text.splitlines() if l != "# i=1") + "\n"
    with pytest.raises(MalformedHeader, match="^component 'spread' requires an 'i' tag$"):
        read_code(without_i)


def test_report_serialization(spreads):
    report = classify(spreads[(2, 1, 1, 2)])
    text = codecs.report_text(report)
    assert "verdict=Spread" in text
    assert "cardinality=15" in text
    blob = json.loads(codecs.report_json(report))
    assert blob["verdict"] == "Spread"
    assert blob["coverage_count"] == 15
    assert blob["min_distance"] == 2


# -- record types: value semantics the serialized forms rest on -------------------------

_REPORT_2112_SPREAD = (
    "cardinality=15\nconstant_dimension=True\ndimension=1\nambient=4\nfield_order=2\n"
    "min_distance=2\npairwise_trivial=True\ncoverage_count=15\nspread_bound=15\n"
    "partial_spread_bound=15\nverdict=Spread\n"
)
_REPORT_2112_CI = (
    "cardinality=9\nconstant_dimension=True\ndimension=1\nambient=4\nfield_order=2\n"
    "min_distance=2\npairwise_trivial=True\ncoverage_count=9\nspread_bound=15\n"
    "partial_spread_bound=15\nverdict=PartialSpread\n"
)


@pytest.mark.parametrize("part, expected", [("spread", _REPORT_2112_SPREAD),
                                            ("Ci", _REPORT_2112_CI)])
def test_report_text_and_json_are_pinned(ctx_2112, spreads, part, expected):
    code = spreads[(2, 1, 1, 2)] if part == "spread" else spread_components(ctx_2112, 1, 3)[0]
    report = classify(code)
    assert codecs.report_text(report) == expected
    blob = json.loads(codecs.report_json(report))
    assert list(blob) == sorted(blob)
    assert {key: str(value) for key, value in blob.items()} == dict(
        line.split("=") for line in expected.splitlines())
    assert blob["constant_dimension"] is True and blob["coverage_count"] == report.cardinality


def test_code_params_str_and_repr():
    params = validate_params(2, 1, 1, 2)
    assert str(params) == "(p=2, e=1, k=1, t=2)"
    assert repr(params) == ("CodeParams(p=2, e=1, k=1, t=2, q=2, qk=2, s=4, n=4, r=3, "
                            "max_exponent=3, group_order=9)")


def test_record_fields_cannot_be_assigned(spreads):
    for record, field in [
        (validate_params(2, 1, 1, 2), "p"),
        (classify(spreads[(2, 1, 1, 2)]), "verdict"),
        (_spread_header((2, 1, 1, 2)), "kind"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_equal_headers_are_equal_and_hash_equal():
    a = _spread_header((2, 1, 2, 2), bm="0123456789abcdef")
    b = CodeHeader(p=2, e=1, k=2, t=2, kind="subspaces", component="spread",
                   i=1, j=3, bm="0123456789abcdef")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != _spread_header((2, 1, 2, 2), bm="fedcba9876543210")
    assert CodeHeader(p=2, e=1, k=1, t=2, kind="lines", component="external").i is None


# --- the code form ------------------------------------------------------------------


def test_member_dimension_must_match_the_header_kind(spreads):
    # the packing fits a (2,1,2,2) subspaces file, but the member is a point, not a plane
    pack = spreads[(2, 1, 2, 2)].pack
    point = SubspaceCode(pack, [1])
    assert pack.dim(1) == 1
    with pytest.raises(ValueError):
        write_code(point, _spread_header((2, 1, 2, 2)))


def test_a_read_code_holds_at_most_100_bytes_a_member():
    params = validate_params(2, 1, 4, 2)
    spread = spread_union(params, spread_components(build_group(params), 1, 3))
    text = write_code(spread, _spread_header((2, 1, 4, 2)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, code = read_code(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(code) == 4369
    assert held / len(code) <= 100


def test_benchmark_call_shapes_keep_working(ctx_2122, spreads):
    # perfbench/traced.py: `pool_speedup` ranks `list(read_code(text)[1])` with a worker
    # count, and its counters take `len` of `orbit_code`'s result, of `reduce_code`'s
    # argument and of `read_code`'s code
    text = write_code(spreads[(2, 1, 2, 2)], _spread_header((2, 1, 2, 2)))
    code = read_code(text)[1]
    subs = list(code)
    assert len(code) == len(subs) == 85
    assert all(isinstance(s, Subspace) and s.dim == 2 for s in subs)
    assert verify.pairwise_min_distance(subs, 2) == 4
    orbit = orbit_code(ctx_2122, 1)
    assert len(orbit) == 75
    assert len(ReductionContext(ctx_2122.tower).reduce_code(orbit)) == len(orbit)
