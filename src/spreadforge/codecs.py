"""Bit-exact text serialization of codes and verification reports.

A code file is line oriented and diff friendly: `#`-prefixed header lines
carrying one key=value pair each, then one member per line.  Members are
written as base-p digit strings, rows joined by `;`, and the body is sorted
by those digit strings, so a given code has exactly one on-disk form.
Entries are canonical element indexes (ints), whose little-endian base-p
digits are the element flattened level-major, so writing and parsing an
entry is one lookup in a per-level table of digit strings.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .construction import CompletionChoice
from .errors import (
    DuplicateMember,
    MalformedHeader,
    NonCanonicalMember,
    VersionUnsupported,
)
from .gftower import DIGIT_ALPHABET, FieldTower, field_build, is_prime
from .subspaces import Line, Matrix, Subspace, Vector, canonical_line, canonical_subspace
from .verify import VerificationReport

FORMAT_NAME = "spreadforge-code"
FORMAT_VERSION = 1

KIND_LINES = "lines"
KIND_SUBSPACES = "subspaces"
COMPONENTS = ("Ci", "Ai", "Bj", "spread", "oracle", "external")


class _HeaderFields(NamedTuple):
    """CodeHeader's fields (a NamedTuple may not define __new__, so the checks are below)."""

    p: int
    e: int
    k: int
    t: int
    kind: str
    component: str
    i: int | None = None
    j: int | None = None
    bm: str | None = None


class CodeHeader(_HeaderFields):
    """Identity of a code file: parameters, kind, and provenance tags."""

    __slots__ = ()  # no instance __dict__: like the fields, nothing can be assigned

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (KIND_LINES, KIND_SUBSPACES):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.component not in COMPONENTS:
            raise ValueError(f"unknown component {self.component!r}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.p > len(DIGIT_ALPHABET):
            raise ValueError(f"characteristic {self.p} exceeds the digit alphabet")
        if min(self.e, self.k, self.t) < 1:
            raise ValueError(f"degrees must be >= 1, got e={self.e}, k={self.k}, t={self.t}")
        if self.i is not None and not 1 <= self.i <= self.t:
            raise ValueError(f"tag i={self.i} not in 1..{self.t}")
        if self.j is not None and not self.t + 1 <= self.j <= self.s:
            raise ValueError(f"tag j={self.j} not in {self.t + 1}..{self.s}")
        return self

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def s(self) -> int:
        return 2 * self.t

    @property
    def n(self) -> int:
        return self.k * self.s

    @property
    def r(self) -> int:
        qk = self.q**self.k
        return (qk**self.t - 1) // (qk - 1)

    def tower(self) -> FieldTower:
        return field_build(self.p, self.e, self.k, self.t)


def completion_fingerprint(choice: CompletionChoice) -> str:
    """Short stable digest of the chosen completion blocks."""
    import hashlib  # here, not at the top: only construct pays for loading it

    text = "|".join(_matrix_record(block) for block in choice.blocks)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# -- member records --------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _digit_strings(tower: FieldTower, level: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """Digit string of every element of a level by index, and its inverse."""
    p, span = tower.p, tower.digit_length(level)
    strings = tuple(
        "".join(DIGIT_ALPHABET[index // p**d % p] for d in range(span))
        for index in range(tower.cardinality(level))
    )
    return strings, {text: index for index, text in enumerate(strings)}


def _row_record(tower: FieldTower, level: int, row: Vector) -> str:
    strings = _digit_strings(tower, level)[0]
    return "".join(strings[a] for a in row)


def _matrix_record(m: Matrix) -> str:
    return ";".join(_row_record(m.tower, m.level, row) for row in m.rows)


def member_record(member) -> str:
    """Canonical one-line text form of a Line or Subspace."""
    if isinstance(member, Line):
        return _row_record(member.tower, member.level, member.generator)
    if isinstance(member, Subspace):
        return _matrix_record(member.matrix)
    raise TypeError(f"cannot serialize {type(member).__name__}")


def _parse_row(tower: FieldTower, level: int, width: int, text: str, lineno: int) -> Vector:
    span = tower.digit_length(level)
    if len(text) != width * span:
        raise MalformedHeader(
            f"line {lineno}: row has {len(text)} digits, expected {width * span}"
        )
    index = _digit_strings(tower, level)[1]
    entries = []
    for pos in range(0, len(text), span):
        entry = index.get(text[pos:pos + span])
        if entry is None:
            raise MalformedHeader(f"line {lineno}: invalid digits {text[pos:pos + span]!r}")
        entries.append(entry)
    return tuple(entries)


def _parse_member(header: CodeHeader, tower: FieldTower, text: str, lineno: int):
    if header.kind == KIND_LINES:
        if ";" in text:
            raise MalformedHeader(f"line {lineno}: line records must be a single row")
        gen = _parse_row(tower, 2, header.s, text, lineno)
        try:
            line = canonical_line(tower, 2, gen)
        except Exception as exc:
            raise NonCanonicalMember(f"line {lineno}: {exc}") from exc
        if line.generator != gen:
            raise NonCanonicalMember(f"line {lineno}: generator is not normalized")
        return line
    rows = text.split(";")
    if len(rows) != header.k:
        raise MalformedHeader(f"line {lineno}: expected {header.k} rows, found {len(rows)}")
    parsed = [_parse_row(tower, 1, header.n, row, lineno) for row in rows]
    matrix = Matrix(tower, 1, parsed)
    try:
        sub = canonical_subspace(matrix)
    except Exception as exc:
        raise NonCanonicalMember(f"line {lineno}: {exc}") from exc
    if sub.matrix != matrix:
        raise NonCanonicalMember(f"line {lineno}: basis is not in reduced echelon form")
    return sub


# -- whole files -------------------------------------------------------------------


def write_code(code, header: CodeHeader) -> str:
    """Serialize a code to its unique text form."""
    for member in code:
        is_line = isinstance(member, Line)
        if is_line != (header.kind == KIND_LINES):
            raise ValueError(f"member kind does not match header kind {header.kind!r}")
        break
    records = sorted(member_record(m) for m in code)
    lines = [f"# {FORMAT_NAME} v{FORMAT_VERSION}"]
    for key in ("p", "e", "k", "t"):
        lines.append(f"# {key}={getattr(header, key)}")
    for key in ("q", "s", "n", "r"):
        lines.append(f"# {key}={getattr(header, key)}")
    lines.append(f"# kind={header.kind}")
    lines.append(f"# component={header.component}")
    if header.i is not None:
        lines.append(f"# i={header.i}")
    if header.j is not None:
        lines.append(f"# j={header.j}")
    if header.bm is not None:
        lines.append(f"# bm={header.bm}")
    lines.append(f"# members={len(records)}")
    lines.extend(records)
    return "\n".join(lines) + "\n"


def _parse_header_lines(lines: list[str]) -> tuple[dict, int]:
    if not lines:
        raise MalformedHeader("empty stream")
    magic = lines[0].strip()
    if not magic.startswith(f"# {FORMAT_NAME} "):
        raise MalformedHeader(f"line 1: expected '# {FORMAT_NAME} v<N>' magic")
    version = magic[len(f"# {FORMAT_NAME} "):]
    if version != f"v{FORMAT_VERSION}":
        raise VersionUnsupported(f"unsupported format version {version!r}")
    fields: dict[str, str] = {}
    idx = 1
    while idx < len(lines) and lines[idx].startswith("#"):
        body = lines[idx][1:].strip()
        if "=" not in body:
            raise MalformedHeader(f"line {idx + 1}: expected key=value, got {body!r}")
        key, _, value = body.partition("=")
        if key in fields:
            raise MalformedHeader(f"line {idx + 1}: duplicate header key {key!r}")
        fields[key] = value
        idx += 1
    return fields, idx


def read_code(text: str) -> tuple[CodeHeader, frozenset]:
    """Parse a code file; inverse of write_code on canonical input."""
    lines = text.splitlines()
    fields, body_start = _parse_header_lines(lines)

    def intfield(key: str) -> int:
        if key not in fields:
            raise MalformedHeader(f"missing header key {key!r}")
        try:
            return int(fields[key])
        except ValueError:
            raise MalformedHeader(f"header key {key!r} is not an integer") from None

    p, e, k, t = (intfield(x) for x in ("p", "e", "k", "t"))
    kind = fields.get("kind")
    component = fields.get("component")
    if kind is None or component is None:
        raise MalformedHeader("missing 'kind' or 'component' header key")
    try:
        header = CodeHeader(
            p=p, e=e, k=k, t=t, kind=kind, component=component,
            i=int(fields["i"]) if "i" in fields else None,
            j=int(fields["j"]) if "j" in fields else None,
            bm=fields.get("bm"),
        )
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from None
    if header.component in ("Ci", "Ai", "spread") and header.i is None:
        raise MalformedHeader(f"component {header.component!r} requires an 'i' tag")
    if header.component in ("Bj", "spread") and header.j is None:
        raise MalformedHeader(f"component {header.component!r} requires a 'j' tag")
    for key in ("q", "s", "n", "r"):
        if intfield(key) != getattr(header, key):
            raise MalformedHeader(
                f"derived key {key}={fields[key]} inconsistent with parameters"
            )
    members = intfield("members")
    body = lines[body_start:]
    if len(body) != members:
        raise MalformedHeader(
            f"line {body_start + len(body) + 1}: body has {len(body)} records, header says {members}"
        )
    tower = header.tower()
    out = []
    seen: set[str] = set()
    prev: str | None = None
    for offset, record in enumerate(body):
        lineno = body_start + offset + 1
        if record in seen:
            raise DuplicateMember(f"line {lineno}: duplicate member")
        seen.add(record)
        if prev is not None and record < prev:
            raise NonCanonicalMember(f"line {lineno}: members out of canonical order")
        prev = record
        out.append(_parse_member(header, tower, record, lineno))
    return header, frozenset(out)


# -- verification reports -------------------------------------------------------------


def report_text(report: VerificationReport) -> str:
    """Flat key=value block, one field per line."""
    lines = [f"{key}={value}" for key, value in report.as_dict().items()]
    return "\n".join(lines) + "\n"


def report_json(report: VerificationReport) -> str:
    import json  # here, not at the top: no command pays for loading it

    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
