"""Bit-exact text serialization of codes and verification reports.

A code file is line oriented and diff friendly: `#`-prefixed header lines
carrying one key=value pair each, then one member per line.  Members are
written as base-p digit strings, rows joined by `;`, and the body is sorted
by those digit strings, so a given code has exactly one on-disk form.
A row's digit string is its entries' little-endian base-p digits in
order, which are the lanes of its packed row (see
:mod:`spreadforge.subspaces`) from the lowest up: the reversed string is
the packed row written in base 2^w, w bits a lane.  So, once its length
and digits are checked, a row is read by one `int(text[::-1], 2**w)`,
and a member is canonical when its packed rows pass a structural reduced
row echelon test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    DuplicateMember,
    MalformedHeader,
    NonCanonicalMember,
    VersionUnsupported,
)
from .gftower import DIGIT_ALPHABET, FieldTower, check_field_size, check_tower_params
from .subspaces import RowPacking, SubspaceCode, row_packing

if TYPE_CHECKING:  # annotations only: codecs loads no verify or reduction at run time
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

    @classmethod
    def _make(cls, iterable):  # through __new__, so that `_replace` runs its checks too
        return cls(*iterable)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (KIND_LINES, KIND_SUBSPACES):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.component not in COMPONENTS:
            raise ValueError(f"unknown component {self.component!r}")
        check_tower_params(self.p, self.e, self.k, self.t)
        if self.i is not None and not 1 <= self.i <= self.t:
            raise ValueError(f"tag i={self.i} not in 1..{self.t}")
        if self.j is not None and not self.t + 1 <= self.j <= self.s:
            raise ValueError(f"tag j={self.j} not in {self.t + 1}..{self.s}")
        if self.component in ("Ci", "Ai", "spread") and self.i is None:
            raise ValueError(f"component {self.component!r} requires an 'i' tag")
        if self.component in ("Bj", "spread") and self.j is None:
            raise ValueError(f"component {self.component!r} requires a 'j' tag")
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
        """The levels F_p, F_q, F_{q^k} that members live in; refused past TABLE_GUARD.

        The degree-t level on top only drives the group construction, and its
        modulus search, which grows with t, would be all the cost of a read.
        """
        check_field_size(self.p, self.e, self.k)
        return FieldTower(self.p, (self.e, self.k))


def completion_fingerprint(pack: RowPacking, blocks: Sequence[Sequence[int]]) -> str:
    """Short stable digest of the completion blocks B_1..B_r, each as its rows packed by `pack`."""
    import hashlib  # here, not at the top: only construct pays for loading it

    text = "|".join(";".join(map(pack.text, rows)) for rows in blocks)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# -- member records --------------------------------------------------------------


def member_record(pack: RowPacking, key: int) -> str:
    """Canonical one-line text form of a member (a line's record is its one row)."""
    return ";".join(map(pack.text, pack.split(key)))


def code_records(code: SubspaceCode) -> list[str]:
    """The members' records in file order: sorted as strings, lowest lane first."""
    return sorted(member_record(code.pack, key) for key in code.keys)


def _member_shape(header: CodeHeader) -> tuple[int, int, int]:
    """(level, rows, width) of every member of a file of this kind."""
    if header.kind == KIND_LINES:
        return 2, 1, header.s
    return 1, header.k, header.n


def _parse_member(pack: RowPacking, nrows: int, digits: frozenset, text: str,
                  lineno: int) -> int:
    """A record's member key; `digits` are the p valid digit symbols."""
    rows = text.split(";")
    if len(rows) != nrows:
        raise MalformedHeader(f"line {lineno}: expected {nrows} rows, found {len(rows)}")
    for row in rows:
        if len(row) != pack.lanes:
            raise MalformedHeader(
                f"line {lineno}: row has {len(row)} digits, expected {pack.lanes}"
            )
        if not digits.issuperset(row):
            bad = next(i for i, ch in enumerate(row) if ch not in digits)
            pos = bad - bad % pack.digits  # the first digit of its entry
            raise MalformedHeader(f"line {lineno}: invalid digits {row[pos:pos + pack.digits]!r}")
    packed = tuple(map(pack.from_text, rows))
    if not pack.is_rref(packed):
        raise NonCanonicalMember(f"line {lineno}: basis is not in reduced echelon form")
    return pack.join(packed)


# -- whole files -------------------------------------------------------------------


def write_code(code: SubspaceCode, header: CodeHeader, records: list[str] | None = None) -> str:
    """Serialize a code to its unique text form.

    `records`, when given, must equal `code_records(code)`: a caller that has
    formatted the members already passes them, so none is formatted twice.
    """
    level, nrows, width = _member_shape(header)
    pack = code.pack
    if (pack.level, pack.ncols) != (level, width) or (code.keys and code.dim != nrows):
        raise ValueError(f"member kind does not match header kind {header.kind!r}")
    if records is None:
        records = code_records(code)
    lines = [f"# {FORMAT_NAME} v{FORMAT_VERSION}"]
    for key in ("p", "e", "k", "t", "q", "s", "n", "r", "kind", "component", "i", "j", "bm"):
        value = getattr(header, key)
        if value is not None:
            lines.append(f"# {key}={value}")
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


def read_code(text: str) -> tuple[CodeHeader, SubspaceCode]:
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
            i=intfield("i") if "i" in fields else None,
            j=intfield("j") if "j" in fields else None,
            bm=fields.get("bm"),
        )
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from None
    tower = header.tower()  # bounds e and k before any derived key is computed
    # r = 1 + q^k + ... + q^(k(t-1)) has more than (t-1)(bitlen(q^k)-1) bits, so a
    # shorter declared r is refused before r, whose cost grows with t, is computed
    r_bits = (header.t - 1) * (tower.cardinality(2).bit_length() - 1)
    for key in ("q", "s", "n", "r"):
        declared = intfield(key)
        if (key == "r" and declared.bit_length() <= r_bits) or declared != getattr(header, key):
            raise MalformedHeader(
                f"derived key {key}={fields[key]} inconsistent with parameters"
            )
    members = intfield("members")
    body = lines[body_start:]
    if len(body) != members:
        raise MalformedHeader(
            f"line {body_start + len(body) + 1}: body has {len(body)} records, header says {members}"
        )
    level, nrows, width = _member_shape(header)
    pack = row_packing(tower, level, width)
    digits = frozenset(DIGIT_ALPHABET[:header.p])
    keys = []
    prev: str | None = None
    for offset, record in enumerate(body):
        lineno = body_start + offset + 1
        if prev is not None and record <= prev:  # sorted, so a repeat follows its twin
            if record == prev:
                raise DuplicateMember(f"line {lineno}: duplicate member")
            raise NonCanonicalMember(f"line {lineno}: members out of canonical order")
        prev = record
        keys.append(_parse_member(pack, nrows, digits, record, lineno))
    return header, SubspaceCode(pack, keys)


# -- verification reports -------------------------------------------------------------


def report_text(report: VerificationReport) -> str:
    """Flat key=value block, one field per line."""
    lines = [f"{key}={value}" for key, value in report.as_dict().items()]
    return "\n".join(lines) + "\n"


def report_json(report: VerificationReport) -> str:
    import json  # here, not at the top: no command pays for loading it

    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
