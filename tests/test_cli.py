"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spreadforge import cli, codecs, construction, gftower, verify
from spreadforge.cli import main
from spreadforge.construction import orbit_code, tail_orbit
from spreadforge.errors import InternalOrderCheckFailed
from spreadforge.gftower import TABLE_GUARD, FieldTower
from spreadforge.subspaces import Matrix, canonical_subspace

from conftest import count_calls

SRC = Path(__file__).resolve().parents[1] / "src"


def _construct(tmp_path: Path, name: str, *extra) -> Path:
    out = tmp_path / name
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "2", "--t", "2",
               "--out", str(out), *extra])
    assert rc == 0
    return out


# --- params -------------------------------------------------------------------


def test_params_listing_contents(capsys):
    assert main(["params", "--max-order", "16"]) == 0
    out = capsys.readouterr().out
    rows = {tuple(line.split()[:4]) for line in out.splitlines()[1:]}
    for included in (("2", "1", "1", "2"), ("2", "1", "1", "3"),
                     ("2", "1", "2", "2"), ("2", "2", "1", "2")):
        assert included in rows
    assert ("2", "1", "2", "3") not in rows  # gcd violation
    spread_row = next(l for l in out.splitlines() if l.split()[:4] == ["2", "1", "2", "2"])
    assert spread_row.split()[-3:] == ["5", "75", "85"]  # r, orbit, spread


def test_params_empty_range(capsys):
    assert main(["params", "--max-order", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_params_lists_no_characteristic_past_the_digit_alphabet(capsys):
    assert main(["params", "--max-order", "64"]) == 0
    primes = {int(line.split()[0]) for line in capsys.readouterr().out.splitlines()[1:]}
    assert max(primes) == 31  # 37..61 are prime and small enough, but unwritable


@pytest.mark.parametrize("max_order, rows, digest", [
    (1024, 103, "4d5d61817c56b7e6d2b0529932d10ecb1809256e87f7e23657f5015c016fc8af"),
    (1048576, 290, "2687b5fb32dad2acc2c01569347be4d2423fd7a0ea2739afed297475d7f83f3c"),
])
def test_params_listing_is_pinned(capsys, max_order, rows, digest):
    assert main(["params", "--max-order", str(max_order)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == rows + 1  # and the column header
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_params_lists_no_row_past_the_table_guard(capsys):
    # a row past the guard has no tower to build, and validate_params refuses it;
    # each degree loop stops at p^(e k t) <= TABLE_GUARD, so the listing is quick
    start = time.perf_counter()
    assert main(["params", "--max-order", str(4 * TABLE_GUARD)]) == 0
    assert time.perf_counter() - start < 1.0
    rows = [list(map(int, line.split()[:5])) for line in capsys.readouterr().out.splitlines()[1:]]
    orders = {(p, e, k, t): q ** (k * t) for p, e, k, t, q in rows}
    assert orders[(2, 1, 1, 20)] == TABLE_GUARD
    assert max(orders.values()) == TABLE_GUARD


# --- construct -----------------------------------------------------------------


def test_construct_writes_four_files(tmp_path, capsys):
    out = _construct(tmp_path, "run", "--i", "1", "--j", "3")
    text = capsys.readouterr().out
    assert "spread: 85 members, min distance 4" in text
    for name, members in (("ci.code", 75), ("ai.code", 5), ("bj.code", 5), ("spread.code", 85)):
        header, code = codecs.read_code((out / name).read_text())
        assert len(code) == members
    header, _ = codecs.read_code((out / "spread.code").read_text())
    assert header.component == "spread" and header.i == 1 and header.j == 3
    assert header.bm is not None


def test_construct_defaults(tmp_path):
    out = tmp_path / "defaults"
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
               "--out", str(out)])
    assert rc == 0
    header, code = codecs.read_code((out / "spread.code").read_text())
    assert len(code) == 15
    assert (header.i, header.j) == (1, 3)


def test_construct_distance_line_ranks_no_pair_of_a_spread(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, verify, "subspace_distance")
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "5",
               "--out", str(tmp_path / "run"), "--workers", "1"])
    assert rc == 0
    assert "spread: 1023 members, min distance 2\n" in capsys.readouterr().out
    assert calls == []


def test_construct_2142_spread(tmp_path, capsys, monkeypatch):
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "4", "--t", "2",
               "--out", str(tmp_path / "run"), "--workers", "1"])
    assert rc == 0
    assert "spread: 4369 members, min distance 8\n" in capsys.readouterr().out
    calls = count_calls(monkeypatch, verify, "pairwise_min_distance")
    assert main(["verify", "--in", str(tmp_path / "run" / "spread.code"), "--workers", "1"]) == 0
    assert "verdict=Spread\n" in capsys.readouterr().out
    assert calls == []


def test_construct_rejects_bad_index(tmp_path, capsys):
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "2", "--t", "2",
               "--i", "3", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "1..2" in capsys.readouterr().err


def test_construct_gcd_violation_exits_3(tmp_path):
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "2", "--t", "3",
               "--out", str(tmp_path / "x")])
    assert rc == 3


def test_characteristic_past_the_digit_alphabet_exits_2_before_any_work(tmp_path, capsys):
    flags = ["--p", "37", "--e", "1", "--k", "1", "--t", "1"]
    for argv in (["construct", *flags, "--out", str(tmp_path / "run")],
                 ["oracle", *flags, "--out", str(tmp_path / "oracle.code")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "characteristic 37" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_trivial_group_exits_2_before_any_work(tmp_path, capsys):
    assert main(["params", "--max-order", "16"]) == 0
    rows = {tuple(line.split()[:4]) for line in capsys.readouterr().out.splitlines()[1:]}
    assert ("2", "1", "1", "1") not in rows
    flags = ["--p", "2", "--e", "1", "--k", "1", "--t", "1"]
    for argv in (["construct", *flags, "--out", str(tmp_path / "run")],
                 ["oracle", *flags, "--out", str(tmp_path / "oracle.code")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "trivial" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_internal_self_check_failure_exits_5(tmp_path, capsys, monkeypatch):
    def failing_build(params):
        raise InternalOrderCheckFailed("h1 does not have order q^kt - 1")

    monkeypatch.setattr(construction, "build_group", failing_build)
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
               "--out", str(tmp_path / "run")])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: h1 does not have order q^kt - 1\n"


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # exit 1 means only "codes differ"; a MemoryError used to end in a traceback and exit 1
    def exhausted(params):
        raise MemoryError

    monkeypatch.setattr(verify, "desarguesian_oracle", exhausted)
    out = tmp_path / "oracle.code"
    assert main(["oracle", "--p", "2", "--e", "1", "--k", "1", "--t", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle: out of memory\n"
    assert not out.exists()


def test_construct_checks_the_spread_size_before_writing(tmp_path, capsys, monkeypatch):
    def overlapping_parts(ctx, i, j):
        orbit, completion, _ = spread_components(ctx, i, j)
        return orbit, completion, completion  # the tail repeats the completion part

    spread_components = construction.spread_components
    monkeypatch.setattr(construction, "spread_components", overlapping_parts)
    out = tmp_path / "run"
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "2", "--t", "2", "--out", str(out)])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: spread has 80 members, expected 85\n"
    assert not out.exists()


def test_construct_io_failure_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
               "--out", str(blocker)])
    assert rc == 4


def test_construct_is_deterministic(tmp_path):
    a = _construct(tmp_path, "a")
    b = _construct(tmp_path, "b")
    for name in ("ci.code", "ai.code", "bj.code", "spread.code"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_oracle_is_deterministic(tmp_path):
    flags = ["oracle", "--p", "2", "--e", "1", "--k", "2", "--t", "2"]
    assert main(flags + ["--out", str(tmp_path / "a.code")]) == 0
    assert main(flags + ["--out", str(tmp_path / "b.code")]) == 0
    assert (tmp_path / "a.code").read_bytes() == (tmp_path / "b.code").read_bytes()


# --- verify ---------------------------------------------------------------------


def test_verify_spread_ok(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    rc = main(["verify", "--in", str(out / "spread.code")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "verdict=Spread" in text and "coverage_count=255" in text


def test_verify_components_are_partial_spreads(tmp_path):
    out = _construct(tmp_path, "run")
    for name in ("ci.code", "ai.code", "bj.code"):
        assert main(["verify", "--in", str(out / name)]) == 0


def test_verify_detects_missing_member(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    path = out / "spread.code"
    lines = path.read_text().splitlines()
    lines.remove(next(l for l in lines if not l.startswith("#")))
    patched = [l.replace("members=85", "members=84") for l in lines]
    path.write_text("\n".join(patched) + "\n")
    rc = main(["verify", "--in", str(path)])
    assert rc == 5
    captured = capsys.readouterr()
    assert "coverage_count=252" in captured.out
    assert "expected Spread" in captured.err


def _report_runs(path: str, capsys) -> tuple[tuple[int, str], tuple[int, str]]:
    """(exit code, stdout) of verify on a file, with and without --json."""
    runs = []
    for extra in ([], ["--json"]):
        code = main(["verify", "--in", path, *extra])
        runs.append((code, capsys.readouterr().out))
    return runs[0], runs[1]


def test_verify_json_is_the_key_value_report(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    capsys.readouterr()  # drop the construct summary
    path = out / "spread.code"
    for name in ("spread.code", "ci.code", "missing.code"):
        if name == "missing.code":  # the spread less one member: exit 5 both ways
            lines = path.read_text().splitlines()
            lines.remove(next(l for l in lines if not l.startswith("#")))
            (out / name).write_text("\n".join(l.replace("members=85", "members=84")
                                              for l in lines) + "\n")
        (code, text), (json_code, json_text) = _report_runs(str(out / name), capsys)
        assert json_code == code == (5 if name == "missing.code" else 0)
        report = json.loads(json_text)
        assert {key: str(value) for key, value in report.items()} == \
            dict(line.split("=", 1) for line in text.splitlines())


def test_verify_duplicate_member_is_io_error(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    path = out / "spread.code"
    lines = path.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    lines.insert(lines.index(body[0]), body[0])  # duplicate, still sorted
    path.write_text("\n".join(l.replace("members=85", "members=86") for l in lines) + "\n")
    assert main(["verify", "--in", str(path)]) == 4


def test_verify_missing_file_exits_4(tmp_path):
    assert main(["verify", "--in", str(tmp_path / "nope.code")]) == 4


@pytest.mark.parametrize("patch", [
    {"p=2": "p=4", "q=2": "q=4", "r=3": "r=5"},  # non-prime characteristic
    {"k=1": "k=0", "n=4": "n=0"},               # degree below 1
    {"i=1": "i=3"},                              # leading index past t
    {"j=3": "j=1"},                              # tail index not in t+1..s
])
def test_header_with_impossible_parameters_is_a_parse_failure(tmp_path, capsys, patch):
    out = tmp_path / "run"
    assert main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
                 "--out", str(out)]) == 0
    good = out / "spread.code"
    lines = good.read_text().splitlines()
    header = [patch.get(l[2:], l[2:]) for l in lines if l.startswith("# ")]
    bad = tmp_path / "bad.code"
    bad.write_text("".join(f"# {l}\n" for l in header)
                   + "".join(l + "\n" for l in lines if not l.startswith("#")))
    capsys.readouterr()
    assert main(["verify", "--in", str(bad)]) == 4
    assert main(["compare", str(bad), str(good)]) == 4
    assert main(["distance", "--in", str(bad)]) == 4
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "compare", "distance"])
def test_non_ascii_code_file_exits_4_with_one_line(tmp_path, capsys, command):
    good = _construct(tmp_path, "run") / "spread.code"
    bad = tmp_path / "bad.code"
    bad.write_bytes(good.read_bytes().replace(b"# kind=", b"# \xffkind=", 1))
    argv = {
        "verify": ["verify", "--in", str(bad)],
        "compare": ["compare", str(good), str(bad)],
        "distance": ["distance", "--in", str(bad)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _empty_code_file(tmp_path: Path, k: int, t: int) -> str:
    header = codecs.CodeHeader(p=2, e=1, k=k, t=t, kind=codecs.KIND_SUBSPACES,
                               component="spread", i=1, j=t + 1)
    path = tmp_path / f"k{k}t{t}.code"
    path.write_text(codecs.write_code(frozenset(), header), encoding="ascii")
    return str(path)


def _searched_degrees(monkeypatch) -> list[int]:
    """Record the degree of every modulus search; one past 3 fails the test."""
    search = FieldTower._search_primitive_modulus
    degrees = []

    def bounded_search(self, level, degree, group_order):
        degrees.append(degree)
        if degree > 3:
            raise AssertionError(f"modulus search of degree {degree}")
        return search(self, level, degree, group_order)

    monkeypatch.setattr(FieldTower, "_search_primitive_modulus", bounded_search)
    return degrees


def test_header_t_starts_no_modulus_search_of_degree_t(tmp_path, capsys, monkeypatch):
    # members live at levels 1 and 2; a degree-40 search over F_8 would spin for minutes
    degrees = _searched_degrees(monkeypatch)
    path = _empty_code_file(tmp_path, 3, 40)
    assert main(["verify", "--in", path]) == 2    # an empty code cannot be classified
    assert main(["compare", path, path]) == 0
    assert main(["distance", "--in", path]) == 2  # singleton (or empty) code
    assert sorted(set(degrees)) == [1, 3]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "compare", "distance"])
def test_header_field_past_the_table_guard_exits_2_before_any_search(
        tmp_path, capsys, monkeypatch, command):
    assert 2**21 > TABLE_GUARD
    path = _empty_code_file(tmp_path, 21, 1)
    searches = count_calls(monkeypatch, FieldTower, "_search_primitive_modulus")
    argv = {
        "verify": ["verify", "--in", path],
        "compare": ["compare", path, path],
        "distance": ["distance", "--in", path],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and searches == []
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "2097152 elements, guard is 1048576" in captured.err


@pytest.mark.parametrize("command", ["construct", "oracle"])
@pytest.mark.parametrize("degrees, message", [
    (("1", "30", "1"), "error: field F_{q^k} with p=2, e=1, k=30 has 1073741824 elements, "
                       "guard is 1048576"),
    (("0", "1", "2"), "error: degrees must be >= 1, got e=0, k=1, t=2"),
    (("1", "-1", "2"), "error: degrees must be >= 1, got e=1, k=-1, t=2"),
    (("1", "1", "0"), "error: degrees must be >= 1, got e=1, k=1, t=0"),
    (("1", "1", "31"), "error: field F_{q^kt} with p=2, e=1, k=1, t=31 has 2147483648 "
                       "elements, guard is 1048576"),
    (("1", "21", "2"), "error: field F_{q^k} with p=2, e=1, k=21 has 2097152 elements, "
                       "guard is 1048576"),
    (("1", "1", "65"), "error: field F_{q^kt} with p=2, e=1, k=1, t=65 has 2^65 elements, "
                       "guard is 1048576"),
], ids=["k30", "e0", "k-1", "t0", "t31", "k21t2", "t65"])
def test_bad_degrees_and_oversized_fields_exit_2_before_any_search(
        tmp_path, capsys, monkeypatch, command, degrees, message):
    searched = _searched_degrees(monkeypatch)
    e, k, t = degrees
    flags = ["--p", "2", "--e", e, "--k", k, "--t", t]
    out = str(tmp_path / ("run" if command == "construct" else "oracle.code"))
    assert main([command, *flags, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"
    assert searched == []


@pytest.mark.parametrize("t", [3_000_000, 10_000_000])
def test_huge_t_is_refused_before_any_power_of_it(tmp_path, capsys, t):
    # q^kt, r and the group order have about 5t bits; the bit length of e k t bounds them first
    start = time.perf_counter()
    flags = ["--p", "2", "--e", "1", "--k", "5", "--t", str(t)]
    assert main(["construct", *flags, "--out", str(tmp_path / "run")]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: field F_{{q^kt}} with p=2, e=1, k=5, t={t} has 2^{5 * t} "
                            "elements, guard is 1048576\n")
    assert list(tmp_path.iterdir()) == []


def _huge_header_file(tmp_path: Path, p, e, k, t, q, r) -> str:
    # written by hand: CodeHeader.r and write_code would compute the powers under test
    keys = dict(p=p, e=e, k=k, t=t, q=q, s=2 * t, n=2 * k * t, r=r,
                kind="subspaces", component="external", members=0)
    path = tmp_path / "huge.code"
    path.write_text("# spreadforge-code v1\n" + "".join(f"# {key}={value}\n"
                                                       for key, value in keys.items()))
    return str(path)


def test_characteristic_past_the_alphabet_is_refused_before_any_primality_test(
        tmp_path, capsys, monkeypatch):
    # 2^61 - 1 is prime, and trial division up to its square root runs for minutes
    p = 2**61 - 1

    def no_primality_test(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(gftower, "is_prime", no_primality_test)
    flags = ["--p", str(p), "--e", "1", "--k", "1", "--t", "1"]
    path = _huge_header_file(tmp_path, p, 1, 1, 1, p, 1)
    for argv, code in (
        (["construct", *flags, "--out", str(tmp_path / "run")], 2),
        (["oracle", *flags, "--out", str(tmp_path / "oracle.code")], 2),
        (["verify", "--in", path], 4),
        (["compare", path, path], 4),
        (["distance", "--in", path], 4),
    ):
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert f"characteristic {p} exceeds the 36-symbol digit alphabet" in captured.err


@pytest.mark.parametrize("degrees, code, message", [
    ((3, 1, 10**7, 1, 3, 1), 2, "p=3, e=1, k=10000000 has 3^10000000 elements"),
    ((2, 10**7, 1, 1, 2, 1), 2, "p=2, e=10000000, k=1 has 2^10000000 elements"),
    ((3, 1, 1, 10**7, 3, 1), 4, "derived key r=1 inconsistent"),
], ids=["k", "e", "t"])
@pytest.mark.parametrize("command", ["verify", "compare", "distance"])
def test_huge_header_degree_is_refused_before_any_power_of_it(
        tmp_path, capsys, monkeypatch, command, degrees, code, message):
    def unbounded(self):
        raise AssertionError("CodeHeader.r evaluated")

    monkeypatch.setattr(codecs.CodeHeader, "r", property(unbounded))
    path = _huge_header_file(tmp_path, *degrees)
    assert len(Path(path).read_text().splitlines()) == 12
    argv = {
        "verify": ["verify", "--in", path],
        "compare": ["compare", path, path],
        "distance": ["distance", "--in", path],
    }[command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


def _line_code_file(tmp_path: Path, ctx_2122, body: str | None = None) -> str:
    """A kind=lines file at (2,1,2,2); `body` replaces its one record when given."""
    header = codecs.CodeHeader(p=2, e=1, k=2, t=2, kind=codecs.KIND_LINES, component="external")
    text = codecs.write_code(frozenset([ctx_2122.unit_line(1)]), header)
    assert text.endswith("\n10000000\n")  # e_1: entry 1 is the digits "10"
    if body is not None:
        text = text[:-len("10000000\n")] + body + "\n"
    path = tmp_path / "lines.code"
    path.write_text(text, encoding="ascii")
    return str(path)


@pytest.mark.parametrize("body", ["01000000", "00000000", "10000000;00100000"],
                         ids=["leading-alpha", "all-zero", "two-rows"])
def test_non_canonical_line_record_exits_4_with_one_line(tmp_path, capsys, ctx_2122, body):
    path = _line_code_file(tmp_path, ctx_2122, body)
    assert main(["verify", "--in", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_line_file_is_not_comparable_with_a_subspace_file(tmp_path, capsys, ctx_2122):
    lines = _line_code_file(tmp_path, ctx_2122)
    assert main(["verify", "--in", lines]) == 0
    spread = str(_construct(tmp_path, "run") / "spread.code")
    capsys.readouterr()
    for pair in ((lines, spread), (spread, lines)):
        assert main(["compare", *pair]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("not comparable: ") and captured.out.count("\n") == 1
        assert captured.err == ""


# --- oracle / compare ---------------------------------------------------------------


def test_oracle_compare_cycle(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    oracle = tmp_path / "oracle.code"
    assert main(["oracle", "--p", "2", "--e", "1", "--k", "2", "--t", "2",
                 "--out", str(oracle)]) == 0
    assert main(["compare", str(out / "spread.code"), str(oracle)]) == 0
    capsys.readouterr()
    rc = main(["compare", str(out / "ci.code"), str(oracle)])
    assert rc == 1
    text = capsys.readouterr().out
    assert "differ" in text
    sample = [l for l in text.splitlines() if l.startswith("  ")]
    assert len(sample) == 10  # symmetric difference sample is capped


def test_compare_same_file(tmp_path):
    out = _construct(tmp_path, "run")
    spread = str(out / "spread.code")
    assert main(["compare", spread, spread]) == 0


def test_compare_missing_file_exits_4(tmp_path):
    out = _construct(tmp_path, "run")
    assert main(["compare", str(out / "spread.code"), str(tmp_path / "gone.code")]) == 4


# --- distance -------------------------------------------------------------------------


def test_distance_of_spread(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    assert main(["distance", "--in", str(out / "spread.code")]) == 0
    assert "min distance: 4\n" in capsys.readouterr().out


def test_distance_orbit_formula_agreement(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    assert main(["distance", "--in", str(out / "ci.code"), "--orbit"]) == 0
    text = capsys.readouterr().out
    assert "orbit formula): 4" in text and "agreement: yes" in text
    assert main(["distance", "--in", str(out / "bj.code"), "--orbit"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "min distance: 4", "min distance (orbit formula): 4", "agreement: yes"]


@pytest.mark.parametrize("component", ["Ci", "Bj"])
def test_distance_orbit_on_a_lines_file_takes_the_line_distance(tmp_path, capsys, ctx_2122,
                                                                component):
    # a lines file holds the unreduced orbit: its distance is the line distance, 2
    if component == "Ci":
        code, tags = orbit_code(ctx_2122, 1), {"i": 1}
    else:
        code, tags = tail_orbit(ctx_2122, 3), {"j": 3}
    header = codecs.CodeHeader(p=2, e=1, k=2, t=2, kind=codecs.KIND_LINES,
                               component=component, **tags)
    path = tmp_path / f"{component}-lines.code"
    path.write_text(codecs.write_code(code, header))
    assert main(["distance", "--in", str(path), "--orbit"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["min distance: 2", "min distance (orbit formula): 2",
                                "agreement: yes"]


def test_distance_orbit_rejected_for_non_orbit_component(tmp_path):
    out = _construct(tmp_path, "run")
    assert main(["distance", "--in", str(out / "ai.code"), "--orbit"]) == 2


def test_distance_singleton_exits_2(tmp_path, capsys, ctx_2112):
    header = codecs.CodeHeader(p=2, e=1, k=1, t=2, kind=codecs.KIND_LINES,
                               component="external")
    single = frozenset([ctx_2112.unit_line(1)])
    path = tmp_path / "single.code"
    path.write_text(codecs.write_code(single, header))
    assert main(["distance", "--in", str(path)]) == 2
    assert "d_S = 0" in capsys.readouterr().out


def test_distance_orbit_refused_past_the_group_guard(tmp_path, capsys, monkeypatch):
    # (2,1,1,11): Ci's walk over <h2^{q^k-1}> x <h1> has r (q^kt - 1) = 2047^2 elements,
    # past GROUP_ENUM_GUARD = 2^20, and building the group would start a degree-11
    # modulus search.  (Bj's walk has r = 2047 elements, inside the guard.)
    def no_group(*args):
        raise AssertionError("build_group called")

    monkeypatch.setattr(construction, "build_group", no_group)
    searched = _searched_degrees(monkeypatch)
    tower = FieldTower(2, (1, 1))
    members = frozenset(
        canonical_subspace(Matrix(tower, 1, [[int(col == row) for col in range(22)]]))
        for row in (0, 1)
    )
    header = codecs.CodeHeader(p=2, e=1, k=1, t=11, kind=codecs.KIND_SUBSPACES,
                               component="Ci", i=1)
    path = tmp_path / "Ci.code"
    path.write_text(codecs.write_code(members, header), encoding="ascii")
    assert main(["distance", "--in", str(path), "--orbit"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "min distance: 2\n"
    assert captured.err == ("error: --orbit refused: the walk has 4190209 group elements, "
                            "GROUP_ENUM_GUARD is 1048576\n")
    assert max(searched) <= 1


# --- workers ---------------------------------------------------------------------------


def test_workers_flag_and_env_agree(tmp_path, capsys, monkeypatch):
    out = _construct(tmp_path, "run")
    spread = str(out / "spread.code")
    capsys.readouterr()  # drop the construct summary
    assert main(["verify", "--in", spread, "--workers", "1"]) == 0
    reference = capsys.readouterr().out
    assert main(["verify", "--in", spread, "--workers", "2"]) == 0
    assert capsys.readouterr().out == reference
    monkeypatch.setenv("SPREADFORGE_WORKERS", "2")
    assert main(["verify", "--in", spread]) == 0
    assert capsys.readouterr().out == reference


def test_cli_import_leaves_unused_stdlib_packages_unloaded():
    # -S: no site-packages .pth file can load these first and mask a regression.
    unused = ("multiprocessing", "dataclasses", "inspect", "hashlib", "json")
    snippet = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import spreadforge.cli; "
               f"print(*[m for m in {unused!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", snippet],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def _spreadforge_imports(*args: str) -> set[str]:
    """The spreadforge modules `python -S -X importtime *args` imports, with src on the path.

    -S: no site-packages .pth file can load a module first and mask a regression.
    """
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "spreadforge"}


def test_params_with_no_rows_loads_no_library_module():
    loaded = _spreadforge_imports("-m", "spreadforge.cli", "params", "--max-order", "1")
    assert loaded <= {"spreadforge", "spreadforge.cli", "spreadforge.errors"}


def test_compare_leaves_construction_unloaded(tmp_path):
    out = _construct(tmp_path, "run")
    loaded = _spreadforge_imports("-m", "spreadforge.cli", "compare",
                                  str(out / "spread.code"), str(out / "spread.code"))
    assert "spreadforge.verify" in loaded
    assert "spreadforge.construction" not in loaded


def test_package_import_loads_no_submodule():
    assert _spreadforge_imports("-c", "import spreadforge") == {"spreadforge"}


def test_every_public_name_is_its_home_module_attribute():
    import spreadforge

    assert len(spreadforge.__all__) == 37
    for name in spreadforge.__all__:
        value = getattr(spreadforge, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("spreadforge.") and getattr(home, name) is value
    assert set(spreadforge.__all__) <= set(dir(spreadforge))
    with pytest.raises(AttributeError):
        getattr(spreadforge, "no_such_name")


def test_usage_error_exit_code():
    assert main(["construct", "--p", "2"]) == 2
    assert main([]) == 2


COMMANDS = ("params", "construct", "verify", "oracle", "compare", "distance")


@pytest.mark.parametrize("name, argv, code", [
    ("help", ["-h"], 0),
    *[(f"{command}-help", [command, "-h"], 0) for command in COMMANDS],
    ("construct-missing-flags", ["construct", "--p", "2"], 2),
    ("no-arguments", [], 2),
    ("unknown-command", ["frobnicate"], 2),
    ("unrecognized-argument", ["compare", "a.code", "b.code", "c.code"], 2),
])
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, name, argv, code):
    # snapshots taken at 80 columns under Python 3.11; help goes to stdout, errors to stderr
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    shown, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    golden = Path(__file__).parent / "golden" / "cli" / f"{name}.txt"
    assert shown == golden.read_text(encoding="ascii")
    assert silent == ""


# --- the process entry point ------------------------------------------------------

def _process(cwd: Path, *argv: str, unbuffered: bool = False, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr) of `python -m spreadforge.cli *argv` started in cwd."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run([sys.executable, "-m", "spreadforge.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


SPREAD_2122_REPORT = """cardinality=85
constant_dimension=True
dimension=2
ambient=8
field_order=2
min_distance=4
pairwise_trivial=True
coverage_count=255
spread_bound=85
partial_spread_bound=85
verdict=Spread
"""


def test_process_exit_codes_and_output_through_the_pipeline(tmp_path):
    flags = ["--p", "2", "--e", "1", "--k", "2", "--t", "2"]
    assert _process(tmp_path, "construct", *flags, "--out", "run") == (0, (
        "params (p=2, e=1, k=2, t=2) i=1 j=3\n"
        "orbit part: 75  completion part: 5  tail part: 5\n"
        "spread: 85 members, min distance 4\n"
        "wrote ci.code, ai.code, bj.code, spread.code to run\n"), "")
    assert _process(tmp_path, "verify", "--in", "run/spread.code") == (0, SPREAD_2122_REPORT, "")
    assert _process(tmp_path, "oracle", *flags, "--out", "oracle.code") == (
        0, "oracle spread: 85 members -> oracle.code\n", "")
    assert _process(tmp_path, "compare", "run/spread.code", "oracle.code") == (
        0, "codes are equal\n", "")
    # the files' bytes are the in-process command's
    assert main(["construct", *flags, "--out", str(tmp_path / "in-process")]) == 0
    for name in ("ci.code", "ai.code", "bj.code", "spread.code"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes()

    code, out, err = _process(tmp_path, "compare", "run/ci.code", "oracle.code")
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "codes differ: symmetric difference has 10 members"
    assert len(out.splitlines()) == 11

    lines = (tmp_path / "run" / "spread.code").read_text().splitlines()
    lines.remove(next(line for line in lines if not line.startswith("#")))
    (tmp_path / "short.code").write_text(
        "\n".join(line.replace("members=85", "members=84") for line in lines) + "\n")
    code, out, err = _process(tmp_path, "verify", "--in", "short.code")
    assert (code, err) == (5, "verification failed: expected Spread, got PartialSpread\n")
    assert "coverage_count=252\n" in out


def test_process_bad_flag_exits_2_with_the_pinned_usage(tmp_path):
    golden = Path(__file__).parent / "golden" / "cli" / "construct-missing-flags.txt"
    assert _process(tmp_path, "construct", "--p", "2") == (2, "", golden.read_text(encoding="ascii"))


def test_process_missing_file_exits_4_with_one_line(tmp_path):
    assert _process(tmp_path, "verify", "--in", "nope.code") == (
        4, "", "error: nope.code: [Errno 2] No such file or directory: 'nope.code'\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_process_closed_stdout_exits_4_with_one_line(tmp_path, unbuffered):
    # unbuffered, print raises in main; buffered, the flush in run raises
    reader, writer = os.pipe()
    os.close(reader)
    try:
        code, _, err = _process(tmp_path, "params", "--max-order", "16",
                                unbuffered=unbuffered, stdout=writer)
    finally:
        os.close(writer)
    assert (code, err) == (4, "error: stdout was closed before the output was written\n")


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert main(["params", "--max-order", "16"]) == 0
    assert main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["verify", "--in", str(tmp_path / "run" / "spread.code")]) == 0
    assert gc.get_freeze_count() == frozen


def test_run_freezes_after_main_and_exits_with_its_code(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 1)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 1
    assert events == ["main", "freeze"]


# --- the full pipeline over the test matrix ----------------------------------------


def test_pipeline_over_every_params_row_to_order_64(tmp_path, capsys):
    assert main(["params", "--max-order", "64"]) == 0
    rows = [line.split()[:4] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 41
    for p, e, k, t in rows:
        flags = ["--p", p, "--e", e, "--k", k, "--t", t]
        out, oracle = tmp_path / f"run_{p}_{e}_{k}_{t}", tmp_path / f"oracle_{p}_{e}_{k}_{t}.code"
        assert main(["construct", *flags, "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out / "spread.code")]) == 0
        assert main(["oracle", *flags, "--out", str(oracle)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out / "spread.code"), str(oracle)]) == 0
        assert capsys.readouterr().out == "codes are equal\n"


def test_pipeline_matrix_every_ij_choice(tmp_path):
    # construct -> verify -> compare-with-oracle for every (i, j) at the four
    # main parameter sets, plus two extra sets at their default choice
    sweep = [(2, 1, 1, 2), (2, 1, 1, 3), (2, 1, 2, 2), (2, 2, 1, 2)]
    extras = [(2, 1, 1, 4), (3, 1, 2, 1)]

    for p, e, k, t in sweep + extras:
        flags = ["--p", str(p), "--e", str(e), "--k", str(k), "--t", str(t)]
        oracle = tmp_path / f"oracle_{p}_{e}_{k}_{t}.code"
        assert main(["oracle", *flags, "--out", str(oracle)]) == 0
        choices = (
            [(i, j) for i in range(1, t + 1) for j in range(t + 1, 2 * t + 1)]
            if (p, e, k, t) in sweep else [(1, t + 1)]
        )
        for i, j in choices:
            out = tmp_path / f"run_{p}_{e}_{k}_{t}_{i}_{j}"
            assert main(["construct", *flags, "--i", str(i), "--j", str(j),
                         "--out", str(out), "--workers", "1"]) == 0
            for name in ("ci.code", "ai.code", "bj.code", "spread.code"):
                assert main(["verify", "--in", str(out / name), "--workers", "1"]) == 0
            assert main(["compare", str(out / "spread.code"), str(oracle)]) == 0
