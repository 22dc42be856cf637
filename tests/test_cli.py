"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from spreadforge import codecs, verify
from spreadforge.cli import main
from spreadforge.errors import InternalOrderCheckFailed

from conftest import count_calls


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


def test_construct_2142_spread(tmp_path, capsys):
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "4", "--t", "2",
               "--out", str(tmp_path / "run"), "--workers", "1"])
    assert rc == 0
    assert "spread: 4369 members, min distance 8\n" in capsys.readouterr().out


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

    monkeypatch.setattr("spreadforge.cli.build_group", failing_build)
    rc = main(["construct", "--p", "2", "--e", "1", "--k", "1", "--t", "2",
               "--out", str(tmp_path / "run")])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: h1 does not have order q^kt - 1\n"


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
    assert "min distance (brute force): 4" in capsys.readouterr().out


def test_distance_orbit_formula_agreement(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    assert main(["distance", "--in", str(out / "ci.code"), "--orbit"]) == 0
    text = capsys.readouterr().out
    assert "orbit formula): 4" in text and "agreement: yes" in text
    assert main(["distance", "--in", str(out / "bj.code"), "--orbit"]) == 0
    assert "agreement: yes" in capsys.readouterr().out


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


def test_distance_orbit_respects_max_order(tmp_path, capsys):
    out = _construct(tmp_path, "run")
    rc = main(["distance", "--in", str(out / "ci.code"), "--orbit", "--max-order", "4"])
    assert rc == 2
    assert "max-order" in capsys.readouterr().err


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
    src = Path(__file__).resolve().parents[1] / "src"
    unused = ("multiprocessing", "dataclasses", "inspect", "hashlib", "json")
    snippet = (f"import sys; sys.path.insert(0, {str(src)!r}); import spreadforge.cli; "
               f"print(*[m for m in {unused!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", snippet],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_usage_error_exit_code():
    assert main(["construct", "--p", "2"]) == 2
    assert main([]) == 2


# --- the full pipeline over the test matrix ----------------------------------------


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
