"""A seeded refusal sweep: mutated code files and invalid parameters through `cli.main`.

Every golden code file is mutated with stdlib `random` under fixed seeds:
digit flips, dropped, repeated and swapped lines, truncation, header values
such as 0, -1, x and huge, and kind or component swaps.  Each mutant goes
through verify, verify --json, distance, distance --orbit and a compare
against its source.  A grid of invalid (p, e, k, t) goes through construct
and oracle.  Whatever the input, no exception escapes `main`, the exit code
is one that the `cli` docstring documents (0 to 5), stderr holds at most one
line, and a refusal (exit 2 or 4) prints nothing on stdout.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest

from spreadforge.cli import main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*/*.code"))
SEEDS = (1, 2, 3, 4)
MUTANTS_PER_SEED = 200  # 5 commands each: about 0.5 s a seed on a 2-core host, Python 3.11

HEADER_VALUES = ("0", "-1", "x", "", "1.5", " 2", "9" * 40, "2" * 400)
KINDS = ("lines", "subspaces", "planes", "")
COMPONENTS = ("Ci", "Ai", "Bj", "spread", "oracle", "external", "mystery", "")
JUNK = "0123456789abcxyzXYZ;-# =\t.é"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _mutate(rng: random.Random, text: str) -> str:
    """One or two random mutations of a code file's text."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(8)
        where = rng.randrange(len(lines)) if lines else 0
        header = [n for n, line in enumerate(lines) if line.startswith("#") and "=" in line]
        if op == 0 and lines and lines[where]:  # flip one character
            pos = rng.randrange(len(lines[where]))
            lines[where] = lines[where][:pos] + rng.choice(JUNK) + lines[where][pos + 1:]
        elif op == 1 and lines:
            del lines[where]
        elif op == 2 and lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[where])
        elif op == 3 and len(lines) > 1:
            other = rng.randrange(len(lines))
            lines[where], lines[other] = lines[other], lines[where]
        elif op == 4:
            joined = "\n".join(lines)
            lines = joined[:rng.randrange(len(joined) + 1)].split("\n")
        elif op == 5 and header:
            n = rng.choice(header)
            lines[n] = lines[n].partition("=")[0] + "=" + rng.choice(HEADER_VALUES)
        elif op == 6:
            key, values = rng.choice((("kind", KINDS), ("component", COMPONENTS)))
            lines = [f"# {key}={rng.choice(values)}" if line.startswith(f"# {key}=") else line
                     for line in lines]
        elif op == 7 and lines:  # a copy of a line from elsewhere in the file, edited
            lines[where] = lines[rng.randrange(len(lines))].replace("1", rng.choice("02"), 1)
    if rng.random() < 0.5:  # re-sort the body and restate its count, so that more mutants parse
        body = sorted(line for line in lines if not line.startswith("#"))
        lines = [f"# members={len(body)}" if line.startswith("# members=") else line
                 for line in lines if line.startswith("#")] + body
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n"))


def _check(argv: list[str]) -> str | None:
    """What is wrong with one command's outcome, or None."""
    try:
        code, out, err = _run(argv)
    except Exception as exc:  # an escape is the finding; named with its mutant below
        return f"{type(exc).__name__} escaped main: {exc}"
    if code not in range(6):
        return f"exit {code}"
    if err.count("\n") > 1 or (err and not err.endswith("\n")):
        return f"stderr is not one line: {err!r}"
    if code in (2, 4) and out:
        return f"exit {code} with stdout {out[:200]!r}"
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_code_files_are_refused_cleanly(tmp_path, seed):
    rng = random.Random(seed)
    mutant = tmp_path / "mutant.code"
    for n in range(MUTANTS_PER_SEED):
        source = rng.choice(GOLDEN)
        text = _mutate(rng, source.read_text(encoding="ascii"))
        mutant.write_text(text, encoding="utf-8")
        path = str(mutant)
        for argv in (["verify", "--in", path], ["verify", "--in", path, "--json"],
                     ["distance", "--in", path], ["distance", "--in", path, "--orbit"],
                     ["compare", path, str(source)]):
            problem = _check(argv)
            assert problem is None, (f"seed {seed}, mutant {n} of {source.parent.name}/"
                                     f"{source.name}, {argv[0]} {argv[3:]}: {problem}\n{text}")


INVALID_PARAMS = [
    (4, 1, 1, 2), (9, 1, 1, 2), (1, 1, 1, 2), (0, 1, 1, 2), (-3, 1, 1, 2),
    (37, 1, 1, 1), (41, 1, 1, 2), (2**61 - 1, 1, 1, 2),
    (2, 0, 1, 2), (2, 1, 0, 2), (2, 1, 1, 0), (3, -1, 1, 1), (2, 1, 1, -2),
    (2, 1, 2, 3), (3, 1, 1, 2), (5, 1, 1, 2), (2, 2, 1, 3),
    (2, 1, 1, 1),
    (2, 1, 21, 1), (2, 21, 1, 1), (3, 1, 13, 1), (2, 1, 1, 10**6), (2, 1, 10**30, 1),
]


@pytest.mark.parametrize("command", ["construct", "oracle"])
def test_invalid_parameters_are_refused_before_any_work(tmp_path, command):
    for p, e, k, t in INVALID_PARAMS:
        out = tmp_path / f"p{p}e{e}k{k}t{t}"
        target = out if command == "construct" else out / "oracle.code"
        argv = [command, "--p", str(p), "--e", str(e), "--k", str(k), "--t", str(t),
                "--out", str(target)]
        code, stdout, stderr = _run(argv)
        assert code in (2, 3), (argv, code, stderr)
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
        assert stdout == "", (argv, stdout)
        assert not out.exists(), argv
