"""Every function in `src` is run by a command, or README names it as kept.

A child interpreter runs `cli.main` in process under `sys.setprofile` over a
fixed command set and reports every `spreadforge` function it entered.  The
child is a fresh process so that no cache an earlier test filled (the
packings of `row_packing`, a packing's `times_alpha`, the package's lazy
exports) hides a function that a command runs only on its first call.

The commands are the tier-1 rows through construct (in the benchmark's
`--i/--j/--workers 1` form), verify and `verify --json` on every part,
distance on every part, `distance --orbit` on Ci and Bj, oracle, an equal
and a differing compare, `params --max-order 64`, and verify and distance
on one external file: the (2,1,2,2) spread with one member swapped for a
plane that is no F_4-line, so the vector pass decides its distance and
`classify` ranks each pair that shares a vector.

A function no command runs must be named on one of README's two lines,
"Reference paths" and "Held by the benchmark", and a name there must be a
function that no command runs.  `cli.run` (the process entry around
`main`), the package's `__dir__` and every `__repr__` need no name.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spreadforge"
LIST_LINES = ("**Reference paths**", "**Held by the benchmark**")
UNNAMED = {"cli.run", "spreadforge.__dir__"}

ROWS = [(2, 1, 1, 2), (2, 1, 1, 3), (2, 1, 2, 2), (2, 2, 1, 2),
        (2, 1, 1, 4), (3, 1, 1, 3), (3, 1, 2, 1), (3, 2, 1, 1)]
PARTS = ("ci", "ai", "bj", "spread")
# A plane of F_2^8 that holds e_1 and e_3: no F_4-line, and in no (2,1,2,2) spread.
OUTSIDER = "10000000;00100000"


def defs() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> qualified name, for every def in `src`.

    A code object's first line is its first decorator's, or the `def` line.
    """
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        module = "spreadforge" if path.stem == "__init__" else path.stem
        visit(ast.parse(path.read_text(encoding="utf-8")), path, module)
    return out


def _swapped_spread(spread: Path, target: Path) -> None:
    """The spread file with its first member record replaced by OUTSIDER, body re-sorted."""
    lines = spread.read_text(encoding="ascii").splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    target.write_text("\n".join(header + sorted(body[1:] + [OUTSIDER])) + "\n", encoding="ascii")


def commands(work: Path) -> Iterator[list[str]]:
    """The argv lists, in order; the swapped file is written once construct has made its source."""
    yield ["params", "--max-order", "64"]
    for p, e, k, t in ROWS:
        d = work / f"p{p}e{e}k{k}t{t}"
        flags = ["--p", str(p), "--e", str(e), "--k", str(k), "--t", str(t)]
        yield ["construct", *flags, "--i", "1", "--j", str(t + 1), "--out", str(d), "--workers", "1"]
        for part in PARTS:
            path = str(d / f"{part}.code")
            yield ["verify", "--in", path, "--workers", "1"]
            yield ["verify", "--in", path, "--json"]
            yield ["distance", "--in", path]
        for part in ("ci", "bj"):
            yield ["distance", "--in", str(d / f"{part}.code"), "--orbit"]
        yield ["oracle", *flags, "--out", str(d / "oracle.code")]
        yield ["compare", str(d / "spread.code"), str(d / "oracle.code")]
        yield ["compare", str(d / "ci.code"), str(d / "oracle.code")]
    swapped = work / "swapped.code"
    _swapped_spread(work / "p2e1k2t2" / "spread.code", swapped)
    yield ["verify", "--in", str(swapped)]
    yield ["distance", "--in", str(swapped)]


def reached(work: Path) -> tuple[list[str], list[tuple[list[str], int]]]:
    """Run every command in this process under a profile hook.

    Returns the qualified names of the `src` functions entered, and each
    command with its exit code.
    """
    from spreadforge.cli import main

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(hook)
    try:
        for argv in commands(work):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append((argv, main(argv)))
    finally:
        sys.setprofile(None)
    names = defs()
    found = {names.get((code.co_filename, code.co_firstlineno)) for code in entered}
    return sorted(found - {None}), codes


def readme_lists() -> tuple[int, list[str]]:
    """How many of README's kept-function lines there are, and the names they give."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.lstrip("- ").startswith(LIST_LINES)]
    return len(lines), [name for line in lines for name in re.findall(r"`([A-Za-z_][\w.]*)`", line)]


def _names(entry: str, qualname: str) -> bool:
    """`entry` is the def or encloses it: its dotted parts run on in the qualified name."""
    return f".{entry}." in f".{qualname}."


def test_every_src_function_is_run_by_a_command_or_named_in_readme(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-2000:]
    report = json.loads(child.stdout)
    # the commands did what they are there for: one compare per row differs, and
    # the swapped spread fails verify (exit 5) after `classify` ranked its sharing pairs
    exits = [code for _, code in report["codes"]]
    assert exits.count(1) == len(ROWS) and exits.count(5) == 1, report["codes"]
    assert [code for _, code in report["codes"][-2:]] == [5, 0]
    run = set(report["reached"])
    assert "cli.main" in run

    lines, listed = readme_lists()
    unreached = sorted(set(defs().values()) - run)
    unnamed = [name for name in unreached
               if name not in UNNAMED and not name.endswith(".__repr__")
               and not any(_names(entry, name) for entry in listed)]
    assert not unnamed, f"no command runs these, and README names none of them: {unnamed}"
    assert lines == len(LIST_LINES), "README needs each kept-function line once"
    stale = [entry for entry in listed if not any(_names(entry, n) for n in unreached)]
    assert not stale, f"README names these as kept, but a command runs them or they are gone: {stale}"
    assert len(listed) == len(set(listed)), "README names a function twice"


if __name__ == "__main__":
    found, exit_codes = reached(Path(sys.argv[1]))
    print(json.dumps({"reached": found, "codes": exit_codes}))
