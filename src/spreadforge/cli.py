"""Command-line driver for the full construct / verify / compare pipeline.

Exit codes: 0 success, 1 compared codes differ, 2 invalid flags, refused
input or out of memory, 3 gcd condition violated, 4 I/O or parse failure
(a ``FileFailure``), 5 verification failure or a failed internal self-check
(an ``InternalError``).  A command refuses input by raising; ``main`` alone
prints the one ``error:`` line and picks the exit code from the error's type.

Each command imports the library modules it runs when it runs, so a
command's start-up pays only for its own: ``verify`` and ``compare`` never
load ``construction``, and ``params --max-order 1`` loads no library module.

``run`` is the process entry point (``python -m spreadforge.cli`` and the
``spreadforge`` script); ``main`` is the same command for in-process callers.
"""

import argparse
import gc
import os
import sys
from pathlib import Path

from .errors import (
    CodecError,
    CommandRefused,
    FileFailure,
    GcdConditionViolated,
    GroupTooLarge,
    IndexOutOfRange,
    InternalError,
    NonPrimeCharacteristic,
    SpreadforgeError,
    TrivialGroup,
    TrivialOrbit,
)

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_USAGE = 2
EXIT_GCD = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _read_code_file(path: str):
    """Parse a code file into (header, code); a failure raises FileFailure (exit 4)."""
    from . import codecs

    try:
        return codecs.read_code(Path(path).read_text(encoding="ascii"))
    except (OSError, UnicodeDecodeError, CodecError) as exc:
        raise FileFailure(f"{path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Words "invalid choice" as Python 3.10-3.12.1 do; later patch releases drop the quotes."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            names = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {names})")


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for older scripts; has no effect (every path is serial)")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="prime characteristic")
    parser.add_argument("--e", type=int, required=True, help="degree of F_q over F_p")
    parser.add_argument("--k", type=int, required=True, help="codeword dimension")
    parser.add_argument("--t", type=int, required=True, help="half the reduced ambient dimension")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``spreadforge`` parser, with only the subparser that ``argv[0]`` names.

    With no arguments, ``-h`` or an unknown name, all six are built.  Help and
    error text are the same either way: a subparser's prog is
    ``spreadforge <cmd>`` whatever else the parser holds.
    """
    parser = _Parser(
        prog="spreadforge",
        description="Construct, verify and compare orbit-built spread codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "params": "list valid parameter sets up to a bound",
        "construct": "build a spread and write its code files",
        "verify": "classify a code file and check its claim",
        "oracle": "write the field-reduction spread directly",
        "compare": "set-compare two code files",
        "distance": "minimum distance of a code file",
    }
    names = [argv[0]] if argv and argv[0] in helps else helps
    made = {name: sub.add_parser(name, help=helps[name]) for name in names}

    if p := made.get("params"):
        p.set_defaults(run=cmd_params)
        p.add_argument("--max-order", type=int, default=1024,
                       help="largest allowed q^(kt) (default 1024)")
    if p := made.get("construct"):
        p.set_defaults(run=cmd_construct)
        _add_param_flags(p)
        p.add_argument("--i", type=int, default=None, help="leading unit index (default 1)")
        p.add_argument("--j", type=int, default=None, help="tail unit index (default t+1)")
        p.add_argument("--out", required=True, help="output directory")
        _add_workers_flag(p)
    if p := made.get("verify"):
        p.set_defaults(run=cmd_verify)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--json", action="store_true",
                       help="print the report as one JSON object instead of key=value lines")
        _add_workers_flag(p)
    if p := made.get("oracle"):
        p.set_defaults(run=cmd_oracle)
        _add_param_flags(p)
        p.add_argument("--out", required=True, help="output file")
    if p := made.get("compare"):
        p.set_defaults(run=cmd_compare)
        p.add_argument("file_a")
        p.add_argument("file_b")
    if p := made.get("distance"):
        p.set_defaults(run=cmd_distance)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--orbit", action="store_true",
                       help="also evaluate the orbit formula and compare")
        _add_workers_flag(p)
    return parser


# -- subcommands -----------------------------------------------------------------


def _iter_valid_params(max_order: int):
    """Every (p, e, k, t) with q^kt <= max_order that validate_params accepts."""
    from .construction import validate_params
    from .gftower import DIGIT_ALPHABET, TABLE_GUARD

    # a q^kt past TABLE_GUARD has no tower to build, so its row is not listed
    max_order = min(max_order, TABLE_GUARD)
    for p in range(2, len(DIGIT_ALPHABET) + 1):
        top = 0  # the largest e k t with p^(e k t) <= max_order
        while p ** (top + 1) <= max_order:
            top += 1
        for e in range(1, top + 1):
            for k in range(1, top // e + 1):
                for t in range(1, top // (e * k) + 1):
                    try:
                        params = validate_params(p, e, k, t)
                    except (NonPrimeCharacteristic, TrivialGroup, GcdConditionViolated):
                        continue
                    yield params


def cmd_params(args) -> int:
    if args.max_order < 2:
        return EXIT_OK
    rows = sorted(_iter_valid_params(args.max_order), key=lambda c: (c.p, c.e, c.k, c.t))
    if rows:
        print(f"{'p':>3} {'e':>2} {'k':>2} {'t':>2} {'q':>4} {'s':>3} {'n':>4} "
              f"{'r':>6} {'orbit':>8} {'spread':>8}")
    for c in rows:
        orbit = c.max_exponent**2 // (c.qk - 1)
        spread = (c.q**c.n - 1) // (c.qk - 1)
        print(f"{c.p:>3} {c.e:>2} {c.k:>2} {c.t:>2} {c.q:>4} {c.s:>3} {c.n:>4} "
              f"{c.r:>6} {orbit:>8} {spread:>8}")
    return EXIT_OK


def _component_header(params, component: str, i=None, j=None, bm=None):
    from . import codecs

    return codecs.CodeHeader(
        p=params.p, e=params.e, k=params.k, t=params.t,
        kind=codecs.KIND_SUBSPACES, component=component, i=i, j=j, bm=bm,
    )


def cmd_construct(args) -> int:
    from . import codecs
    from .construction import (
        build_group,
        default_completion,
        spread_components,
        spread_union,
        validate_params,
    )
    from .verify import COVERAGE_GUARD, min_distance

    params = validate_params(args.p, args.e, args.k, args.t)
    i = 1 if args.i is None else args.i
    j = params.t + 1 if args.j is None else args.j
    if not 1 <= i <= params.t:
        raise IndexOutOfRange(f"--i must be in 1..{params.t}")
    if not params.t + 1 <= j <= params.s:
        raise IndexOutOfRange(f"--j must be in {params.t + 1}..{params.s}")
    vectors = params.q**params.n - 1  # a stand-in for an estimate of the run's memory
    if vectors > COVERAGE_GUARD:
        raise CommandRefused(f"construct refused: the spread holds {vectors} nonzero vectors, "
                             f"COVERAGE_GUARD is {COVERAGE_GUARD}")
    ctx = build_group(params)
    bm = codecs.completion_fingerprint(default_completion(ctx))
    parts = spread_components(ctx, i, j)
    spread = spread_union(params, parts)
    orbit_part, completion_part, tail_part = parts

    # each member is formatted once: the spread's records are its disjoint parts' merged
    records = [codecs.code_records(part) for part in parts]
    outputs = (
        ("ci.code", orbit_part, _component_header(params, "Ci", i=i), records[0]),
        ("ai.code", completion_part, _component_header(params, "Ai", i=i, bm=bm), records[1]),
        ("bj.code", tail_part, _component_header(params, "Bj", j=j), records[2]),
        ("spread.code", spread, _component_header(params, "spread", i=i, j=j, bm=bm),
         sorted(record for part in records for record in part)),
    )
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, code, header, body in outputs:
            (out_dir / name).write_text(codecs.write_code(code, header, body), encoding="ascii")
    except OSError as exc:
        raise FileFailure(exc) from exc
    distance = min_distance(spread)
    print(f"params {params} i={i} j={j}")
    print(f"orbit part: {len(orbit_part)}  completion part: {len(completion_part)}  "
          f"tail part: {len(tail_part)}")
    print(f"spread: {len(spread)} members, min distance {distance}")
    print(f"wrote {', '.join(name for name, *_ in outputs)} to {out_dir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import codecs
    from .verify import Verdict, classify

    header, code = _read_code_file(args.infile)
    report = classify(code)
    sys.stdout.write(codecs.report_json(report) if args.json else codecs.report_text(report))
    expected = {
        "spread": Verdict.SPREAD,
        "oracle": Verdict.SPREAD,
        "Ci": Verdict.PARTIAL_SPREAD,
        "Ai": Verdict.PARTIAL_SPREAD,
        "Bj": Verdict.PARTIAL_SPREAD,
    }.get(header.component)
    # r = 1 parameter sets produce one-member parts, which classify calls ConstantDimension
    one_member_part = (expected is Verdict.PARTIAL_SPREAD and report.cardinality == 1
                       and report.verdict is Verdict.CONSTANT_DIMENSION)
    if expected in (None, report.verdict) or one_member_part:
        return EXIT_OK
    print(f"verification failed: expected {expected.value}, got {report.verdict.value}",
          file=sys.stderr)
    return EXIT_VERIFY


def cmd_oracle(args) -> int:
    from . import codecs
    from .construction import validate_params
    from .verify import desarguesian_oracle

    params = validate_params(args.p, args.e, args.k, args.t)
    code = desarguesian_oracle(params)
    header = _component_header(params, "oracle")
    try:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(codecs.write_code(code, header), encoding="ascii")
    except OSError as exc:
        raise FileFailure(exc) from exc
    print(f"oracle spread: {len(code)} members -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import codecs
    from .verify import codes_equal

    a, b = (_read_code_file(name)[1] for name in (args.file_a, args.file_b))
    try:
        equal = codes_equal(a, b)
    except SpreadforgeError as exc:
        print(f"not comparable: {exc}")
        return EXIT_DIFFER
    if equal:
        print("codes are equal")
        return EXIT_OK
    diff = a.keys ^ b.keys
    pack = (a if a.keys else b).pack  # comparable, so either formats both
    sample = sorted(codecs.member_record(pack, key) for key in diff)[:10]
    print(f"codes differ: symmetric difference has {len(diff)} members")
    for record in sample:
        print(f"  {record}")
    return EXIT_DIFFER


def cmd_distance(args) -> int:
    from . import codecs
    from .verify import min_distance, orbit_min_distance

    header, code = _read_code_file(args.infile)
    if args.orbit:  # refused, if at all, before the distance is computed
        if header.component not in ("Ci", "Bj"):
            raise CommandRefused("--orbit needs an orbit component (Ci or Bj), "
                                 f"file is {header.component!r}")
        if len(code) == 1:
            raise TrivialOrbit(f"--orbit refused: the {header.component} file holds one "
                               "member, a trivial orbit")
        from .construction import (
            GROUP_ENUM_GUARD,
            build_group,
            orbit_code,
            tail_orbit,
            validate_params,
        )

        params = validate_params(header.p, header.e, header.k, header.t)
        # Ci walks <h2^{q^k-1}> x <h1>, Bj walks <h2^{q^k-1}>: the scalar subgroup that
        # completes them to the group fixes every line, so the minimum is the group's
        walked = params.r * (params.max_exponent if header.component == "Ci" else 1)
        if walked > GROUP_ENUM_GUARD:
            raise GroupTooLarge(f"--orbit refused: the walk has {walked} group elements, "
                                f"GROUP_ENUM_GUARD is {GROUP_ENUM_GUARD}")
    distance = min_distance(code)
    print(f"min distance: {distance}")
    if not args.orbit:
        return EXIT_OK
    ctx = build_group(params)
    index, orbit = (header.i, orbit_code) if header.component == "Ci" else (header.j, tail_orbit)
    line_distance = orbit_min_distance(ctx.unit_line(index), orbit(ctx, index))
    # field reduction multiplies distances by k; a lines file holds the lines themselves
    orbit_value = line_distance * (params.k if header.kind == codecs.KIND_SUBSPACES else 1)
    agree = orbit_value == distance
    print(f"min distance (orbit formula): {orbit_value}")
    print(f"agreement: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_VERIFY


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extras = build_parser(argv).parse_known_args(argv)
        if extras:  # the full parser reports them, under the usage line it always showed
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SpreadforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_GCD if isinstance(exc, GcdConditionViolated)
                else EXIT_IO if isinstance(exc, FileFailure) else EXIT_USAGE)
    except MemoryError:
        pass  # leaving the handler drops the traceback, and the frames holding the memory
    print(f"error: {args.command}: out of memory", file=sys.stderr)
    return EXIT_USAGE


def run() -> None:
    """Run ``main`` as the whole process, then exit with its code.

    The heap is frozen just before exit, so the interpreter's final garbage
    collections skip every object the command and start-up left behind;
    refcount teardown, ``atexit`` and the final flush still run.  A stdout
    whose reader has gone exits 4 with one line: fd 1 is pointed at
    os.devnull so that the final flush cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = EXIT_IO
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
