"""Command-line driver for the full construct / verify / compare pipeline.

Exit codes: 0 success, 1 compared codes differ, 2 invalid flags, 3 gcd
condition violated, 4 I/O or parse failure, 5 verification failure or a
failed internal self-check (an ``InternalError``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import codecs
from .construction import (
    CodeParams,
    build_group,
    default_completion,
    h2_subgroup,
    spread_components,
    validate_params,
)
from .errors import CodecError, GcdConditionViolated, InternalError, SpreadforgeError
from .gftower import DIGIT_ALPHABET, is_prime
from .verify import (
    Verdict,
    classify,
    codes_equal,
    desarguesian_oracle,
    min_distance,
    min_distance_bruteforce,
    min_distance_orbit,
    orbit_min_distance,
)

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_USAGE = 2
EXIT_GCD = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("SPREADFORGE_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return os.cpu_count() or 1


def _read_code_file(path: str):
    """Parse a code file; on failure print one ``error:`` line and return None (exit 4)."""
    try:
        return codecs.read_code(Path(path).read_text(encoding="ascii"))
    except (OSError, UnicodeDecodeError, CodecError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="prime characteristic")
    parser.add_argument("--e", type=int, required=True, help="degree of F_q over F_p")
    parser.add_argument("--k", type=int, required=True, help="codeword dimension")
    parser.add_argument("--t", type=int, required=True, help="half the reduced ambient dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadforge",
        description="Construct, verify and compare orbit-built spread codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="list valid parameter sets up to a bound")
    p_params.add_argument("--max-order", type=int, default=1024,
                          help="largest allowed q^(kt) (default 1024)")

    p_construct = sub.add_parser("construct", help="build a spread and write its code files")
    _add_param_flags(p_construct)
    p_construct.add_argument("--i", type=int, default=None, help="leading unit index (default 1)")
    p_construct.add_argument("--j", type=int, default=None, help="tail unit index (default t+1)")
    p_construct.add_argument("--out", required=True, help="output directory")
    p_construct.add_argument("--workers", type=int, default=None)

    p_verify = sub.add_parser("verify", help="classify a code file and check its claim")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--workers", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="write the field-reduction spread directly")
    _add_param_flags(p_oracle)
    p_oracle.add_argument("--out", required=True, help="output file")

    p_compare = sub.add_parser("compare", help="set-compare two code files")
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")

    p_distance = sub.add_parser("distance", help="minimum distance of a code file")
    p_distance.add_argument("--in", dest="infile", required=True)
    p_distance.add_argument("--orbit", action="store_true",
                            help="also evaluate the orbit formula and compare")
    p_distance.add_argument("--workers", type=int, default=None)
    p_distance.add_argument("--max-order", type=int, default=1 << 10,
                            help="largest q^kt - 1 for which --orbit will enumerate the group")
    return parser


# -- subcommands -----------------------------------------------------------------


def _iter_valid_params(max_order: int):
    p = 2
    while p <= min(max_order, len(DIGIT_ALPHABET)):
        if is_prime(p):
            e = 1
            while p**e <= max_order:
                q = p**e
                k = 1
                while q**k <= max_order:
                    qk = q**k
                    t = 1
                    while qk**t <= max_order:
                        if qk**t > 2 and math.gcd(t, qk - 1) == 1:
                            yield validate_params(p, e, k, t)
                        t += 1
                    k += 1
                e += 1
        p += 1


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


def _component_header(params: CodeParams, component: str, i=None, j=None, bm=None) -> codecs.CodeHeader:
    return codecs.CodeHeader(
        p=params.p, e=params.e, k=params.k, t=params.t,
        kind=codecs.KIND_SUBSPACES, component=component, i=i, j=j, bm=bm,
    )


def cmd_construct(args) -> int:
    params = validate_params(args.p, args.e, args.k, args.t)
    i = 1 if args.i is None else args.i
    j = params.t + 1 if args.j is None else args.j
    if not 1 <= i <= params.t:
        print(f"error: --i must be in 1..{params.t}", file=sys.stderr)
        return EXIT_USAGE
    if not params.t + 1 <= j <= params.s:
        print(f"error: --j must be in {params.t + 1}..{params.s}", file=sys.stderr)
        return EXIT_USAGE
    ctx = build_group(params)
    choice = default_completion(ctx, i, j)
    bm = codecs.completion_fingerprint(choice)
    orbit_part, completion_part, tail_part = spread_components(ctx, i, j, choice)
    spread = orbit_part | completion_part | tail_part
    workers = _resolve_workers(args.workers)

    outputs = (
        ("ci.code", orbit_part, _component_header(params, "Ci", i=i)),
        ("ai.code", completion_part, _component_header(params, "Ai", i=i, bm=bm)),
        ("bj.code", tail_part, _component_header(params, "Bj", j=j)),
        ("spread.code", spread, _component_header(params, "spread", i=i, j=j, bm=bm)),
    )
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, code, header in outputs:
            (out_dir / name).write_text(codecs.write_code(code, header), encoding="ascii")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    distance = min_distance(spread, workers=workers)
    print(f"params {params} i={i} j={j}")
    print(f"orbit part: {len(orbit_part)}  completion part: {len(completion_part)}  "
          f"tail part: {len(tail_part)}")
    print(f"spread: {len(spread)} members, min distance {distance}")
    print(f"wrote {', '.join(name for name, _, _ in outputs)} to {out_dir}")
    return EXIT_OK


_EXPECTED_VERDICT = {
    "spread": Verdict.SPREAD,
    "oracle": Verdict.SPREAD,
    "Ci": Verdict.PARTIAL_SPREAD,
    "Ai": Verdict.PARTIAL_SPREAD,
    "Bj": Verdict.PARTIAL_SPREAD,
}


def cmd_verify(args) -> int:
    loaded = _read_code_file(args.infile)
    if loaded is None:
        return EXIT_IO
    header, code = loaded
    report = classify(code, workers=_resolve_workers(args.workers))
    sys.stdout.write(codecs.report_text(report))
    expected = _EXPECTED_VERDICT.get(header.component)
    if expected is None:
        return EXIT_OK
    if report.verdict is expected:
        return EXIT_OK
    if (
        expected is Verdict.PARTIAL_SPREAD
        and report.cardinality == 1
        and report.verdict is Verdict.CONSTANT_DIMENSION
    ):
        # r = 1 parameter sets produce singleton completion parts
        return EXIT_OK
    print(f"verification failed: expected {expected.value}, got {report.verdict.value}",
          file=sys.stderr)
    return EXIT_VERIFY


def cmd_oracle(args) -> int:
    params = validate_params(args.p, args.e, args.k, args.t)
    code = desarguesian_oracle(params)
    header = _component_header(params, "oracle")
    try:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(codecs.write_code(code, header), encoding="ascii")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"oracle spread: {len(code)} members -> {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    codes = []
    for name in (args.file_a, args.file_b):
        loaded = _read_code_file(name)
        if loaded is None:
            return EXIT_IO
        codes.append(loaded[1])
    try:
        equal = codes_equal(codes[0], codes[1])
    except SpreadforgeError as exc:
        print(f"not comparable: {exc}")
        return EXIT_DIFFER
    if equal:
        print("codes are equal")
        return EXIT_OK
    diff = codes[0] ^ codes[1]
    sample = sorted(codecs.member_record(m) for m in diff)[:10]
    print(f"codes differ: symmetric difference has {len(diff)} members")
    for record in sample:
        print(f"  {record}")
    return EXIT_DIFFER


def cmd_distance(args) -> int:
    loaded = _read_code_file(args.infile)
    if loaded is None:
        return EXIT_IO
    header, code = loaded
    if len(code) < 2:
        print("d_S = 0: singleton (or empty) code")
        return EXIT_USAGE
    workers = _resolve_workers(args.workers)
    brute = min_distance_bruteforce(code, workers=workers)
    print(f"min distance (brute force): {brute}")
    if not args.orbit:
        return EXIT_OK
    if header.component not in ("Ci", "Bj"):
        print(f"error: --orbit needs an orbit component (Ci or Bj), file is {header.component!r}",
              file=sys.stderr)
        return EXIT_USAGE
    params = validate_params(header.p, header.e, header.k, header.t)
    if params.max_exponent > args.max_order:
        print(f"error: q^kt - 1 = {params.max_exponent} exceeds --max-order {args.max_order}",
              file=sys.stderr)
        return EXIT_USAGE
    ctx = build_group(params)
    if header.component == "Ci":
        line_distance = min_distance_orbit(ctx, ctx.unit_line(header.i))
    else:
        line_distance = orbit_min_distance(ctx.unit_line(header.j), h2_subgroup(ctx))
    orbit_value = params.k * line_distance
    agree = orbit_value == brute
    print(f"min distance (orbit formula): {orbit_value}")
    print(f"agreement: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "params": cmd_params,
        "construct": cmd_construct,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "compare": cmd_compare,
        "distance": cmd_distance,
    }
    try:
        return handlers[args.command](args)
    except GcdConditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GCD
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SpreadforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
