"""spreadforge benchmark: timed CLI sessions, or a traced in-process replay.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the root of a spreadforge checkout.  With --trace 0 every command
of the workload runs as its own `python -m spreadforge.cli` subprocess, one
at a time (a closed loop with one client), timed from outside and checked
against frozen expectations; rounds of the workload repeat until --seconds
have passed, the last one possibly partial.  With --trace 1 the same
commands are replayed in-process under wrappers that record spans and
counts per layer (see traced.py).

Human-readable figures go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit 0 when every
command passed its checks, 1 when one did not, 2 when the program cannot be
found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import plan
import traced
from children import Launcher, cli_args

# Per-command time cap; the slowest command at the seed commit takes ~5 s.
COMMAND_CAP_S = 60.0
# Nothing new starts after this many seconds, so a run ends within 180 s;
# an alarm at RUN_ALARM_S stops a run that still hangs (in-process work).
RUN_DEADLINE_S = 150.0
RUN_ALARM_S = 170
# Set-up runs SETUP_FIRST times before the first command, then again between
# commands whenever SETUP_INTERVAL_S have passed since the last one, so that
# its median is taken over the same stretch of machine time as the session.
SETUP_FIRST, SETUP_INTERVAL_S = 3, 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "session_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One command: wall time, child max RSS, and why it failed (None if it did not)."""

    wall_s: float
    maxrss_kb: int
    error: str | None


def run_command(cmd: plan.Command, launcher: Launcher, workdir: Path, cap_s: float) -> Outcome:
    if cap_s <= 0:
        return Outcome(0.0, 0, "not started: run deadline passed")
    child = launcher.run(cli_args(cmd.argv), cap_s)
    if child.code is None:
        return Outcome(child.wall_s, child.maxrss_kb, f"killed at the {cap_s:.0f} s cap")
    error = plan.check_command(cmd, child.code, child.stdout, workdir)
    if error and child.stderr.strip():
        error += f" ({child.stderr.strip().splitlines()[-1]})"
    return Outcome(child.wall_s, child.maxrss_kb, error)


# -- run record ---------------------------------------------------------------


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest(root: Path) -> str:
    """sha256 over src/spreadforge/*.py, which identifies the code when git does not."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "spreadforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(root: Path, args, run_id: str) -> dict:
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": source_commit(root),
        "src_sha256": source_digest(root),
        "workers": 1,
        "spreadforge_workers_env": "removed",
        "loadavg_start": loadavg(),
    }


# -- timed session --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def set_up(workbase: Path, launcher: Launcher, times: list[float]) -> Path:
    """One set-up: a fresh work directory and a no-work CLI start.

    Its time is appended to `times`; the new work directory is returned.
    """
    start = time.perf_counter()
    workdir = workbase / f"setup{len(times)}"
    workdir.mkdir(parents=True)
    child = launcher.run(cli_args(["params", "--max-order", "1"]), COMMAND_CAP_S)
    if child.code != 0:
        raise RuntimeError(f"the program does not start: {child.stderr.strip()[-300:]}")
    times.append(time.perf_counter() - start)
    return workdir


def timed_session(root: Path, args, workbase: Path, started: float) -> tuple[dict, list[str]]:
    launcher = Launcher(root, workbase)
    setup_times: list[float] = []
    for _ in range(SETUP_FIRST):
        workdir = set_up(workbase, launcher, setup_times)
    commands = plan.commands_for(args.workload, plan.rungs_for(args.workload, args.seed), workdir)

    # The first round always runs whole; after it, commands continue in order
    # until --seconds have passed, so the last round may be partial.
    n = len(commands)
    outcomes: list[Outcome] = []
    session_start = last_setup = time.perf_counter()
    while len(outcomes) < n or (time.perf_counter() - session_start < args.seconds
                                and time.perf_counter() - started < RUN_DEADLINE_S):
        left = RUN_DEADLINE_S - (time.perf_counter() - started)
        outcomes.append(run_command(commands[len(outcomes) % n], launcher, workdir,
                                    min(COMMAND_CAP_S, left)))
        if left > 0 and time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            set_up(workbase, launcher, setup_times)
            last_setup = time.perf_counter()

    rounds = [outcomes[i:i + n] for i in range(0, len(outcomes) - n + 1, n)]
    medians = [statistics.median(o.wall_s for o in outcomes[i::n]) for i in range(n)]
    samples = {
        "setup_s": setup_times,
        "session_s": [sum(o.wall_s for o in r) for r in rounds],
    }
    values = {"setup_s": statistics.median(setup_times), "session_s": sum(medians)}
    for kind in plan.WORKLOADS[args.workload][1]:
        idx = [i for i, c in enumerate(commands) if c.kind == kind]
        values[f"{kind}_s"] = sum(medians[i] for i in idx)
        samples[f"{kind}_s"] = [sum(r[i].wall_s for i in idx) for r in rounds]
    values["peak_rss_mb"] = max(o.maxrss_kb for o in outcomes) / 1024

    errors = []
    for k, o in enumerate(outcomes):
        c = commands[k % n]
        if o.error:
            errors.append(f"round {k // n + 1} {c.kind} {c.rung.tag} i={c.rung.i} j={c.rung.j}: {o.error}")
    extra = {"rounds": len(outcomes) / n, "commands_per_round": n,
             "attempted": len(outcomes), "failed": len(errors), "samples": samples, "values": values}
    if args.workload == "sweep":
        extra["known_defect"] = defect_probe(launcher, workdir, started)
    return extra, errors


def defect_probe(launcher: Launcher, workdir: Path, started: float) -> dict[str, str]:
    """Run the (2,1,1,1) pipeline, which `construct` cannot build at the seed commit.

    It is reported, not timed and not counted, so that the timed workload
    has no failing operation while the defect stays visible.
    """
    rung = plan.Rung(*plan.DEFECT_RUNG, 1, 2)
    status = {}
    for cmd in plan.commands_for("sweep", [rung], workdir / "defect"):
        left = RUN_DEADLINE_S - (time.perf_counter() - started)
        outcome = run_command(cmd, launcher, workdir / "defect", min(COMMAND_CAP_S, left))
        status[cmd.kind] = outcome.error or "ok"
    return status


def print_session_report(extra: dict) -> None:
    print(f"{'metric':<18} {'unit':<6} {'value':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for name, value in extra["values"].items():
        unit = END_TO_END_UNITS.get(name, "s")
        if name in extra["samples"]:
            q1, _, q3 = quartiles(extra["samples"][name])
            n = len(extra["samples"][name])
            print(f"{name:<18} {unit:<6} {value:>10.4f} {q1:>10.4f} {q3:>10.4f} {n:>3}")
        else:
            print(f"{name:<18} {unit:<6} {value:>10.4f} {'':>10} {'':>10} {'':>3}")
    print(f"{'failed_ops_ratio':<18} {'ratio':<6} {extra['failed'] / extra['attempted']:>10.4f}"
          f"   ({extra['failed']}/{extra['attempted']})")
    print("session_s and the *_s kinds: one round, each command at its median over rounds;"
          " q1/q3 over whole-round totals")
    if "known_defect" in extra:
        bad = sum(v != "ok" for v in extra["known_defect"].values())
        print(f"known defect (2,1,1,1), not timed: {bad} of {len(extra['known_defect'])} commands fail")
        for kind, state in extra["known_defect"].items():
            print(f"  {kind}: {state}")


# -- entry point --------------------------------------------------------------------


def deadline_passed(signum, frame):
    raise RuntimeError(f"run still busy after {RUN_ALARM_S} s")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spreadforge" / "cli.py").is_file():
        print(f"error: no spreadforge source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    bench_dir = Path(__file__).resolve().parent
    workbase = bench_dir / "_work" / run_id
    record = run_record(root, args, run_id)
    print(f"perfbench {run_id}")
    print("record: " + " ".join(f"{k}={v}" for k, v in record.items() if k != "run_id"))
    signal.signal(signal.SIGALRM, deadline_passed)
    signal.alarm(RUN_ALARM_S)
    try:
        if args.trace:
            extra, errors, metrics = traced.traced_run(root, args, workbase, run_id, bench_dir)
        else:
            extra, errors = timed_session(root, args, workbase, started)
            print_session_report(extra)
            metrics = {name: {"value": extra["values"][name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workbase, ignore_errors=True)

    record["loadavg_end"] = loadavg()
    record["elapsed_s"] = time.perf_counter() - started
    record.update(extra)
    record["errors"] = errors
    record["metrics"] = metrics
    runs = bench_dir / "_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"loadavg start={record['loadavg_start']} end={record['loadavg_end']}")
    for line in errors[:20]:
        print(f"FAILED {line}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": extra["attempted"],
                      "failed": extra["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
