"""Traced run: replay a workload in-process and attribute its time to layers.

The replay calls `spreadforge.cli.main` once per command, with the argv the
timed session would pass to a subprocess, and checks every output the same
way.  Public functions of each spreadforge module are wrapped at every
module attribute that names them (so `verify.subspace_distance` resolving
`subspaces.rank` sees the wrapper), and methods on their class.  Wrapped
calls record time and counts; the coarse ones also record a span (name,
start, end, parent, workload, run id, phase).  Hot leaf calls (rank, rref,
matrix products, canonical_line, upper_right_block) are aggregated into
call counts and total time instead of one span each.

The replay runs once with no wrappers installed and once with them; the
ratio of the two wall times is trace.overhead_ratio.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import plan
from children import Launcher, cli_args

PER_LAYER_UNITS = {
    "gftower.field_build_s": "s",
    "gftower.mul_l1_ns": "ns",
    "gftower.inv_l1_ns": "ns",
    "gftower.mul_l2_ns": "ns",
    "gftower.inv_l2_ns": "ns",
    "subspaces.rank_calls": "count",
    "subspaces.rank_s": "s",
    "subspaces.rank_us": "us",
    "subspaces.rref_calls": "count",
    "subspaces.rref_s": "s",
    "subspaces.matmul_calls": "count",
    "subspaces.matmul_s": "s",
    "subspaces.canonical_line_calls": "count",
    "subspaces.canonical_line_s": "s",
    "construction.build_group_s": "s",
    "construction.completion_s": "s",
    "construction.upper_right_block_calls": "count",
    "construction.orbit_code_s": "s",
    "construction.orbit_lines": "count",
    "reduction.context_s": "s",
    "reduction.reduce_code_s": "s",
    "reduction.lines_reduced": "count",
    "verify.pairwise_s": "s",
    "verify.pairs": "count",
    "verify.coverage_s": "s",
    "verify.coverage_vectors": "count",
    "verify.oracle_s": "s",
    "verify.codes_equal_s": "s",
    "verify.pool_speedup": "ratio",
    "codecs.write_code_s": "s",
    "codecs.bytes_written": "count",
    "codecs.read_code_s": "s",
    "codecs.members_read": "count",
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}

MICRO_OPS = 512      # elements per timed batch
MICRO_REPEATS = 5    # batches per (tower, level, operation); the median is kept
PROBE_REPEATS = 5    # cold subprocess starts for cli.startup_s and cli.import_s
REPLAY_PAIRS = 2     # untraced/traced replay pairs behind trace.overhead_ratio
POOL_WORKERS_MAX = 8


class Tracer:
    """Collects spans, per-function inclusive/self times and counts in memory."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.phase = ""
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [span id or None, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn, keep_span: bool, on_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                took = end - start
                self.calls[name] += 1
                self.inclusive[name] += took
                self.self_time[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if keep_span:
                    self.spans.append({
                        "id": span_id, "name": name, "parent": parent,
                        "start": start - self.origin, "end": end - self.origin,
                        "workload": self.workload, "run_id": self.run_id, "phase": self.phase,
                    })
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def layer_self_times(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for name, took in self.self_time.items():
            layers[name.split(".")[0]] += took
        return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def _count(key: str, measure):
    def on_result(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += measure(args, result)
    return on_result


def _targets(sf):
    """(owner, attribute, span name, keep a span?, result hook) for every wrapped callable."""
    gftower, subspaces, construction = sf["gftower"], sf["subspaces"], sf["construction"]
    reduction, verify, codecs, cli = sf["reduction"], sf["verify"], sf["codecs"], sf["cli"]
    return [
        (gftower, "field_build", "gftower.field_build", True, None),
        (subspaces, "rank", "subspaces.rank", False, None),
        (subspaces, "rref", "subspaces.rref", False, None),
        (subspaces.Matrix, "__mul__", "subspaces.matmul", False, None),
        (subspaces, "canonical_line", "subspaces.canonical_line", False, None),
        (construction, "build_group", "construction.build_group", True, None),
        (construction, "default_completion", "construction.completion", True, None),
        (construction, "upper_right_block", "construction.upper_right_block", False, None),
        (construction, "orbit_code", "construction.orbit_code", True,
         _count("construction.orbit_lines", lambda a, r: len(r))),
        (reduction.ReductionContext, "__init__", "reduction.context", True, None),
        (reduction.ReductionContext, "reduce_code", "reduction.reduce_code", True,
         _count("reduction.lines_reduced", lambda a, r: len(a[1]))),
        (verify, "pairwise_min_distance", "verify.pairwise", True,
         _count("verify.pairs", lambda a, r: len(a[0]) * (len(a[0]) - 1) // 2)),
        (verify, "classify", "verify.classify", True,
         _count("verify.coverage_vectors", lambda a, r: r.coverage_count or 0)),
        (verify, "desarguesian_oracle", "verify.oracle", True, None),
        (verify, "codes_equal", "verify.codes_equal", True, None),
        (codecs, "write_code", "codecs.write_code", True,
         _count("codecs.bytes_written", lambda a, r: len(r))),
        (codecs, "read_code", "codecs.read_code", True,
         _count("codecs.members_read", lambda a, r: len(r[1]))),
        *[(cli, f"cmd_{kind}", f"cli.{kind}", True, None) for kind in plan.KINDS],
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer, sf):
    """Install the wrappers for the duration of the block, then restore every attribute."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "spreadforge"]
    saved = []
    try:
        for owner, attr, name, keep_span, on_result in _targets(sf):
            original = owner.__dict__[attr]
            wrapper = tracer.wrap(name, original, keep_span, on_result)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def import_spreadforge(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    names = ("gftower", "subspaces", "construction", "reduction", "verify", "codecs", "cli")
    return {n: importlib.import_module(f"spreadforge.{n}") for n in names}


def replay(sf, commands: list[plan.Command], workdir: Path,
           tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Run every command through cli.main in this process; return wall time and failures."""
    errors = []
    start = time.perf_counter()
    for cmd in commands:
        if tracer is not None:
            tracer.phase = f"replay {cmd.kind} {cmd.rung.tag}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sf["cli"].main(list(cmd.argv))
        problem = plan.check_command(cmd, code, out.getvalue(), workdir)
        if problem:
            errors.append(f"{cmd.kind} {cmd.rung.tag} i={cmd.rung.i} j={cmd.rung.j}: {problem}")
    return time.perf_counter() - start, errors


# -- measurements outside the replay -------------------------------------------------


def _median_batch_ns(op, items, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for item in items:
            op(item)
        times.append((time.perf_counter_ns() - start) / len(items))
    return statistics.median(times)


def field_micro(sf, rungs: list[plan.Rung], seed: int) -> dict[str, float]:
    """Multiply and inverse at levels 1 and 2, ns per operation.

    Samples are seeded nonzero elements of each rung's own tower; the value
    is the median over the workload's towers of each tower's median batch.
    """
    per_tower: dict[str, list[float]] = defaultdict(list)
    for rung in rungs:
        tower = sf["gftower"].field_build(*rung.pekt)
        for level in (1, 2):
            card = tower.cardinality(level)
            rng = random.Random(f"{seed}/micro/{rung.pekt}/{level}")
            xs = [tower.from_index(level, rng.randrange(1, card)) for _ in range(MICRO_OPS)]
            pairs = list(zip(xs, xs[1:] + xs[:1]))
            per_tower[f"gftower.mul_l{level}_ns"].append(
                _median_batch_ns(lambda ab: ab[0] * ab[1], pairs, MICRO_REPEATS))
            per_tower[f"gftower.inv_l{level}_ns"].append(
                _median_batch_ns(lambda a: a.inverse(), xs, MICRO_REPEATS))
    return {name: statistics.median(values) for name, values in per_tower.items()}


def pool_speedup(sf, rungs: list[plan.Rung], workdir: Path) -> tuple[float, int, str]:
    """Pairwise distance at 1 worker over at min(nproc, 8) workers, on the largest spread."""
    rung = max(rungs, key=lambda r: r.spread_size)
    text = (plan.rung_dir(workdir, rung) / "spread.code").read_text(encoding="ascii")
    subs = list(sf["codecs"].read_code(text)[1])
    workers = min(len(os.sched_getaffinity(0)), POOL_WORKERS_MAX)
    timings = {}
    for w in (1, workers):
        start = time.perf_counter()
        sf["verify"].pairwise_min_distance(subs, w)
        timings[w] = time.perf_counter() - start
    return timings[1] / timings[workers], workers, rung.tag


def startup_probes(launcher: Launcher) -> dict[str, float]:
    """Median wall time of a no-work CLI subprocess, and of importing spreadforge.cli."""
    snippet = ("import time; t = time.perf_counter(); import spreadforge.cli; "
               "print(time.perf_counter() - t)")
    startup, imports = [], []
    for _ in range(PROBE_REPEATS):
        child = launcher.run(cli_args(["params", "--max-order", "1"]), 60)
        if child.code != 0:
            raise RuntimeError(f"the program does not start: {child.stderr.strip()[-300:]}")
        startup.append(child.wall_s)
        child = launcher.run([sys.executable, "-c", snippet], 60)
        if child.code != 0:
            raise RuntimeError(f"importing spreadforge.cli failed: {child.stderr.strip()[-300:]}")
        imports.append(float(child.stdout.strip()))
    return {"cli.startup_s": statistics.median(startup), "cli.import_s": statistics.median(imports)}


# -- the traced run ----------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    inc, calls, own, counts = tracer.inclusive, tracer.calls, tracer.self_time, tracer.counts
    rank_calls = calls.get("subspaces.rank", 0)
    return {
        "gftower.field_build_s": inc.get("gftower.field_build", 0.0),
        "subspaces.rank_calls": rank_calls,
        "subspaces.rank_s": inc.get("subspaces.rank", 0.0),
        "subspaces.rank_us": 1e6 * inc.get("subspaces.rank", 0.0) / max(rank_calls, 1),
        "subspaces.rref_calls": calls.get("subspaces.rref", 0),
        "subspaces.rref_s": inc.get("subspaces.rref", 0.0),
        "subspaces.matmul_calls": calls.get("subspaces.matmul", 0),
        "subspaces.matmul_s": inc.get("subspaces.matmul", 0.0),
        "subspaces.canonical_line_calls": calls.get("subspaces.canonical_line", 0),
        "subspaces.canonical_line_s": inc.get("subspaces.canonical_line", 0.0),
        "construction.build_group_s": inc.get("construction.build_group", 0.0),
        "construction.completion_s": inc.get("construction.completion", 0.0),
        "construction.upper_right_block_calls": calls.get("construction.upper_right_block", 0),
        "construction.orbit_code_s": inc.get("construction.orbit_code", 0.0),
        "construction.orbit_lines": counts.get("construction.orbit_lines", 0),
        "reduction.context_s": inc.get("reduction.context", 0.0),
        "reduction.reduce_code_s": inc.get("reduction.reduce_code", 0.0),
        "reduction.lines_reduced": counts.get("reduction.lines_reduced", 0),
        "verify.pairwise_s": inc.get("verify.pairwise", 0.0),
        "verify.pairs": counts.get("verify.pairs", 0),
        "verify.coverage_s": own.get("verify.classify", 0.0),
        "verify.coverage_vectors": counts.get("verify.coverage_vectors", 0),
        "verify.oracle_s": own.get("verify.oracle", 0.0),
        "verify.codes_equal_s": inc.get("verify.codes_equal", 0.0),
        "codecs.write_code_s": inc.get("codecs.write_code", 0.0),
        "codecs.bytes_written": counts.get("codecs.bytes_written", 0),
        "codecs.read_code_s": inc.get("codecs.read_code", 0.0),
        "codecs.members_read": counts.get("codecs.members_read", 0),
    }


def traced_run(root: Path, args, workbase: Path, run_id: str, bench_dir: Path):
    sf = import_spreadforge(root)
    rungs = plan.rungs_for(args.workload, args.seed)
    workdir = workbase / "replay"
    workdir.mkdir(parents=True)
    commands = plan.commands_for(args.workload, rungs, workdir)
    tracer = Tracer(args.workload, run_id)

    probes = startup_probes(Launcher(root, workbase))
    # Untraced and traced replays alternate, so drift and first-run costs fall
    # on both sides; the layer figures come from the last traced replay.
    walls: dict[bool, float] = {False: 0.0, True: 0.0}
    errors = []
    for pair in range(REPLAY_PAIRS):
        for traced in (False, True):
            if not traced:
                took, failed = replay(sf, commands, workdir)
            else:
                last = pair == REPLAY_PAIRS - 1
                active = tracer if last else Tracer(args.workload, run_id)
                with instrumented(active, sf):
                    took, failed = replay(sf, commands, workdir, active)
            walls[traced] += took
            errors += [f"{'traced' if traced else 'untraced'} replay {pair + 1}: {e}" for e in failed]
    off_s, on_s = walls[False] / REPLAY_PAIRS, walls[True] / REPLAY_PAIRS
    speedup, workers, pool_rung = pool_speedup(sf, rungs, workdir)

    metrics = layer_metrics(tracer)
    metrics.update(field_micro(sf, rungs, args.seed))
    metrics.update(probes)
    metrics["verify.pool_speedup"] = speedup
    metrics["trace.overhead_ratio"] = on_s / off_s

    layers = tracer.layer_self_times()
    trace_path = bench_dir / "_runs" / f"{run_id}.trace.json"
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps({
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "layer_self_s": layers,
        "functions": {name: {"calls": tracer.calls[name], "inclusive_s": tracer.inclusive[name],
                             "self_s": tracer.self_time[name]} for name in sorted(tracer.calls)},
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }) + "\n")

    print(f"replay: {len(commands)} commands, mean of {REPLAY_PAIRS}: untraced {off_s:.3f} s, "
          f"traced {on_s:.3f} s; "
          f"pool speedup measured on {pool_rung} at {workers} workers")
    print("self time by layer (traced replay):")
    for layer, took in layers.items():
        print(f"  {layer:<14} {took:10.4f} s")
    print(f"{'metric':<38} {'unit':<6} {'value':>14}")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{name:<38} {unit:<6} {metrics[name]:>14.6g}")
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(bench_dir.parent)}")

    extra = {"attempted": 2 * REPLAY_PAIRS * len(commands), "failed": len(errors), "replay_untraced_s": off_s,
             "replay_traced_s": on_s, "pool_workers": workers, "layer_self_s": layers}
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return extra, errors, out
