"""Self-tests of the benchmark's own logic (not of spreadforge).

    python3 perfbench/selftest.py          # from the root of a checkout

They check that tampered output counts as a failed command, that the
seed-to-(i, j) mapping is deterministic and in range, that every metric
the benchmark emits is declared in BENCHMARK.json, and that the tracer's
self-time bookkeeping and the per-command time cap work.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import plan  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from children import Launcher  # noqa: E402

SMALL = plan.Rung(2, 1, 1, 2, 2, 3)


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class TamperedOutputFails(unittest.TestCase):
    """A wrong file or a wrong verdict must count as a failed command."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.workdir = Path(cls.tmp.name)
        cls.launcher = Launcher(ROOT, cls.workdir / "bench")
        cls.construct, cls.verify = plan.commands_for("sweep", [SMALL], cls.workdir)[:2]
        outcome = run.run_command(cls.construct, cls.launcher, cls.workdir, 60)
        assert outcome.error is None, outcome.error

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def spread_path(self) -> Path:
        return plan.rung_dir(self.workdir, SMALL) / "spread.code"

    def test_untouched_file_passes(self):
        self.assertIsNone(plan.check_code_file(self.spread_path(), SMALL, "spread"))
        self.assertIsNone(run.run_command(self.verify, self.launcher, self.workdir, 60).error)

    def test_changed_digit_fails_the_hash(self):
        text = self.spread_path().read_text()
        lines = text.splitlines()
        last = lines[-1]
        lines[-1] = last[:-1] + ("1" if last[-1] == "0" else "0")
        tampered = self.workdir / "tampered.code"
        tampered.write_text("\n".join(lines) + "\n")
        self.assertIn("sha256", plan.check_code_file(tampered, SMALL, "spread"))

    def test_dropped_member_fails_verify(self):
        original = self.spread_path().read_text()
        try:
            lines = original.splitlines()[:-1]
            lines = [f"# members={SMALL.spread_size - 1}" if l.startswith("# members=") else l
                     for l in lines]
            self.spread_path().write_text("\n".join(lines) + "\n")
            outcome = run.run_command(self.verify, self.launcher, self.workdir, 60)
            self.assertIsNotNone(outcome.error)
        finally:
            self.spread_path().write_text(original)

    def test_wrong_verdict_fails(self):
        good = (f"cardinality={SMALL.spread_size}\nmin_distance=2\n"
                f"coverage_count={SMALL.nonzero_vectors}\nverdict=Spread\n")
        self.assertIsNone(plan.check_command(self.verify, 0, good, self.workdir))
        bad = good.replace("verdict=Spread", "verdict=PartialSpread")
        self.assertIn("verdict", plan.check_command(self.verify, 0, bad, self.workdir))
        self.assertEqual(plan.check_command(self.verify, 5, good, self.workdir), "exit 5")

    def test_compare_must_report_equal(self):
        compare = plan.commands_for("sweep", [SMALL], self.workdir)[3]
        self.assertIsNotNone(plan.check_command(compare, 0, "codes differ", self.workdir))


class SeedMapping(unittest.TestCase):
    def test_ij_is_deterministic_and_in_range(self):
        for workload, (pekts, _) in plan.WORKLOADS.items():
            for seed in range(200):
                for pekt in pekts:
                    i, j = plan.choose_ij(seed, workload, pekt)
                    self.assertEqual((i, j), plan.choose_ij(seed, workload, pekt))
                    t = pekt[3]
                    self.assertTrue(1 <= i <= t and t + 1 <= j <= 2 * t, (workload, seed, pekt))

    def test_plans_repeat_and_cover_every_rung(self):
        for workload, (pekts, _) in plan.WORKLOADS.items():
            for seed in (0, 1, 7):
                rungs = plan.rungs_for(workload, seed)
                self.assertEqual(rungs, plan.rungs_for(workload, seed))
                self.assertEqual(sorted(r.pekt for r in rungs), sorted(pekts))

    def test_seed_changes_the_sweep(self):
        orders = {tuple(r.pekt for r in plan.rungs_for("sweep", s)) for s in range(5)}
        self.assertGreater(len(orders), 1)


class MetricsAreDeclared(unittest.TestCase):
    def test_end_to_end(self):
        self.assertEqual(run.END_TO_END_UNITS, declared("end_to_end"))

    def test_per_layer_table(self):
        self.assertEqual(traced.PER_LAYER_UNITS, declared("per_layer"))

    def test_per_layer_sources_cover_exactly_the_table(self):
        sf = traced.import_spreadforge(ROOT)
        emitted = set(traced.layer_metrics(traced.Tracer("w", "r")))
        emitted |= set(traced.field_micro(sf, [SMALL], seed=0))
        emitted |= {"cli.startup_s", "cli.import_s", "verify.pool_speedup", "trace.overhead_ratio"}
        self.assertEqual(emitted, set(traced.PER_LAYER_UNITS))

    def test_declared_workloads_exist(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(plan.WORKLOADS))


class TracerBookkeeping(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = traced.Tracer("w", "r")
        inner = tracer.wrap("b.inner", lambda: time.sleep(0.02), keep_span=False)

        def outer_body():
            inner()
            time.sleep(0.01)

        outer = tracer.wrap("a.outer", outer_body, keep_span=True)
        outer()
        self.assertEqual(tracer.calls, {"a.outer": 1, "b.inner": 1})
        self.assertAlmostEqual(tracer.self_time["a.outer"],
                               tracer.inclusive["a.outer"] - tracer.inclusive["b.inner"], places=9)
        self.assertGreaterEqual(tracer.self_time["a.outer"], 0.009)
        self.assertEqual([s["name"] for s in tracer.spans], ["a.outer"])


class CommandCap(unittest.TestCase):
    def test_child_is_killed_at_the_cap(self):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            child = Launcher(ROOT, Path(tmp)).run(
                [sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        self.assertIsNone(child.code)
        self.assertLess(time.perf_counter() - start, 10)
        self.assertGreaterEqual(child.wall_s, 0.5)


if __name__ == "__main__":
    unittest.main()
