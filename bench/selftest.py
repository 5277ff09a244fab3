"""Self-tests of the benchmark itself.

Run from the repository root (takes about a minute)::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# end-to-end metrics BENCHMARK.json cannot hold (they can be 0, exist only
# where a run holds enough tasks, or are the raw wall times that the adjusted
# ones stand in for); run.py prints them as metric lines instead
PRINTED_ONLY = {
    "failed_ratio": "ratio",
    "tasks_attempted": "count",
    "latency_p90_ms": "ms",
    "wall_tasks_per_s": "1/s",
    "wall_latency_p50_ms": "ms",
}


def bench(workload: str, trace: int, seconds: float = 1, cwd: Path = ROOT):
    script = Path(cwd) / "bench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def printed_metrics(stdout: str) -> dict:
    return {
        m.group(1): m.group(2)
        for m in re.finditer(r"^metric (\S+) = \S+ (\S+)$", stdout, re.MULTILINE)
    }


class WrapperTests(unittest.TestCase):
    def originals(self):
        import higherlocal.cli  # noqa: F401  (loads every module)

        return {
            (layer, module, attr): (tracing.resolve(module, attr), tracing.bindings(tracing.resolve(module, attr)))
            for layer, module, attr, *_ in tracing.LAYERS
        }

    def assert_unwrapped(self, before):
        for key, (fn, names) in before.items():
            self.assertIsNone(getattr(fn, "__wrapped__", None), key)
            for ns, name in names:
                self.assertIs(getattr(ns, name), fn, (key, ns, name))

    def test_untraced_run_installs_no_wrapper(self):
        before = self.originals()
        runner = run.Runner()
        for task in workloads.golden_tasks(ROOT, 0, passes=1):
            runner.run(task)
        self.assert_unwrapped(before)

    def test_uninstall_restores_every_binding(self):
        before = self.originals()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        self.assert_unwrapped(before)

    def test_traced_and_untraced_reports_identical_on_goldens(self):
        runner = run.Runner()
        tasks = workloads.golden_tasks(ROOT, 0, passes=1)
        plain = [runner.execute(t.text) for t in tasks]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with_trace = [runner.execute(t.text) for t in tasks]
        finally:
            tracer.uninstall()
        for task, a, b in zip(tasks, plain, with_trace):
            self.assertEqual(a, b, task.name)
            self.assertEqual(a[1], task.expected, task.name)
        self.assertGreater(tracer.layers["cli.run"].calls, 0)
        self.assertGreater(tracer.layers["series.mul"].calls, 0)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in workloads.WORKLOADS:
            a = workloads.make_tasks(wl, 3, ROOT, 2)
            b = workloads.make_tasks(wl, 3, ROOT, 2)
            self.assertEqual(a, b, wl)
            self.assertEqual(len(a), 2 * workloads.CYCLE[wl], wl)
            self.assertNotEqual(a, workloads.make_tasks(wl, 4, ROOT, 2), wl)

    def test_window_presentations_have_the_stated_shape(self):
        rng = __import__("random").Random(5)
        for rank, _, _, support in workloads.window_supports():
            A = workloads.random_presentation(rng, support)
            nnz = sum(1 for row in A for x in row if x)
            self.assertEqual(nnz, -(-rank * rank // 2))
            for row in A:
                self.assertEqual(min(k for x in row for k in x), -workloads.WINDOW_POLE)
                self.assertLessEqual(max(k for x in row for k in x), workloads.WINDOW_TOP)

    def test_gauge_is_unimodular(self):
        rng = __import__("random").Random(2)
        factors = workloads.elementary_factors(rng, 5, 6)
        g, g_inv = workloads.unimodular_gauge(5, factors, [rng.choice((-1, 1)) for _ in factors])
        prod = workloads.mat_mul(g, g_inv)
        for i, row in enumerate(prod):
            for j, x in enumerate(row):
                self.assertEqual(x, {0: 1} if i == j else {})


class RefClockTests(unittest.TestCase):
    def test_jobs_are_scaled_by_the_slices_around_them(self):
        slices = iter([0.02, 0.04, 0.08])
        original = refclock.time_slice
        refclock.time_slice = lambda: next(slices)
        try:
            # a slice before the first job, before the third (0.2 + 0.2 >= EVERY_S), and at the end
            raw, adjusted, in_slices = refclock.measure(lambda t=t: t for t in (0.2, 0.2, 0.1))
        finally:
            refclock.time_slice = original
        self.assertEqual(raw, [0.2, 0.2, 0.1])
        scale = [refclock.SLICE_S / 0.03, refclock.SLICE_S / 0.03, refclock.SLICE_S / 0.06]
        for got, t, k in zip(adjusted, raw, scale):
            self.assertAlmostEqual(got, t * k)
        self.assertAlmostEqual(in_slices, 0.14)


class CommandTests(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for wl in workloads.WORKLOADS:
            for trace, expected in ((0, e2e), (1, layers)):
                out = bench(wl, trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected, (wl, trace))
                printed = printed_metrics(out.stdout)
                for name, unit in expected.items():
                    self.assertEqual(printed.get(name), unit, (wl, trace, name))
                if trace == 0:
                    self.assertIn("identity ", out.stdout)
                    for name in ("failed_ratio", "tasks_attempted", "wall_tasks_per_s", "wall_latency_p50_ms"):
                        self.assertEqual(printed.get(name), PRINTED_ONLY[name], (wl, name))
                if wl == "cli_goldens":
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)

    def test_goldens_print_p90(self):
        out = bench("cli_goldens", 0, seconds=3)
        self.assertEqual(printed_metrics(out.stdout).get("latency_p90_ms"), "ms")

    def test_fails_without_a_checkout(self):
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            out = bench("cli_goldens", 0, cwd=Path(tmp))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
