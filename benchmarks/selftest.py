"""Tests of the benchmark itself (not part of the library's test suite).

    python3 benchmarks/selftest.py

They re-derive the pinned extension counts by brute force, check the
self-time and speed-normalization arithmetic on synthetic data, and show
that a patched wrong answer is counted as a failed op, which is the
fault-injection rule of the law suites applied to the benchmark's own checks.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import ERROR, inclusive_time, layer_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work" / "selftest"


class ReferenceCounts(unittest.TestCase):
    def test_brute_force_reproduces_every_pinned_pair(self):
        tables = ref.reference_tables()
        for (h, g), expected in ref.CLASSIFY_REFERENCE.items():
            with self.subTest(pair=(h, g)):
                self.assertEqual(ref.brute_force_counts(tables[h], tables[g]), expected)

    def test_brute_force_agrees_with_library_validator(self):
        # every brute-force pair for Z2 by S3 satisfies the library's own check
        pkg = run.load_package()
        ext, fg = pkg.extension, pkg.fingroup
        H, G = fg.cyclic_group(2), fg.symmetric_group(3)
        aut, ev = fg.automorphism_group(G)
        index = {p: i for i, p in enumerate(ev.act)}
        data = ref.schreier_data(H.table, G.table)
        self.assertEqual(len(data), 6)
        for phi, f in data:
            fs = ext.FactorSet(H, G, tuple(index[p] for p in phi), f)
            self.assertTrue(ext.validate_factor_set(fs, aut, ev))


class SelfTime(unittest.TestCase):
    LAYER_OF = {
        "cli.main": "cli",
        "jsonio.from_jsonable": "jsonio",
        "fingroup.GroupHom": "fingroup",
        "butterfly.compose": "butterfly",
    }
    # (parent, op, name, start, end, flags), indexed in order of entry
    SPANS = [
        (-1, 0, "cli.main", 0.0, 10.0, 0),
        (0, 0, "jsonio.from_jsonable", 1.0, 4.0, 0),
        (1, 0, "fingroup.GroupHom", 2.0, 3.0, 0),
        (0, 0, "butterfly.compose", 5.0, 9.0, 0),
        (3, 0, "fingroup.GroupHom", 6.0, 7.0, ERROR),
        (3, 0, "butterfly.compose", 7.5, 8.5, ERROR),
    ]

    def test_self_time_subtracts_direct_children(self):
        self_s, calls, errors, per_name = layer_totals(self.SPANS, self.LAYER_OF)
        self.assertEqual(dict(self_s), {"cli": 3.0, "jsonio": 2.0, "fingroup": 2.0, "butterfly": 3.0})
        self.assertAlmostEqual(sum(self_s.values()), 10.0)
        self.assertEqual(calls["fingroup"], 2)
        self.assertEqual(per_name["butterfly.compose"], 2)
        # the GroupHom error left its layer; the inner compose error did not
        self.assertEqual(dict(errors), {"fingroup": 1})

    def test_inclusive_time_counts_nested_calls_once(self):
        self.assertEqual(inclusive_time(self.SPANS, {"butterfly.compose"}), 4.0)
        self.assertEqual(inclusive_time(self.SPANS, {"fingroup.GroupHom"}), 2.0)


class SpeedNormalization(unittest.TestCase):
    def probe(self, samples):
        probe = speed.SpeedProbe()
        probe.starts = [t for t, _ in samples]
        probe.durations = [d for _, d in samples]
        return probe

    def test_time_is_scaled_by_the_mean_slowdown_near_the_interval(self):
        nominal, margin = speed.NOMINAL_S, speed.MARGIN
        # one probe inside [1, 2], one just outside either end, one far away
        probe = self.probe([
            (1.0 - margin / 2, 2 * nominal),
            (1.5, 2 * nominal),
            (2.0 + margin / 2, 2 * nominal),
            (2.0 + 10 * margin, 50 * nominal),
        ])
        # the probe's own time inside the interval is not the op's
        self.assertAlmostEqual(probe.normalize(1.0, 2.0, 0.8), (0.8 - 2 * nominal) / 2**speed.SENSITIVITY)
        # an interval with no probe near it keeps its CPU time
        self.assertEqual(probe.normalize(100.0, 101.0, 0.8), 0.8)

    def test_harrell_davis_quantiles(self):
        self.assertEqual(run.quantile([3.0], 0.5), 3.0)
        self.assertAlmostEqual(run.quantile([2.0] * 7, 0.9), 2.0)
        # symmetric data: the median estimate is the centre
        self.assertAlmostEqual(run.quantile(list(range(1, 102)), 0.5), 51.0)
        # two equal groups: when one op crosses from the upper to the lower
        # group, the estimate moves a third as far as statistics.median
        a = [10.0 + i / 10 for i in range(14)] + [15.0 + i / 10 for i in range(14)]
        b = a[:14] + [11.4] + a[15:]
        self.assertLess(abs(run.quantile(b, 0.5) - run.quantile(a, 0.5)), 0.6)
        self.assertGreater(abs(statistics.median(b) - statistics.median(a)), 1.7)
        self.assertLess(run.quantile(a, 0.5), run.quantile(a, 0.9))

    def test_probe_samples_while_it_runs(self):
        with speed.SpeedProbe() as probe:
            deadline = perf_counter() + 0.2
            while perf_counter() < deadline:
                pass
        self.assertGreater(len(probe.durations), 5)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


def _run(ops):
    records: list = []
    run.run_ops(ops, records)
    return run.tally(records)


class NegativeControls(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)
        self.pkg = run.load_package()

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def classify_ops(self, pairs):
        w = workloads.ClassifyGrid()
        ops = w.trace_ops(w.setup(self.pkg, 0, WORK))
        return [op for op in ops if op.label.split(" ", 1)[1] in pairs]

    def test_clean_small_pairs_pass_and_defects_are_known(self):
        ops = self.classify_ops({"Z2 by Z2", "V4 by Z2", "Z2 by S3"})
        attempted, failed, known, failures = _run(ops)
        self.assertEqual((attempted, failed, known), (6, 0, 2), failures)

    def test_wrong_class_list_is_a_failed_op(self):
        ext = self.pkg.extension
        real = ext.classify_extensions
        ext.classify_extensions = lambda H, G, bound=16: real(H, G, bound)[1:]
        attempted, failed, known, _ = _run(self.classify_ops({"Z2 by Z2", "Z2 by S3"}))
        # the butterfly ops now fail, including the one with a known defect
        self.assertEqual((failed, known), (2, 1))

    def test_unexpected_error_is_a_failed_op(self):
        def broken(H, G, bound=16):
            raise KeyError("injected")

        self.pkg.extension.factor_set_oracle = broken
        attempted, failed, known, _ = _run(self.classify_ops({"Z2 by Z2", "Z2 by S3"}))
        # a KeyError only counts as the known defect on a non-abelian kernel
        self.assertEqual((failed, known), (1, 2))

    def test_undetected_fault_injection_is_a_failed_op(self):
        laws = self.pkg.laws
        real = laws.run_fractions_suite
        laws.run_fractions_suite = lambda fx, fault=None: real(fx)
        w = workloads.LawSuites()
        ops = [op for op in w._group(self.pkg, (0, 8), None) if "bicategory" not in op.label]
        attempted, failed, known, failures = _run(ops)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("fault injection went undetected", failures[0])

    def test_changed_store_ref_is_a_failed_op(self):
        butterfly = self.pkg.butterfly
        butterfly_compose = butterfly.compose
        self.pkg.cli.compose = lambda B1, B2: butterfly.flip(butterfly_compose(B1, B2))
        w = workloads.StoreRoundtrip()
        state = w.setup(self.pkg, 0, WORK)
        state["entries"] = [e for e in state["entries"] if e[0] == "C(Z3)"]
        attempted, failed, known, failures = _run(w.trace_ops(state))
        self.assertEqual((attempted, failed), (10, 1), failures)
        self.assertTrue(failures[0].startswith("compose C(Z3)"))


class Harness(unittest.TestCase):
    def test_run_prints_every_metric_and_traces_repeat(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        res = self.invoke("store-roundtrip", "--seed", "3", "--seconds", "0.1")
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]), names)
        self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

        traced = [self.invoke("store-roundtrip", "--seed", seed, "--trace", "1") for seed in ("1", "2")]
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for res in traced:
            self.assertEqual(set(res["metrics"]), set(per_layer))
        counts = [{k: v["value"] for k, v in res["metrics"].items() if per_layer[k] == "count"} for res in traced]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["cli.store.puts"], 0)

    def test_refuses_to_run_without_the_library(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "law-suites", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("correct", out.stdout)

    def invoke(self, workload, *args):
        out = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", workload, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
