"""Self-tests for the benchmark itself (not part of the library's suite).

    python3 perfbench/selftest.py

Checks that op lists follow the seed, that a tiny run of every workload
prints every declared metric with its unit, that the checkers flag a
deliberately perturbed result, that the tracer skips names the library
does not define and a pair table that is not a dense array, and that the
benchmark refuses to run without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class OpListFollowsSeed(unittest.TestCase):
    def test_same_seed_same_list_other_seed_other_list(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a = [cls(7).round_ops(r) for r in range(3)]
                b = [cls(7).round_ops(r) for r in range(3)]
                c = [cls(8).round_ops(r) for r in range(3)]
                self.assertEqual(json.dumps(a), json.dumps(b))
                self.assertNotEqual(json.dumps(a), json.dumps(c))

    def test_every_round_has_the_same_mix(self):
        wl = workloads.LawsDeep(3)
        for r in range(4):
            ops = wl.round_ops(r)
            self.assertEqual(len(ops), 2 * len(workloads._LAWS_REGULAR) + 1)
            self.assertEqual(sum(op["known_defect"] for op in ops), 1)


class TinyRunsPrintEveryMetric(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
            decl = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in decl["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in decl["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertEqual([w["name"] for w in decl["workloads"]],
                         list(workloads.WORKLOADS))

    def test_tiny_runs(self):
        for name in workloads.WORKLOADS:
            for trace, specs in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                                "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, dict(specs))
                    for metric, unit in specs:
                        self.assertTrue(any(line.split()[:1] == [metric] and unit in line
                                            for line in lines[:-1]), metric)


class CheckersFlagPerturbedResults(unittest.TestCase):
    def setUp(self):
        import powertail
        self.pt = powertail

    def _patched(self, module, attr, perturb):
        orig = getattr(module, attr)
        setattr(module, attr, lambda *a, **k: perturb(orig(*a, **k)))
        self.addCleanup(setattr, module, attr, orig)

    def test_laws_deep_closure(self):
        wl = workloads.LawsDeep(1)
        wl.setup()
        op = {"kind": "classical", "alpha": 1.5, "b": [0.5, 0.2], "cutoff": 8,
              "known_defect": False}
        self.assertTrue(wl.run_op(op).passed)

        def nudge(m):
            terms = dict(m.terms)
            terms[3.0] = terms.get(3.0, 0j) + 1e-6
            return self.pt.transforms.MomentSeries(m.series.with_terms(terms))
        self._patched(self.pt.transforms, "classical_convolve", nudge)
        out = wl.run_op(op)
        self.assertFalse(out.passed)
        self.assertLess(out.digits, 7.0)  # 1e-6 scaled by max(1, |m_3|)

    def test_eval_sweep_oracle_comparison(self):
        wl = workloads.EvalSweep(1)
        wl.setup()
        op = {"template": "pareto", "known_defect": False, "points": 20, "u": 0.3,
              "beta": 1.5, "R": 1.0}
        self.assertTrue(wl.run_op(op).passed)
        QR = self.pt.oracles.QuadratureResult
        self._patched(self.pt.oracles, "rotated_pareto_transform",
                      lambda q: QR(q.value * (1 + 1e-6), q.error_estimate, q.tail_bound))
        self.assertFalse(wl.run_op(op).passed)

    def test_cli_output_checks(self):
        argv = ["verify", "--law", "cauchy"]
        doc = {"checks": [{"discrepancy": 1e-12, "tolerance": 1e-7}], "failed": 0}
        good = json.dumps(doc).encode()
        check = workloads.check_cli_output
        self.assertTrue(check(argv, 0, good, b"", None)[0])
        self.assertTrue(check(argv, 0, good, b"", good)[0])
        self.assertFalse(check(argv, 0, good, b"", good + b" ")[0])
        self.assertFalse(check(argv, 0, good, b"Traceback (most recent call last):", None)[0])
        self.assertFalse(check(argv, 3, good, b"", None)[0])
        self.assertFalse(check(argv, 0, b"{not json", b"", None)[0])
        bad = json.dumps(dict(doc, failed=1)).encode()
        self.assertFalse(check(argv, 0, bad, b"", None)[0])


class TracerSurvivesLibraryRefactors(unittest.TestCase):
    def test_missing_names_and_sparse_pair_table(self):
        import numpy as np
        import powertail
        import tracer
        sg = powertail.semigroup
        # a pair structure in another layout, as a sparse refactor would return
        orig = sg.ExponentGrid.pair_table
        sg.ExponentGrid.pair_table = lambda grid: (np.zeros(len(grid) + 1, int),
                                                   np.zeros(0, int))
        self.addCleanup(setattr, sg.ExponentGrid, "pair_table", orig)
        traced = dict(tracer.TRACED, gone=("fn",))
        traced["semigroup"] += ("no_such_fn", "NoSuchClass.method",
                                "ExponentGrid.no_such_method")
        orig_traced = tracer.TRACED
        tracer.TRACED = traced
        self.addCleanup(setattr, tracer, "TRACED", orig_traced)
        sg.exponent_grid.cache_clear()
        t = tracer.Tracer()
        t.install()
        try:
            grid = sg.exponent_grid(sg.SemigroupSpec((0.5,)), 3.0)
            grid.pair_table()
        finally:
            t.uninstall()
        m = metrics.per_layer(t.summary(), {}, 0.0)
        self.assertEqual(m["series.pair_table_calls"], 1)
        self.assertEqual(m["semigroup.grid_builds"], 1)
        self.assertEqual(m["semigroup.pair_valid_frac"], 0.0)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_exits_nonzero_without_result(self):
        work = os.path.join(ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=work)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "laws-deep", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
