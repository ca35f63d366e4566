"""Self-tests of the benchmark's checker and tracer.

Run from the repository root::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import time
import unittest

import run  # sets the BLAS thread count before numpy loads

import checker
import tracing
import workloads

ballspec = run.load_ballspec()


def cli(argv: list[str]) -> str:
    p = run.run_pass(ballspec, [argv])
    code, out = p.outputs[0]
    assert code == 0, (argv, code)
    return out


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.check = checker.Checker()

    def test_accepts_real_outputs(self):
        for argv in (
            ["spectrum", "--n", "9", "--r", "4"],
            ["spectrum", "--n", "10", "--r1", "2", "--r2", "5", "--format", "csv"],
            ["incidence", "--n", "12", "--r", "5", "--format", "json"],
            ["verify", "--all", "--max-n", "5"],
            ["verify", "--n", "8", "--r1", "1", "--r2", "3"],
            ["bounds", "--n", "3000", "--log2s", "2900", "--format", "text"],
            ["krawtchouk", "--n", "5000", "--k", "2500", "--first-root"],
            ["eigenfunction", "--n", "8", "--r", "3", "--t", "2", "--which", "1", "--y", "00010100"],
            ["eigenfunction", "--n", "8", "--r", "3", "--t", "1", "--which", "2", "--format", "text"],
            ["export", "--n", "7", "--r1", "1", "--r2", "3"],
        ):
            with self.subTest(argv=argv):
                self.assertIsNone(self.check.check(argv, 0, cli(argv)))

    def test_flags_perturbed_eigenvalue(self):
        argv = ["spectrum", "--n", "9", "--r", "4"]
        rows = cli(argv).splitlines()
        value, rest = rows[3].split(" ", 1)
        rows[3] = f"{float(value) + 1e-6!r} {rest}"
        self.assertIn("not in the reference", self.check.check(argv, 0, "\n".join(rows)))

        argv = ["spectrum", "--n", "9", "--r", "4", "--format", "json"]
        doc = json.loads(cli(argv))
        doc["lines"][0]["multiplicity"] += 1
        self.assertIsNotNone(self.check.check(argv, 0, json.dumps(doc)))

    def test_flags_false_verify_row(self):
        argv = ["verify", "--all", "--max-n", "5"]
        rows = cli(argv).splitlines()
        rows[4] = rows[4].rsplit(",", 1)[0] + ",false"
        self.assertIn("did not pass", self.check.check(argv, 0, "\n".join(rows)))

        argv = ["verify", "--n", "6", "--r", "2"]
        out = cli(argv).replace(" pass", " FAIL")
        self.assertIn("not a pass", self.check.check(argv, 0, out))

    def test_flags_bad_bounds_root_and_nonzero_exit(self):
        argv = ["bounds", "--n", "1000", "--log2s", "500"]
        doc = json.loads(cli(argv))
        doc["delta_upper"] += 1e-4
        doc["lambda_lower"] -= 1e-4
        self.assertIn("first_root", self.check.check(argv, 0, json.dumps(doc)))
        big = ["krawtchouk", "--n", "100000", "--k", "44120", "--first-root"]
        self.assertIsNotNone(self.check.check(big, 0, "7000.5"))
        self.assertEqual(self.check.check(argv, 1, ""), "exit code 1")

    def test_flags_wrong_eigenfunction(self):
        argv = ["eigenfunction", "--n", "8", "--r", "3", "--t", "2", "--which", "1", "--y", "00010100"]
        doc = json.loads(cli(argv))
        doc["spheres"][-1]["classes"][0]["value"] *= 1.001
        self.assertIn("residual", self.check.check(argv, 0, json.dumps(doc)))

    def test_flags_missing_edge(self):
        argv = ["export", "--n", "7", "--r", "3"]
        out = cli(argv).splitlines()
        self.assertIn("edges", self.check.check(argv, 0, "\n".join(out[1:])))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("a.child", 2.0, 3.0, 1, 0),
            ("b", 5.0, 9.0, 0, 0),
            ("b.child", 5.0, 6.0, 3, 0),
            ("b.child", 7.5, 8.0, 3, 0),
            ("other", 0.0, 1.0, -1, 1),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 2.5, 1.0, 0.5, 1.0])
        summary = tracing.summarize(spans)
        self.assertEqual(summary["b.child.calls"], 2)
        self.assertEqual(summary["b.child.busy_s"], 1.5)
        self.assertEqual(summary["root.self_s"], 3.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [("p", 0.0, 4.0, -1, 0), ("c", 1.0, 3.0, 0, 0), ("c", 2.0, 5.0, 0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)


class TracerTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        import numpy as np

        originals = {
            ("spectrum", "first_root"): ballspec.spectrum.first_root,
            ("bounds", "first_root"): ballspec.bounds.first_root,
            ("cli", "build_graph"): ballspec.cli.build_graph,
            ("eigenfunctions", "lambda_set"): ballspec.eigenfunctions.lambda_set,
            ("cli", "incidence_matrix"): ballspec.cli.incidence_matrix,
        }
        eigh = np.linalg.eigh
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for (mod, attr), fn in originals.items():
                self.assertIsNot(getattr(getattr(ballspec, mod), attr), fn, (mod, attr))
            run.run_pass(ballspec, [["verify", "--n", "4", "--r", "2"]])
            ballspec.eigenfunctions.synthesize(6, 0, 2, 1, 1, 0)
        finally:
            tracer.uninstall()
        for (mod, attr), fn in originals.items():
            self.assertIs(getattr(getattr(ballspec, mod), attr), fn)
        self.assertIs(np.linalg.eigh, eigh)
        names = {s[0] for s in tracer.spans}
        for name in ("cli.main", "spectrum.verify_against_oracle", "hamming.eigh",
                     "hamming.build_graph", "hamming.apply_adjacency", "krawtchouk.roots",
                     "eigenfunctions.build_basis", "tridiagonal.count_below"):
            self.assertIn(name, names)
        eigh_spans = [s for s in tracer.spans if s[0] == "hamming.eigh"]
        self.assertTrue(all(tracer.spans[s[3]][0] == "hamming.oracle_spectrum" for s in eigh_spans))
        self.assertEqual(tracer.counts["hamming.vertices"], 11 + 22)

    def test_workload_stdout_is_identical_under_the_tracer(self):
        tracer = tracing.Tracer()
        for workload in workloads.WORKLOADS:
            cmds = workloads.commands(workload, seed=7)
            plain = run.run_pass(ballspec, cmds)
            tracer.install()
            try:
                traced = run.run_pass(ballspec, cmds)
            finally:
                tracer.uninstall()
                tracer.reset()
            for argv, a, b in zip(cmds, plain.outputs, traced.outputs):
                self.assertEqual(a, b, argv)


class SpeedProbeTest(unittest.TestCase):
    def test_reference_seconds_keep_native_time_and_scale_the_rest(self):
        period = run.PROBE_PERIOD
        samples = [(period, 0.01), (period + 1.0, 0.02)]  # 100 and 50 kernels/s
        rate = run.kernel_rate(samples)
        self.assertAlmostEqual(rate, 75.0)
        # 1 s held inside a native call stays 1 s; the other 2 s ran at 75 of 250 kernels/s.
        self.assertAlmostEqual(run.reference_seconds(3.0, samples, rate), 1.0 + 2.0 * 75.0 / run.PROBE_REF_RATE)
        self.assertAlmostEqual(run.reference_seconds(0.5, samples, rate), 0.5)

    def test_probe_time_is_taken_out_of_the_commands(self):
        argv = ["spectrum", "--n", "60", "--r", "30"]
        plain = run.run_pass(ballspec, [argv])
        with run.SpeedProbe(0.005) as speed:
            start = time.perf_counter()
            probed = run.run_pass(ballspec, [argv], speed)
            elapsed = time.perf_counter() - start
        self.assertGreater(len(speed.samples), 10)
        self.assertEqual(plain.outputs, probed.outputs)
        self.assertAlmostEqual(probed.walls[0] + speed.busy, elapsed, delta=0.01)
        self.assertGreater(probed.walls[0], 0.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_seed_changes_order_not_work(self):
        a = workloads.commands("eigenfunction_synth", 1)
        b = workloads.commands("eigenfunction_synth", 2)
        self.assertNotEqual(a, b)

        def without_masks(cmds):
            return sorted(tuple(c[:c.index("--y")] + c[c.index("--y") + 2:]) if "--y" in c else tuple(c)
                          for c in cmds)

        self.assertEqual(without_masks(a), without_masks(b))
        self.assertEqual(workloads.commands("closed_form", 3), workloads.commands("closed_form", 3))


if __name__ == "__main__":
    unittest.main()
