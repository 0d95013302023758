"""Self-tests of the benchmark: generators, oracles, wrappers and counting.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_cli(ROOT)

from fiberext import cochain, dual_complex, lattice  # noqa: E402


def build(workload, seed, tmp):
    return workloads.build(workload, seed, os.path.join(tmp, f"{workload}-{seed}"), ROOT)


def smallest_rung(workload, ops):
    """The ops of the smallest rung of a ladder; all of scenario-mix."""
    if workload == "lattice-ladder":
        return ops[:2] + [ops[2 * len(workloads.LATTICE_CYCLES)]]
    if workload == "complex-ladder":
        return ops[:2] + ops[2 * len(workloads.GRAPH_RUNGS):][:2]
    if workload == "torsion-ladder":
        return ops[:9]
    return ops


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.WORKLOADS:
                a, b = build(workload, 7, tmp + "/a"), build(workload, 7, tmp + "/b")
                self.assertEqual(json.dumps(a).replace(tmp + "/a", ""),
                                 json.dumps(b).replace(tmp + "/b", ""), workload)
                for op_a, op_b in zip(a, b):
                    if op_a["argv"][0] != "corpus":
                        self.assertTrue(filecmp.cmp(op_a["argv"][1], op_b["argv"][1], shallow=False))
                c = build(workload, 8, tmp + "/c")
                self.assertNotEqual(json.dumps(a).replace(tmp + "/a", ""),
                                    json.dumps(c).replace(tmp + "/c", ""), workload)

    def test_scenario_mix_has_a_fixed_malformed_share(self):
        with tempfile.TemporaryDirectory() as tmp:
            for seed in (1, 2):
                ops = build("scenario-mix", seed, tmp)
                kinds = [op["kind"] for op in ops]
                self.assertEqual(kinds.count("malformed"), 3 * len(workloads.MUTATIONS))
                self.assertEqual(kinds.count("corpus"), len(workloads.bundled_corpus(ROOT)))


class OracleTest(unittest.TestCase):
    def test_oracles_agree_with_the_library_on_the_smallest_rung(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.WORKLOADS:
                for op in smallest_rung(workload, build(workload, 3, tmp)):
                    if op["kind"] == "malformed":
                        continue
                    _, code, out, _, exc = worker.run_op(cli, op["argv"])
                    self.assertIsNone(exc, op["argv"])
                    self.assertIsNone(workloads.check(op, code, out), op["argv"])

    def test_closed_forms(self):
        import random

        rng = random.Random(5)
        for n, size in ((2, 2), (3, 9), (6, 12)):
            mat, mult = workloads.blown_up_cycle(rng, n, size)
            fiber = lattice.FiberLattice([f"C{i}" for i in range(size)], mat, mult)
            self.assertEqual(lattice.component_group(fiber).invariant_factors, (n,))
            self.assertEqual(lattice.denominator_bound(fiber), n)
        edges, _ = workloads.multigraph(rng, 9, 20)
        strata = dual_complex.strata_from_multigraph(9, edges)
        profile = dual_complex.homology(dual_complex.build_dual_complex(strata))
        self.assertEqual(profile.betti, (1, 20 - 9 + 1))
        for k in (3, 5):
            complex_ = dual_complex.build_dual_complex(dual_complex.simplex_strata(range(k), full=False))
            want = workloads.sphere_profile(k)
            self.assertEqual(list(dual_complex.homology(complex_).betti), want["betti"])
        self.assertEqual(cochain.invariant_factor_chain([6, 6, 6]), (6, 6, 6))


class TracerTest(unittest.TestCase):
    def test_wrappers_are_transparent_and_removed(self):
        modules = {name: dict(vars(m)) for name, m in sys.modules.items()
                   if name == "fiberext" or name.startswith("fiberext.")}
        with tempfile.TemporaryDirectory() as tmp:
            ops = build("scenario-mix", 4, tmp) + smallest_rung("complex-ladder",
                                                                 build("complex-ladder", 4, tmp))
            plain = [worker.run_op(cli, op["argv"]) for op in ops]
            t = tracer.Tracer()
            t.install()
            try:
                traced = [worker.run_op(cli, op["argv"]) for op in ops]
            finally:
                t.uninstall()
        for op, a, b in zip(ops, plain, traced):
            self.assertEqual(a[1:4], b[1:4], op["argv"])
            self.assertEqual(repr(a[4]), repr(b[4]), op["argv"])
        self.assertTrue(t.restored())
        for name, snapshot in modules.items():
            current = vars(sys.modules[name])
            self.assertTrue(all(current[k] is v for k, v in snapshot.items()), name)
        summary = t.summary(len(ops), [op["kind"] for op in ops])
        self.assertEqual(summary["by_kind"]["dual-complex"]["dual_complex.homology"], 3)
        self.assertEqual(summary["by_kind"]["extend-trivial"]["lattice.validate_lattice"], 6)
        self.assertAlmostEqual(summary["metrics"]["cli.errors_per_op"] * len(ops),
                               sum(1 for r in plain if r[4] is not None))

    def test_per_layer_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracer.per_layer_metric_names())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class CountingTest(unittest.TestCase):
    def test_a_planted_wrong_answer_is_counted(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = smallest_rung("complex-ladder", build("complex-ladder", 5, tmp))
            honest = worker.measure(cli, ops, 0.0, 50)
            original = cli.torus_rank
            cli.torus_rank = lambda complex_: original(complex_) + 1
            try:
                planted = worker.measure(cli, ops, 0.0, 50)
            finally:
                cli.torus_rank = original
        self.assertEqual(honest.failures, [])
        dual_complex_ops = sum(1 for op in ops if op["kind"] == "dual-complex")
        self.assertEqual(len(planted.failures), dual_complex_ops)
        self.assertTrue(all("torus_rank" in f["reason"] for f in planted.failures))

    def test_an_escaping_exception_is_counted(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = smallest_rung("lattice-ladder", build("lattice-ladder", 5, tmp))
            original = cli.load_scenario_file

            def broken(path):
                raise TypeError("planted")

            cli.load_scenario_file = broken
            try:
                phase = worker.measure(cli, ops, 0.0, 50)
            finally:
                cli.load_scenario_file = original
        self.assertEqual([f["reason"] for f in phase.failures], ["escaped TypeError"] * len(ops))


class ContractTest(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scenario-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
