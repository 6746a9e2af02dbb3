"""Tests of the benchmark itself: fault injection into the output check,
the input generators, and the tracer on small runs of the real program.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOOD = """CONFIG command=hjorth input=s.txt logic=1 n=3 k=3 format=records
CHECK name=leq_oracle_equivalence verdict=pass witness=-
RANK point=S0 delta=1 stab=2 m=0
RANK point=S1 delta=2 stab=2 m=0
RANK point=M2 delta=1 stab=2 m=1
PART rank=1 points=S0;M2
PART rank=2 points=S1
"""
CLASS_OF = {"S0": 0, "S1": 1}


def expectations() -> dict:
    digest, problems = check.class_ranks(GOOD, CLASS_OF)
    assert not problems
    return {"checks": ("leq_oracle_equivalence",),
            "records_sha256": check.records_digest(GOOD),
            "rank_count": 3, "part_covers_ranks": True,
            "class_of": CLASS_OF, "class_ranks_sha256": digest}


class OutputCheckTest(unittest.TestCase):
    def test_good_stream_passes(self):
        self.assertEqual(check.check_pass(GOOD, 0, None, expectations()), [])

    def test_altered_rank_and_flipped_check_fail_the_pass(self):
        bad = (GOOD.replace("RANK point=S1 delta=2", "RANK point=S1 delta=1")
                   .replace("verdict=pass", "verdict=fail"))
        problems = check.check_pass(bad, 0, None, expectations())
        self.assertTrue(problems)
        self.assertIn("check leq_oracle_equivalence reports fail", problems)
        self.assertIn("RANK/PART/PROFILE records differ from the expected ones", problems)
        self.assertIn("ranks per class differ from the expected ones", problems)

    def test_each_fault_alone_fails_the_pass(self):
        expect = expectations()
        faults = {
            "rank": GOOD.replace("RANK point=M2 delta=1", "RANK point=M2 delta=2"),
            "check": GOOD.replace("verdict=pass", "verdict=fail"),
            "missing check": GOOD.replace("CHECK name=leq_oracle_equivalence "
                                          "verdict=pass witness=-\n", ""),
            "part": GOOD.replace("points=S1", "points=S1;M9"),
            "dropped rank": GOOD.replace("RANK point=M2 delta=1 stab=2 m=1\n", ""),
        }
        for name, text in faults.items():
            with self.subTest(name):
                self.assertTrue(check.check_pass(text, 0, None, expect))
        self.assertTrue(check.check_pass(GOOD, 1, None, expect))
        self.assertTrue(check.check_pass(GOOD, 0, "Traceback\nValueError: x", expect))

    def test_unknown_record_kinds_are_ignored(self):
        text = GOOD + "STAT name=quadruples value=12\n"
        self.assertEqual(check.check_pass(text, 0, None, expectations()), [])

    def test_traced_pass_with_less_work_fails(self):
        work = {"oracle.quadruples": 511753, "verify.systems": 20}
        self.assertEqual(check.check_work(dict(work, **{"trace.spans": 44}), work), [])
        self.assertEqual(check.check_work({"oracle.quadruples": 85000, "verify.systems": 20},
                                          work),
                         ["oracle.quadruples is 85000, expected 511753"])
        self.assertTrue(check.check_work({}, work))

    def test_one_class_with_two_ranks_fails(self):
        expect = expectations()
        expect["class_of"] = {"S0": 0, "S1": 0}
        self.assertTrue(check.check_pass(GOOD, 0, None, expect))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_input(self):
        self.assertEqual(inputs.relabel_hjorth_input(5), inputs.relabel_hjorth_input(5))
        self.assertNotEqual(inputs.relabel_hjorth_input(5)[0],
                            inputs.relabel_hjorth_input(6)[0])

    def test_relabel_input_sizes(self):
        text, class_of = inputs.relabel_hjorth_input(3)
        self.assertEqual(len(class_of), inputs.RELABEL_STRUCTURES)
        self.assertEqual(text.count("structure "), inputs.RELABEL_STRUCTURES)
        self.assertEqual(sorted(set(class_of.values())),
                         list(range(len(inputs.relabel_classes()))))
        self.assertEqual(inputs.RELABEL_POINTS, 244)

    def test_scott_input_holds_every_class_once(self):
        text, class_of = inputs.scott_rank_input(3)
        self.assertEqual(sorted(class_of.values()), list(range(3160)))
        self.assertEqual(text.count("structure "), 3160)


class TracerTest(unittest.TestCase):
    """The tracer against the real program, on inputs that take milliseconds."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))

    def run_traced(self, argv):
        import contextlib
        import io

        from rankforge import cli

        original = cli.main
        spans = tracer.Tracer()
        spans.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            spans.uninstall()
        self.assertIs(cli.main, original)
        self.assertEqual(code, 0)
        self.assertEqual(spans.missing, [])
        return spans

    def test_self_times_cover_the_root_span(self):
        spans = self.run_traced(["verify", "lemmas", "--seed", "1", "--count", "3",
                                 "--format", "records"])
        root = spans.ends[0] - spans.starts[0]
        self.assertEqual(spans.names[0], "cli.main")
        self.assertAlmostEqual(sum(spans.self_times().values()), root, places=6)
        layers = spans.metrics(call_cost=1e-6)
        self.assertEqual(layers["verify.systems"], 3)
        self.assertEqual(layers["hjorth.tables"], 3)
        self.assertEqual(layers["verify.checks"], 7)
        self.assertGreater(layers["oracle.quadruples"], 0)
        self.assertGreaterEqual(layers["oracle.queries"], 2 * layers["oracle.quadruples"])

    def test_counts_on_a_relabeling_system(self):
        import tempfile

        text, _ = inputs.relabel_hjorth_input(0)
        text = text[:text.index("structure S4 ")]  # four structures
        work = os.path.join(ROOT, ".perfbench")
        os.makedirs(work, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=work,
                                         delete=False) as handle:
            handle.write(text)
        try:
            spans = self.run_traced(["hjorth", "--logic", "--structures", handle.name,
                                     "--n", "3", "--k", "2", "--format", "records"])
        finally:
            os.unlink(handle.name)
        layers = spans.metrics(call_cost=1e-6)
        self.assertEqual(layers["structures.parsed"], 4)
        self.assertEqual(layers["actions.systems_built"], 1)
        points, basis = layers["actions.points"], layers["actions.basis_sets"]
        self.assertEqual(layers["hjorth.table_entries"],
                         (points * basis) ** 2 * layers["hjorth.levels"])
        self.assertEqual(layers["hjorth.rank_calls"], 3 * points)

    def test_benchmark_lists_every_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            listed = [m["name"] for m in json.load(handle)["per_layer"]]
        produced = (list(tracer.SELF_TIME_METRICS) + list(tracer.COUNT_METRICS)
                    + ["hjorth.t1_s", "cli.records", "cli.output_bytes",
                       "trace.spans", "trace.overhead_s"])
        self.assertEqual(sorted(listed), sorted(produced))


if __name__ == "__main__":
    unittest.main()
