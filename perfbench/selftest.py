"""Self-tests of the benchmark's own arithmetic and output check.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import unittest

import run
import spans


def _tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    return [
        ("cli.main", 0.0, 10.0, -1, None),
        ("estimators.a", 1.0, 4.0, 0, None),
        ("exactlp.g", 2.0, 3.0, 1, 1),
        ("graph.b", 5.0, 9.0, 0, None),
    ]


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        self.assertEqual(spans.self_times(_tree()), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_add_up_to_root(self):
        summary = spans.summarize(_tree())
        self.assertEqual(summary["self_total_s"], 10.0)
        self.assertEqual(summary["layer_self_s"],
                         {"cli": 3.0, "estimators": 2.0, "exactlp": 1.0, "graph": 4.0})
        self.assertEqual(summary["by_name"]["exactlp.g"]["value"], 1)
        self.assertEqual(summary["graph_top_calls"], 1)

    def test_overlapping_children_counted_once(self):
        tree = [("cli.main", 0.0, 10.0, -1, None),
                ("rng.x", 1.0, 5.0, 0, None),
                ("rng.y", 3.0, 7.0, 0, None),
                ("rng.z", 9.0, 12.0, 0, None)]
        self.assertEqual(spans.self_times(tree)[0], 10.0 - 6.0 - 1.0)

    def test_nested_pool_tasks_counted_once(self):
        tree = [("cli.main", 0.0, 10.0, -1, None),
                ("mc.parallel_map", 1.0, 9.0, 0, 2),
                ("estimators.cell", 1.0, 5.0, 1, None),
                ("mc.parallel_map", 2.0, 4.0, 2, 1),
                ("estimators.block", 2.0, 4.0, 3, None),
                ("estimators.cell", 5.0, 9.0, 1, None)]
        summary = spans.summarize(tree)
        self.assertEqual((summary["pool_s"], summary["task_s"]), (8.0, 8.0))

    def test_recorder_links_parents(self):
        rec = spans.Recorder()
        inner = rec.wrap("exactlp.inner", lambda x: x > 0)
        outer = rec.wrap("graph.outer", lambda x: inner(x))
        self.assertTrue(rec.span("cli.main", outer, 3))
        names = [(s[0], s[3], s[4]) for s in rec.spans]
        self.assertEqual(names, [("cli.main", -1, None), ("graph.outer", 0, None),
                                 ("exactlp.inner", 1, None)])
        self.assertEqual(rec.stack, [])

    def test_recorder_closes_span_on_error(self):
        rec = spans.Recorder()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            rec.wrap("graph.boom", boom)()
        self.assertEqual(len(rec.spans), 1)
        self.assertEqual(rec.stack, [])


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.reference = run.load_reference("tau-lp", 0)
        rows = self.reference.splitlines()
        self.output = "".join(f"{row},{'wall_time_s' if i == 0 else '1.234'}\n"
                              for i, row in enumerate(rows))
        self.rows = len(rows) - 1

    def test_matching_output_passes_whatever_the_wall_time(self):
        self.assertEqual(run.check_rows(self.output, self.reference), (self.rows, 0))
        other = self.output.replace("1.234", "9.876")
        self.assertEqual(run.check_rows(other, self.reference), (self.rows, 0))

    def test_one_byte_change_fails_its_row(self):
        lines = self.output.splitlines(keepends=True)
        row = lines[1]
        pos = row.index(",0.") + 3
        lines[1] = row[:pos] + ("1" if row[pos] != "1" else "2") + row[pos + 1:]
        self.assertEqual(run.check_rows("".join(lines), self.reference), (self.rows, 1))

    def test_missing_row_and_crash_fail(self):
        lines = self.output.splitlines(keepends=True)
        self.assertEqual(run.check_rows("".join(lines[:-1]), self.reference),
                         (self.rows, 1))
        self.assertEqual(run.check_rows("", self.reference), (self.rows, self.rows))

    def test_decomposition_total_not_double_counted(self):
        text = ("experiment,method,samples\npi,mc,10\npi,decomp,5\n"
                "pi_k,decomp,2\npi_k,decomp,3\n")
        self.assertEqual(run.sample_count(text), 15)


if __name__ == "__main__":
    unittest.main()
