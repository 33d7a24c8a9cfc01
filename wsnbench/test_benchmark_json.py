#!/usr/bin/env python3
"""Checks BENCHMARK.json against the limits the benchmark format sets, and
against the metric table the benchmark program prints (src/main.cpp).

    python3 wsnbench/test_benchmark_json.py
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def printed_metrics(table):
    """(name, unit) pairs of one metric table in src/main.cpp."""
    with open(os.path.join(HERE, "src", "main.cpp")) as f:
        source = f.read()
    body = re.search(table + r"\[\] = \{(.*?)\n\};", source, re.S).group(1)
    return re.findall(r'\{"([^"]+)", "([^"]*)"\}', body)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.text = f.read()
        self.spec = json.loads(self.text)

    def test_top_level(self):
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        self.assertTrue(1 <= len(self.spec["paths"]) <= 16)
        for path in self.spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        names = [m["name"] for m in e2e + layers]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in e2e if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))

    def test_declared_metrics_are_the_printed_ones(self):
        for key, table in (("end_to_end", "kEndToEnd"),
                           ("per_layer", "kPerLayer")):
            declared = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(declared, printed_metrics(table))


if __name__ == "__main__":
    unittest.main()
