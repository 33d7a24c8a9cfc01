#!/usr/bin/env python3
"""Checks one benchmark run against its committed expected values.

    python3 wsnbench/run.py --workload W --seed 7 --seconds 2 --trace 1 > out.txt
    python3 tools/bench_gate.py W out.txt

The first non-empty line of the run's output is the traced report (its
output digest and exact counts), the last one the result. The run must be
correct with no failed operation, and the report's digest and whole
`exact` block must equal the workload's entry in bench_expected.json
(next to this script). Exits 0 when they do, 1 naming every difference
when they do not, and 2 on a usage error.
"""

import json
import os
import sys

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bench_expected.json")


def problems(want, report, result):
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, expected true")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}, expected 0")
    if report.get("digest") != want["digest"]:
        found.append(f"digest is {report.get('digest')!r}, "
                     f"expected {want['digest']!r}")
    exact = report.get("exact")
    if not isinstance(exact, dict):
        found.append(f"exact is {exact!r}, expected an object")
        return found
    for key in sorted(want["exact"].keys() | exact.keys()):
        if key not in exact:
            found.append(f"exact[{key!r}] is missing")
        elif key not in want["exact"]:
            found.append(f"exact[{key!r}] = {exact[key]!r} is not expected")
        elif exact[key] != want["exact"][key]:
            found.append(f"exact[{key!r}] is {exact[key]!r}, "
                         f"expected {want['exact'][key]!r}")
    return found


def main(argv):
    if len(argv) != 3:
        print("usage: bench_gate.py WORKLOAD RUN_OUTPUT", file=sys.stderr)
        return 2
    workload, path = argv[1], argv[2]
    with open(EXPECTED) as f:
        expected = json.load(f)
    if workload not in expected:
        print(f"bench_gate: no expected values for workload {workload!r} "
              f"(have {', '.join(sorted(expected))})", file=sys.stderr)
        return 2
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        print(f"bench_gate: {path} holds no report and result",
              file=sys.stderr)
        return 1
    found = problems(expected[workload], json.loads(lines[0]),
                     json.loads(lines[-1]))
    for problem in found:
        print(f"bench_gate: {workload}: {problem}", file=sys.stderr)
    if found:
        return 1
    print(f"bench_gate: {workload}: correct, digest and exact block match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
