#!/usr/bin/env python3
"""Self-test for tools/bench_diff.py, the comparator behind every golden check.

Usage: bench_diff_test.py <path-to-bench_diff.py>
Runs the tool on small hand-made reports and exits nonzero on the first
verdict that is wrong.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BASE = {
    "id": "t",
    "title": "t: self-test",
    "metrics": {"cycles": 100, "sweep_wall_seconds": 0.5, "sweep_workers": 4,
                "shards": 8, "shard_cycles": 50},
    "stats": {"sys.reads": 7},
    "tables": [{"title": "run", "headers": ["metric", "value"],
                "rows": [["cycles", "100"], ["wall (s)", "0.5"], ["host workers used", "4"]]}],
}


def run(tool, a, b, subset):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, report in (("a.json", a), ("b.json", b)):
            paths.append(os.path.join(d, name))
            with open(paths[-1], "w") as f:
                json.dump(report, f)
        cmd = [sys.executable, tool] + (["--subset"] if subset else []) + paths
        return subprocess.run(cmd, capture_output=True, text=True).returncode


def variant(edit):
    report = copy.deepcopy(BASE)
    edit(report)
    return report


def main(argv):
    tool = argv[1]
    cases = [
        # (name, golden, run, --subset, expected exit status)
        ("equal reports", BASE, BASE, False, 0),
        ("equal reports, subset", BASE, BASE, True, 0),
        ("changed metric", BASE,
         variant(lambda r: r["metrics"].update(cycles=101)), False, 1),
        ("changed table cell", BASE,
         variant(lambda r: r["tables"][0]["rows"][0].__setitem__(1, "101")), True, 1),
        ("changed stat", BASE,
         variant(lambda r: r["stats"].update({"sys.reads": 8})), True, 1),
        ("golden field missing from run", BASE,
         variant(lambda r: r["metrics"].pop("shard_cycles")), True, 1),
        ("extra run field", BASE,
         variant(lambda r: r["metrics"].update(new_metric=1)), True, 0),
        ("extra run field, no subset", BASE,
         variant(lambda r: r["metrics"].update(new_metric=1)), False, 1),
        ("host-time keys masked", BASE,
         variant(lambda r: (r["metrics"].update(sweep_wall_seconds=9, sweep_workers=1, shards=1),
                            r["tables"][0]["rows"][1].__setitem__(1, "9"),
                            r["tables"][0]["rows"][2].__setitem__(1, "1"))), False, 0),
    ]
    failed = 0
    for name, a, b, subset, want in cases:
        got = run(tool, a, b, subset)
        if got != want:
            print(f"FAIL {name}: exit {got}, expected {want}")
            failed += 1
    print(f"bench_diff self-test: {len(cases) - failed}/{len(cases)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
