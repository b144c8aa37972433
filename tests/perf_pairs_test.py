#!/usr/bin/env python3
"""Self-test for tools/perf_pairs.py, the paired parent-vs-change comparison.

Usage: perf_pairs_test.py <path-to-perf_pairs.py>
Builds two stub checkouts whose perfbench/run.py prints scripted results,
runs the tool on them and exits nonzero on the first wrong verdict, exit
status or run order.
"""

import json
import os
import subprocess
import sys
import tempfile

# A stub run.py: prints the next scripted result of its checkout and logs
# which checkout ran into the shared order log.
STUB = r'''
import json, os, sys
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(here, "script.json")) as f:
    script = json.load(f)
count_path = os.path.join(here, "count")
n = int(open(count_path).read()) if os.path.exists(count_path) else 0
open(count_path, "w").write(str(n + 1))
with open(script["log"], "a") as f:
    f.write(script["name"] + " " + " ".join(sys.argv[1:]) + "\n")
result = script["results"][n]
if result is None:
    sys.exit(1)
print("build log line")
print(json.dumps(result))
'''

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "rate", "better": "higher"}]}


def result(wall, rate=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def checkout(root, name, results, log):
    d = os.path.join(root, name)
    os.makedirs(os.path.join(d, "perfbench"))
    with open(os.path.join(d, "perfbench", "run.py"), "w") as f:
        f.write(STUB)
    with open(os.path.join(d, "script.json"), "w") as f:
        json.dump({"name": name, "results": results, "log": log}, f)
    with open(os.path.join(d, "BENCHMARK.json"), "w") as f:
        json.dump(SPEC, f)
    return d


def run(tool, parent, change, claim=None, pairs=10):
    with tempfile.TemporaryDirectory() as root:
        log = os.path.join(root, "order.log")
        p = checkout(root, "parent", parent, log)
        c = checkout(root, "change", change, log)
        cmd = [sys.executable, tool, "--parent", p, "--change", c, "--workload", "w",
               "--seed", "7", "--seconds", "0.5", "--pairs", str(pairs)]
        if claim:
            cmd += ["--claim", claim]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        order = open(log).read().splitlines() if os.path.exists(log) else []
        return proc.returncode, proc.stdout, order


def verdict_of(stdout, metric):
    for line in stdout.splitlines():
        if line.startswith(metric + " "):
            return line.split()[-1], line.split()[-2]
    return None, None


def main(argv):
    tool = argv[1]
    failures = []

    def check(name, ok, detail=""):
        if not ok:
            failures.append(f"{name}: {detail}")

    parent = [result(1.00 + 0.01 * (i % 3), rate=5.0) for i in range(10)]

    # A clear gain on wall_s; the higher-is-better rate drops clearly.
    change = [result(0.80 + 0.01 * (i % 3), rate=4.0) for i in range(10)]
    code, out, order = run(tool, parent, change, claim="wall_s")
    check("clear gain exit", code == 0, f"exit {code}\n{out}")
    check("clear gain verdict", verdict_of(out, "wall_s") == ("better", "10/10"), out)
    check("higher-is-better drop", verdict_of(out, "rate")[0] == "worse", out)
    expected = []
    for k in range(10):
        expected += ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
    check("alternating order", [o.split()[0] for o in order] == expected, str(order))
    check("run arguments", all(o.split()[1:] == ["--workload", "w", "--seed", "7",
                                                 "--seconds", "0.5", "--trace", "0"]
                               for o in order), str(order))

    # Same distribution: no verdict either way, and a claim fails with 3.
    code, out, _ = run(tool, parent, parent[1:] + parent[:1], claim="wall_s")
    check("no change exit", code == 3, f"exit {code}\n{out}")
    check("no change verdict", verdict_of(out, "wall_s")[0] == "unclear", out)

    # Faster by a lot, but in only 8 of 10 pairs.
    change8 = [result(0.7) for _ in range(8)] + [result(1.5), result(1.5)]
    code, out, _ = run(tool, parent, change8, claim="wall_s")
    check("8 of 10 wins", code == 3 and verdict_of(out, "wall_s") == ("unclear", "8/10"),
          f"exit {code}\n{out}")

    # Every pair won, but by less than the parent's own spread.
    spread = [result(1.0 + 0.1 * i) for i in range(10)]
    nudged = [result(1.0 + 0.1 * i - 0.01) for i in range(10)]
    code, out, _ = run(tool, spread, nudged, claim="wall_s")
    check("gap inside IQR", code == 3 and verdict_of(out, "wall_s") == ("unclear", "10/10"),
          f"exit {code}\n{out}")

    # Ties count for neither side; a metric constant on both is identical.
    code, out, _ = run(tool, parent, list(parent))
    check("ties", verdict_of(out, "wall_s") == ("unclear", "0/10"), out)
    check("identical", verdict_of(out, "rate") == ("identical", "0/10"), out)

    # A higher-is-better metric that rises clearly is a gain.
    code, out, _ = run(tool, parent, [result(1.0, rate=6.0) for _ in range(10)], claim="rate")
    check("higher-is-better gain", code == 0 and verdict_of(out, "rate")[0] == "better",
          f"exit {code}\n{out}")

    # A failing run, a failed operation and an incorrect result each exit 1.
    for name, bad in (("run fails", None), ("failed op", result(0.8, failed=1)),
                      ("incorrect", result(0.8, correct=False))):
        code, out, _ = run(tool, parent, [result(0.8), bad] + [result(0.8)] * 8)
        check(name, code == 1, f"exit {code}\n{out}")

    for f in failures:
        print("FAIL", f)
    print(f"perf_pairs self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
