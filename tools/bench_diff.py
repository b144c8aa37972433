#!/usr/bin/env python3
"""Compare two BENCH_*.json reports modulo host-time noise.

The determinism contract for the bench suite is that every *simulated*
quantity — metrics, stats, time-series samples, table rows — is a pure
function of the configuration: identical at any IMA_JOBS worker width and
under either clock mode (per-cycle / skip-ahead). Host-side measurements
(wall seconds, host cycles/sec, speedups, resolved worker counts) are
legitimately different run to run, so they are masked before comparison.

Usage:  bench_diff.py [--subset] A.json B.json
Exit 0: reports are equivalent.  Exit 1: they differ (diff on stdout).
Exit 2: usage / parse error.

--subset: every field recorded in A must match B, but B may carry extra
fields A never had. This is the committed-golden mode: benches grow new
phases (new metrics, new tables) after a golden is recorded, and the pin
is on the values that existed at recording time — a changed or vanished
value still fails, a new one does not.
"""

import json
import sys

# Metric keys (and table-row labels) that measure the host, not the
# simulation. Matched by substring so bench-specific prefixes/suffixes
# (e.g. host_cycles_per_sec_loaded, sweep_wall_seconds_serial) are covered.
VOLATILE = (
    "wall_seconds",
    "wall (s)",
    "host_cycles_per_sec",
    "host cycles/sec",
    "speedup",
    "workers",
    # Resolved intra-sim shard width (IMA_SHARDS): a host-parallelism knob —
    # the simulated results are provably width-invariant, the width is not.
    "shards",
    # Shard barrier spacing (IMA_SHARD_EPOCH): decides only when shard
    # threads meet — the results are epoch-invariant, the setting is not.
    "shard_epoch",
)


def is_volatile(text):
    return any(v in text for v in VOLATILE)


def scrub(report):
    """Return the report with host-time noise removed, in place."""
    metrics = report.get("metrics", {})
    for key in [k for k in metrics if is_volatile(k)]:
        del metrics[key]
    for table in report.get("tables", []):
        table["rows"] = [
            row
            for row in table.get("rows", [])
            if not any(is_volatile(str(cell)) for cell in row)
        ]
    return report


def flatten(node, prefix, out):
    """Flatten to path -> scalar so differences print with full context."""
    if isinstance(node, dict):
        for k in sorted(node):
            flatten(node[k], f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = node


def main(argv):
    subset = "--subset" in argv
    argv = [a for a in argv if a != "--subset"]
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = []
    for path in argv[1:]:
        try:
            with open(path) as f:
                sides.append(scrub(json.load(f)))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: cannot load {path}: {e}", file=sys.stderr)
            return 2

    a, b = {}, {}
    flatten(sides[0], "", a)
    flatten(sides[1], "", b)
    if subset:
        # Golden mode pins simulated values, not prose: the descriptive
        # header strings legitimately grow as phases are added.
        for side in (a, b):
            for key in ("title", "claim", "shape"):
                side.pop(key, None)
        b = {k: v for k, v in b.items() if k in a}
    if a == b:
        mode = "golden fields matched" if subset else "fields compared"
        print(f"bench_diff: equivalent ({len(a)} {mode}, "
              f"host-time keys masked)")
        return 0

    paths = sorted(set(a) | set(b))
    differing = [p for p in paths if a.get(p) != b.get(p)]
    print(f"bench_diff: {len(differing)} differing field(s):")
    for p in differing[:50]:
        left = a.get(p, "<missing>")
        right = b.get(p, "<missing>")
        print(f"  {p}: {left!r} != {right!r}")
    if len(differing) > 50:
        print(f"  ... and {len(differing) - 50} more")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
