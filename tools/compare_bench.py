#!/usr/bin/env python3
"""Bench-regression guard: compare deterministic counters in a bench JSON
against a committed baseline and fail when any counter moves beyond the
allowed fraction.

Usage:
    compare_bench.py BASELINE.json CURRENT.json PATH [PATH ...]
                     [--max-regress 0.10]

PATH is a dotted path into the JSON (e.g. "planner_on.feature_queries").
A trailing ".*" expands to every numeric key of the baseline object at that
path (e.g. "counters.*"). The guard is two-sided: a counter fails when
current > baseline * (1 + max_regress) or current < baseline *
(1 - max_regress). Deterministic counters have no noise, and some are
higher-is-better (blocks_skipped, cells_decompress_avoided,
scan_chunks_pruned), so a drop can be a lost optimization as surely as a rise
can be added work. A change that moves a counter on purpose refreshes the
baseline in the same commit.

Exit status: 0 when every counter is within bounds, 1 otherwise.
"""

import argparse
import json
import sys


def resolve(doc, path):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def expand(baseline, paths):
    out = []
    for path in paths:
        if path.endswith(".*"):
            prefix = path[:-2]
            node = resolve(baseline, prefix) if prefix else baseline
            if not isinstance(node, dict):
                print(f"FAIL {path}: baseline has no object at '{prefix}'")
                return None
            for key, value in node.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out.append(f"{prefix}.{key}" if prefix else key)
        else:
            out.append(path)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--max-regress", type=float, default=0.10)
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    paths = expand(baseline, args.paths)
    if paths is None:
        return 1

    failed = False
    for path in paths:
        base = resolve(baseline, path)
        cur = resolve(current, path)
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            print(f"FAIL {path}: missing or non-numeric in baseline")
            failed = True
            continue
        if not isinstance(cur, (int, float)) or isinstance(cur, bool):
            print(f"FAIL {path}: missing or non-numeric in current output")
            failed = True
            continue
        if (cur > base * (1.0 + args.max_regress) or
                cur < base * (1.0 - args.max_regress)):
            print(f"FAIL {path}: {cur} vs baseline {base} "
                  f"(+/-{args.max_regress:.0%} allowed)")
            failed = True
        else:
            print(f"ok   {path}: {cur} (baseline {base})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
