#!/usr/bin/env python3
"""Per-span-name totals and self time from an e2bench trace.

    python3 e2bench/selftime.py .bench_build/traces/update_heavy-seed1.tsv

A span's self time is its duration minus the time its child spans cover.
The benchmark's client is one thread, so the children of a span never
overlap and the covered time is the sum of their durations. Prints, per
span name: calls, total and self time in ms, and the median self time
in microseconds.
"""

import csv
import statistics
import sys


def main(path):
    spans = {}
    children = {}
    with open(path) as f:
        for row in csv.DictReader(f, delimiter="\t"):
            sid, parent = int(row["id"]), int(row["parent"])
            dur = int(row["end_ns"]) - int(row["start_ns"])
            spans[sid] = (row["name"], dur)
            if parent >= 0:
                children[parent] = children.get(parent, 0) + dur
    by_name = {}
    for sid, (name, dur) in spans.items():
        by_name.setdefault(name, []).append((dur, dur - children.get(sid, 0)))
    print("%-40s %9s %12s %12s %14s" %
          ("span", "calls", "total_ms", "self_ms", "self_p50_us"))
    for name, rows in sorted(by_name.items()):
        total = sum(d for d, _ in rows)
        self_total = sum(s for _, s in rows)
        p50 = statistics.median(s for _, s in rows) / 1e3
        print("%-40s %9d %12.3f %12.3f %14.3f" %
              (name, len(rows), total / 1e6, self_total / 1e6, p50))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
