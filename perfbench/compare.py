#!/usr/bin/env python3
"""Compares two benchmark result sets (written by run.py --out).

    python3 perfbench/compare.py BASE.json HEAD.json

For every end-to-end metric and workload in BENCHMARK.json it takes the
untraced runs of each set (one per seed), their median and their spread (the
distance between the first and third quartile, as a share of the median).
A pair is flagged only when its median moved by more than the metric's
bound; when either side's spread is wider than the bound the pair is
reported as unresolved instead, unless every head run beats every base run.
Exits 1 when any pair regressed, 2 on bad input.
"""
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def values(result_set, workload, metric):
    out = []
    for run in result_set["runs"]:
        if run["workload"] == workload and run["trace"] == 0 and metric in run["metrics"]:
            out.append(run["metrics"][metric]["value"])
    return out


def spread(vals):
    if len(vals) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, head, better, bound):
    """Returns (verdict, signed change as a share of the base median)."""
    mb, mh = statistics.median(base), statistics.median(head)
    change = (mh - mb) / abs(mb) if mb else float("inf")
    worse = change if better == "lower" else -change
    if better == "lower":
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    if max(spread(base), spread(head)) > bound and not all_better:
        return "unresolved", change
    if worse > bound:
        return "REGRESSED", change
    if -worse > bound:
        return "improved", change
    return "same", change


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    with open(argv[1]) as fh:
        base = json.load(fh)
    with open(argv[2]) as fh:
        head = json.load(fh)
    for side, rs in (("base", base), ("head", head)):
        p = rs.get("provenance", {})
        print("%s: git %s tree %s, %s cpus (%s), %s build" % (
            side, p.get("git_sha", "?")[:12], p.get("tree_sha256", "?")[:12], p.get("nproc"),
            p.get("cpu_model"), p.get("build_type")))
    regressed = False
    print("%-14s %-20s %12s %12s %8s %7s %7s  %s" % (
        "workload", "metric", "base med", "head med", "change", "spread", "bound", "verdict"))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            b = values(base, w["name"], m["name"])
            h = values(head, w["name"], m["name"])
            if not b or not h:
                print("%-14s %-20s  missing in %s" % (w["name"], m["name"],
                                                     "base" if not b else "head"))
                continue
            v, change = verdict(b, h, m["better"], m["bound"])
            regressed |= v == "REGRESSED"
            print("%-14s %-20s %12.5g %12.5g %+7.1f%% %6.1f%% %6.0f%%  %s (n=%d/%d)" % (
                w["name"], m["name"], statistics.median(b), statistics.median(h),
                100 * change, 100 * max(spread(b), spread(h)), 100 * m["bound"], v,
                len(b), len(h)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
