#!/usr/bin/env python3
"""Compares the benchmark on a parent and a change checkout.

    python3 perfbench/compare.py run --parent ../parent --change . --pairs 10 --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

`run` alternates which side goes first in each pair (parent first in even
pairs), gives both sides of a pair the same seed and a new seed per pair,
and appends one JSON line per run. The benchmark settings come from the
parent's BENCHMARK.json, so both sides run identically.

`report` prints one row per workload x end-to-end metric with each side's
median and quartiles, the pairs the change won, and a verdict:

  gain          the change won at least 9/10 of the pairs (ties count for
                neither side), the medians differ by more than the
                parent's interquartile range in the better direction, and
                no more operations failed than on the parent;
  regression    the change's median is worse than the parent's by more
                than the metric's bound;
  within_bound  neither of the above;
  unresolved    the parent's own spread (IQR / median) exceeds the bound,
                unless every change run beat every parent run;
  too_few_pairs fewer than 10 pairs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_one(checkout, bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("benchmark failed in %s (%s seed %d)" % (checkout, workload, seed))
    return json.loads(done.stdout.strip().splitlines()[-1])


def cmd_run(args):
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            sides = [("parent", args.parent), ("change", args.change)]
            if pair % 2:
                sides.reverse()
            for workload in workloads:
                for side, checkout in sides:
                    result = run_one(checkout, bench, workload, seed)
                    out.write(json.dumps({"pair": pair, "side": side, "workload": workload,
                                          "seed": seed, "result": result}) + "\n")
                    out.flush()
                    print("pair %d %s %s: failed %d/%d" % (pair, workload, side,
                                                            result["failed"], result["attempted"]),
                          file=sys.stderr)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change, wins, pairs, more_failures):
    better_higher = metric["better"] == "higher"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    if pairs < MIN_PAIRS:
        return "too_few_pairs"
    sign = 1.0 if better_higher else -1.0
    all_better = (min(change) > max(parent)) if better_higher else (max(change) < min(parent))
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    if wins >= WIN_SHARE * pairs and sign * (c_med - p_med) > (p_q3 - p_q1) and not more_failures:
        return "gain"
    if sign * (p_med - c_med) > metric["bound"] * abs(p_med):
        return "regression"
    return "within_bound"


def cmd_report(args):
    with open(args.runs) as f:
        runs = [json.loads(line) for line in f]
    with open(args.benchmark) as f:
        bench = json.load(f)
    print("%-14s %-18s %-34s %-34s %-7s %s" % ("workload", "metric", "parent median [q1, q3]",
                                                "change median [q1, q3]", "wins", "verdict"))
    for workload in sorted({r["workload"] for r in runs}):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_pair.values() if "parent" in p and "change" in p]
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            if not parent:
                continue
            higher = metric["better"] == "higher"
            wins = sum(1 for a, b in zip(parent, change) if (b > a if higher else b < a))
            cells = []
            for values in (parent, change):
                q1, q3 = quartiles(values)
                cells.append("%.5g [%.5g, %.5g]" % (statistics.median(values), q1, q3))
            print("%-14s %-18s %-34s %-34s %-7s %s" % (
                workload, name, cells[0], cells[1], "%d/%d" % (wins, len(pairs)),
                verdict(metric, parent, change, wins, len(pairs),
                        failed["change"] > failed["parent"])))
        print("%-14s %-18s parent %d, change %d" % (workload, "failed operations",
                                                    failed["parent"], failed["change"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="parent checkout root")
    run.add_argument("--change", required=True, help="change checkout root")
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--first-seed", type=int, default=1000)
    run.add_argument("--workload", action="append", help="default: every workload")
    run.add_argument("--out", required=True, help="JSON-lines file the runs are appended to")
    report = sub.add_parser("report", help="apply the comparison rule to recorded runs")
    report.add_argument("runs")
    report.add_argument("--benchmark", default="BENCHMARK.json",
                        help="BENCHMARK.json holding the metrics and their bounds")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
