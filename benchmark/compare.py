#!/usr/bin/env python3
"""Compare two sets of mpbench results.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --list

Each directory holds result files written by `run.py --out` (untraced
runs; traced results are skipped). For every workload and end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles, the
fraction of pairs the change wins (pairs are matched by seed, ties count
for neither side) and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ,
              in the better direction, by more than the parent's own
              quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread is wider than the bound and not
              every change run beats every parent run;
  unchanged   otherwise.

It also reports the share of failed operations on each side. Exit status
is 1 if any pair regressed or any change run failed operations.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load(directory):
    """workload -> seed -> list of results (untraced only)."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as f:
            r = json.load(f)
        if r.get("schema") != "mpbench_result_v1" or r.get("trace"):
            continue
        out.setdefault(r["workload"], {}).setdefault(r["seed"], []).append(r)
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, higher):
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    p1, pm, p3 = quartiles([v for _, v in parent])
    c1, cm, c3 = quartiles([v for _, v in change])
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    if not pairs:
        pairs = list(zip([v for _, v in parent], [v for _, v in change]))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
    all_better = all(better(c, p) for c in (v for _, v in change) for p in (v for _, v in parent))
    if win_frac >= 0.9 and better(cm, pm) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    elif worse_by > bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), win_frac, len(pairs), worse_by, v


def failed_share(runs):
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    return failed, attempted


def list_metrics(doc):
    print("%-40s %-8s %-7s %s" % ("metric", "unit", "better", "bound"))
    for m in doc["end_to_end"]:
        print("%-40s %-8s %-7s %g" % (m["name"], m["unit"], m["better"], m["bound"]))
    for m in doc["per_layer"]:
        print("%-40s %-8s %-7s %s" % (m["name"], m["unit"], m["better"], "-"))


def main(argv):
    doc = declared()
    if argv == ["--list"]:
        list_metrics(doc)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    summary = []
    print("%-14s %-18s %-36s %-36s %6s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "worse", "verdict"))
    for w in doc["workloads"]:
        name = w["name"]
        p_runs, c_runs = parent.get(name, {}), change.get(name, {})
        if not p_runs or not c_runs:
            summary.append("%-14s missing results (parent %d, change %d seeds)" % (name, len(p_runs), len(c_runs)))
            bad = True
            continue
        verdicts = []
        for m in doc["end_to_end"]:
            key = m["name"]
            pv = [(s, r["metrics"][key]["value"]) for s, rs in sorted(p_runs.items()) for r in rs]
            cv = [(s, r["metrics"][key]["value"]) for s, rs in sorted(c_runs.items()) for r in rs]
            pq, cq, win, n, worse_by, v = verdict(pv, cv, m["bound"], m["better"] == "higher")
            verdicts.append("%s=%s" % (key, v))
            bad |= v == "regressed"
            print("%-14s %-18s %-36s %-36s %6s %+7.2f%%  %s" % (
                name, key,
                "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]),
                "%.2f" % win, 100 * worse_by, v))
        pf, pa = failed_share(p_runs)
        cf, ca = failed_share(c_runs)
        bad |= cf > 0
        summary.append("%-14s failed_ops parent %d/%d change %d/%d; %s" % (
            name, pf, pa, cf, ca, ", ".join(verdicts)))
    print()
    for line in summary:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
