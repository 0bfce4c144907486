#!/usr/bin/env python3
"""Compare two sets of host-benchmark runs metric by metric.

    python3 bench/host/compare.py --base a1.json a2.json ... --cand b1.json b2.json ...

Each file is a bench/host/out/result.json written by run.sh. The end-to-end
metrics, their directions and their bounds come from BENCHMARK.json at the
repo root (or --bench). For every workload x metric the script prints each
side's median and quartiles, the share of run pairs the candidate won, and one
verdict:

  improved    the candidate won at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the base's
              interquartile range;
  regressed   the candidate's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's own spread (interquartile range over median) is wider
              than the bound, and not every candidate run beats every base run;
  no worse    anything else.

Pairs are formed by position (base run i against candidate run i), so run the
two sides alternately. Exits 1 when any pair regressed, 2 on bad input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        if doc.get("schema") != "psb.hostbench.result.v1":
            sys.exit(f"error: {p} is not a run.sh result.json")
        runs.append(doc["workloads"])
    return runs


def values(runs, workload, metric):
    out = []
    for r in runs:
        w = r.get(workload)
        if w and metric in w.get("metrics", {}):
            out.append(float(w["metrics"][metric]["value"]))
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(base, cand, better, bound):
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(cand)
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    won = wins / len(pairs) if pairs else 0.0
    worse = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (c - b) < 0 for b in base for c in cand)
    if won >= 0.9 and abs(cmed - bmed) > (bq3 - bq1) and worse < 0:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "no worse"
    return v, won


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="result.json files of the base")
    ap.add_argument("--cand", nargs="+", required=True, help="result.json files of the candidate")
    ap.add_argument("--bench", default=str(Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    base, cand = load_runs(args.base), load_runs(args.cand)

    fmt = "{:18s} {:26s} {:>13s} {:>25s} {:>13s} {:>25s} {:>7s} {:>5s} {:>6s}  {}"
    print(fmt.format("workload", "metric", "base median", "base [q1, q3]", "cand median",
                     "cand [q1, q3]", "change", "won", "bound", "verdict"))
    regressed = 0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            b, c = values(base, w["name"], m["name"]), values(cand, w["name"], m["name"])
            if not b or not c:
                print(f"{w['name']:18s} {m['name']:26s} missing on one side")
                regressed += 1
                continue
            v, won = verdict(b, c, m["better"], m["bound"])
            regressed += v == "regressed"
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            change = (cmed - bmed) / abs(bmed) if bmed else 0.0
            print(fmt.format(w["name"], m["name"], f"{bmed:.6g}", f"[{bq1:.6g}, {bq3:.6g}]",
                             f"{cmed:.6g}", f"[{cq1:.6g}, {cq3:.6g}]", f"{change:+.1%}",
                             f"{won:.0%}", f"{m['bound']:.0%}", v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
