#!/usr/bin/env python3
"""Compares two sets of periodica_bench result files, workload by workload.

    python3 periodica_bench/compare_runs.py BASE_DIR CHANGE_DIR \
        [--bench BENCHMARK.json] [--all]

Each directory holds the result files periodica_bench writes under --out
(<workload>-seed<N>-trace<T>.json). For every workload and end-to-end
metric the report has one row with each set's median and quartiles, each
set's spread (quartile distance over median), and whether the change's
median is within the metric's bound of the base median. A row for
host.reference_ms, without a bound, shows whether the host itself ran
slower in one set. With --all, every other metric in the files (per-layer
ones included) gets a row too, without a bound.

The row also applies the rule for claiming a gain: runs are paired by seed,
and the change counts as better only when it wins at least nine tenths of
the pairs (ties count for neither side) and the medians differ by more than
the base set's own quartile distance.

Exit status: 0 when every bounded metric is within its bound, 1 when one is
not, 2 on bad input.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): {seed: result}} from one directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path) as handle:
            result = json.load(handle)
        key = (result["workload"], bool(result["trace"]))
        runs.setdefault(key, {})[result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(name, better, bound, base, change):
    """One report row for `name` over the runs of one workload."""
    seeds = sorted(set(base) & set(change))
    base_values = [base[s]["metrics"][name]["value"] for s in base
                   if name in base[s]["metrics"]]
    change_values = [change[s]["metrics"][name]["value"] for s in change
                     if name in change[s]["metrics"]]
    if not base_values or not change_values:
        return None
    b1, b2, b3 = quartiles(base_values)
    c1, c2, c3 = quartiles(change_values)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c2 - b2) / b2 if b2 else 0.0
    within = None if bound is None else worse_by <= bound
    wins = losses = 0
    for seed in seeds:
        if name not in base[seed]["metrics"] or name not in change[seed]["metrics"]:
            continue
        gap = sign * (base[seed]["metrics"][name]["value"] -
                      change[seed]["metrics"][name]["value"])
        wins += gap > 0
        losses += gap < 0
    pairs = wins + losses
    gain = (pairs > 0 and wins >= 0.9 * len(seeds) and
            sign * (b2 - c2) > (b3 - b1))
    return {
        "metric": name,
        "base": (b1, b2, b3),
        "change": (c1, c2, c3),
        "base_spread": (b3 - b1) / b2 if b2 else 0.0,
        "change_spread": (c3 - c1) / c2 if c2 else 0.0,
        "worse_by": worse_by,
        "bound": bound,
        "within": within,
        "wins": f"{wins}/{len(seeds)}",
        "gain": gain,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    parser.add_argument("--all", action="store_true",
                        help="also compare metrics that have no bound")
    args = parser.parse_args()
    try:
        with open(args.bench) as handle:
            bench = json.load(handle)
    except OSError as error:
        print(f"compare_runs.py: {error}", file=sys.stderr)
        return 2
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("compare_runs.py: no result files found", file=sys.stderr)
        return 2
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    print("| workload | metric | base q1/median/q3 | change q1/median/q3 | "
          "spread base/change | worse by | bound | within | pairs won | gain |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    ok = True
    for key in sorted(set(base) & set(change)):
        workload, traced = key
        names = list(bounded) + ["host.reference_ms"] if not traced else []
        if args.all:
            seen = set()
            for run in list(base[key].values()) + list(change[key].values()):
                seen.update(run["metrics"])
            names += sorted(seen - set(names))
        for name in names:
            spec = bounded.get(name) or layers.get(name) or {}
            bound = bounded[name]["bound"] if name in bounded and not traced else None
            row = compare(name, spec.get("better", "lower"), bound,
                          base[key], change[key])
            if row is None:
                continue
            if row["within"] is False:
                ok = False
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"| {workload}{' (trace)' if traced else ''} | {name} | "
                  f"{fmt(row['base'])} | {fmt(row['change'])} | "
                  f"{row['base_spread']:.3f}/{row['change_spread']:.3f} | "
                  f"{row['worse_by']:+.3f} | "
                  f"{'' if bound is None else bound} | "
                  f"{'' if row['within'] is None else ('yes' if row['within'] else 'NO')} | "
                  f"{row['wins']} | {'yes' if row['gain'] else 'no'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
