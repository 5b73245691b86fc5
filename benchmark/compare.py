#!/usr/bin/env python3
"""Compares two benchmark sets written by `run.py --repeats`.

  python3 benchmark/compare.py BASE.json CHANGE.json

BASE is the parent commit, CHANGE the commit under test. Runs pair up in
the order they were made (the i-th run of a workload on each side). For
each (workload, end-to-end metric) it prints one row:

  improved    at least 10 pairs, the sides alternated in time, the change
              wins at least 9 of 10 pairs (ties count for neither) and the
              medians differ by more than the base's quartile spread;
  regressed   the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json (setup_s must also be
              worse by more than 5 ms);
  unresolved  a side's quartile spread is wider than the bound, and not
              every run of the change beats every run of the base;
  unchanged   otherwise.

It also fails a workload whose share of failed jobs rose, and flags any
outcome digest that differs between the sides for the same seed. Exits 1
when a row regressed, a failed share rose or a digest differs.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up takes milliseconds: below this absolute change its relative
# bound is noise.
ABSOLUTE_FLOOR = {"setup_s": 0.005}


def load(path):
    data = json.loads(Path(path).read_text())
    if data.get("schema") != "swarmbench.set/1":
        sys.exit(f"compare.py: {path} is not a run.py --repeats set")
    if data.get("trace"):
        sys.exit(f"compare.py: {path} is a traced set; compare untraced sets")
    return data


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def alternated(base_runs, change_runs):
    """True when the two sides' runs interleave in time."""
    timeline = sorted([(r["started"], "b") for r in base_runs] +
                      [(r["started"], "c") for r in change_runs])
    sides = [side for _, side in timeline]
    return all(a != b for a, b in zip(sides, sides[1:]))


def verdict(metric, base, change, pairs, lower_better, bound, alternating):
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)

    def better(x, y):  # x reads better than y
        return x < y if lower_better else x > y

    wins = sum(1 for b, c in pairs if better(c, b))
    worse_by = ((cm - bm) if lower_better else (bm - cm)) / bm if bm else 0.0
    all_better = all(better(c, b) for c in change for b in base)
    if (len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs)
            and better(cm, bm) and abs(cm - bm) > b3 - b1):
        result = "improved"
    elif bm and ((b3 - b1) / bm > bound or (c3 - c1) / cm > bound):
        result = "unchanged" if all_better else "unresolved"
    elif worse_by > bound and abs(cm - bm) > ABSOLUTE_FLOOR.get(metric, 0.0):
        result = "regressed"
    else:
        result = "unchanged"
    return result, (b1, bm, b3), (c1, cm, c3), wins, worse_by


def spread_text(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = False
    for side, data in (("base", base), ("change", change)):
        if data.get("noisy"):
            print(f"note: the {side} set is noisy (host.calib_s quartile "
                  f"spread over 10%)")
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'worse':>7} {'bound':>5} "
          f"{'wins':>5}  verdict")
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        base_runs = [r for r in base["runs"] if r["workload"] == w]
        change_runs = [r for r in change["runs"] if r["workload"] == w]
        if not base_runs or not change_runs:
            continue
        alternating = alternated(base_runs, change_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name] for r in base_runs]
            c = [r["metrics"][name] for r in change_runs]
            pairs = list(zip(b, c))
            result, bq, cq, wins, worse_by = verdict(
                name, b, c, pairs, m["better"] == "lower", m["bound"],
                alternating)
            bad |= result == "regressed"
            print(f"{w:<16} {name:<12} {spread_text(bq):<34} "
                  f"{spread_text(cq):<34} {worse_by:>+7.1%} "
                  f"{m['bound']:>5.0%} {wins:>2}/{len(pairs):<2}  {result}")
        shares = []
        for runs in (base_runs, change_runs):
            attempted = sum(r["attempted"] for r in runs)
            shares.append(sum(r["failed"] for r in runs) / attempted
                          if attempted else 0.0)
        rose = shares[1] > shares[0]
        bad |= rose
        print(f"{w:<16} {'failed_share':<12} {shares[0]:<34.4g} "
              f"{shares[1]:<34.4g} {'':>7} {'0':>5} {'':>5}  "
              f"{'regressed' if rose else 'unchanged'}")
        by_seed = {}
        for r in base_runs:
            by_seed.setdefault(r["seed"], r["unit_digests"])
        for r in change_runs:
            ref = by_seed.get(r["seed"])
            if ref is None:
                continue
            n = min(len(ref), len(r["unit_digests"]))
            if ref[:n] != r["unit_digests"][:n]:
                bad = True
                print(f"{w}: outcome digests differ for seed {r['seed']}")
                break
        if not alternating:
            print(f"{w}: the sides did not alternate in time; no gain can "
                  f"be claimed from these sets")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
