#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 benchmark/compare.py BASE.json [...] --new NEW.json [...]
                                 [--json OUT]

Each file is a results file written by ``run.py --json``; the runs of all
files on one side form that side's samples, and the i-th run of each side
form a pair (record both sides with the same --seed and --repeat). For
every (workload, metric) it prints each side's median and quartiles, the
share of pairs the new side wins, and a verdict against the metric's bound
in BENCHMARK.json:

  better      the new side wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile range;
  worse       the new median is worse than the base median by more than the
              bound, and the spread does not hide it;
  unresolved  either side's interquartile range exceeds the bound (as a
              share of its median), unless every new run is better than
              every base run;
  unchanged   otherwise.

Exits 1 if any verdict is ``worse``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(paths):
    """{workload: {metric: [values in run order]}} over every file."""
    side = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            for workload, entry in run["workloads"].items():
                for name, m in entry.get("metrics", {}).items():
                    side.setdefault(workload, {}).setdefault(name, []).append(
                        m["value"])
    return side


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, lower_is_better, bound):
    """Returns (verdict, win rate) for one (workload, metric)."""
    sign = 1.0 if lower_is_better else -1.0

    def better(x, y):  # x reads better than y
        return sign * (x - y) < 0

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    win_rate = wins / len(pairs) if pairs else 0.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
    all_better = all(better(n, b) for n in new for b in base)
    all_worse = all(better(b, n) for n in new for b in base)
    if win_rate >= 0.9 and better(nm, bm) and abs(nm - bm) > b3 - b1:
        return "better", win_rate
    if worse_by > bound and all_worse:
        return "worse", win_rate
    if spread > bound and not all_better:
        return "unresolved", win_rate
    if worse_by > bound:
        return "worse", win_rate
    return "unchanged", win_rate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="+", type=Path)
    ap.add_argument("--new", nargs="+", type=Path, required=True)
    ap.add_argument("--json", type=Path, help="write the verdicts here")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    base, new = load_side(args.base), load_side(args.new)
    rows = []
    for m in spec["end_to_end"]:
        lower = m["better"] == "lower"
        print(f"\n{m['name']} ({m['unit']}, {m['better']} is better, "
              f"bound {m['bound']:.0%})")
        print(f"  {'workload':<12} {'base median [q1, q3]':<30} "
              f"{'new median [q1, q3]':<30} {'wins':>6}  verdict")
        for workload in base:
            b = base[workload].get(m["name"])
            n = new.get(workload, {}).get(m["name"])
            if not b or not n:
                continue
            v, win_rate = verdict(b, n, lower, m["bound"])
            rows.append({"workload": workload, "metric": m["name"],
                         "base": quartiles(b), "new": quartiles(n),
                         "win_rate": win_rate, "verdict": v})
            print(f"  {workload:<12} {fmt(b):<30} {fmt(n):<30} "
                  f"{win_rate:>6.0%}  {v}")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
