#!/usr/bin/env python3
"""Compare two sets of benchmark results, per (workload, end-to-end metric).

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds the <workload>.rep<k>.json files one
`benchmark/run.py` set writes. For every (workload, metric) the table
shows each side's median and quartiles and a verdict, judged by the
bounds in BENCHMARK.json:

  better      at least ten rep pairs (rep k against rep k), NEW wins at
              least 90% of them (ties count for neither), and the
              medians differ by more than BASE's interquartile range
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  neither, and either side's spread (IQR / median) is wider
              than the bound, unless every NEW rep beats every BASE rep
  same        otherwise

Two sets of the same commit must read "same" on every row; that is the
benchmark's repeatability check; a gain needs `run.py --reps=10` on
both sides. Exits 1 if any row is "worse" or any rep failed its
correctness check.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def load(directory):
    """{workload: [result, ...]} in rep order."""
    sets = {}
    files = sorted(Path(directory).glob("*.rep*.json"),
                   key=lambda p: int(p.stem.rsplit(".rep", 1)[1]))
    for path in files:
        r = json.loads(path.read_text())
        sets.setdefault(r["workload"], []).append(r)
    if not sets:
        sys.exit(f"compare.py: no <workload>.rep<k>.json files in {directory}")
    return sets


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def verdict(base, new, metric):
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(nmed - bmed) > b3 - b1):
        return "better"
    if sign * (nmed - bmed) < -bound * abs(bmed):
        return "worse"
    spread = max((b3 - b1) / abs(bmed), (n3 - n1) / abs(nmed))
    beats_all = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound and not beats_all:
        return "unresolved"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for side, sets in (("base", base), ("new", new)):
        for w, reps in sets.items():
            for r in reps:
                if not r["correct"]:
                    print(f"{side} {w} seed {r['seed']}: FAILED "
                          f"{r['failures']}")
                    bad = True
    print(f"{'workload':11s} {'metric':17s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'delta':>7s}  verdict")
    for w in sorted(set(base) & set(new)):
        for m in SPEC["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base[w]]
            n = [r["metrics"][m["name"]]["value"] for r in new[w]]
            v = verdict(b, n, m)
            bad |= v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            cell = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{w:11s} {m['name']:17s} {cell.format(*bq):>34s} "
                  f"{cell.format(*nq):>34s} "
                  f"{(nq[1] / bq[1] - 1) * 100:+6.1f}%  {v}")
    for w in sorted(set(base) ^ set(new)):
        print(f"{w}: only in one set")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
