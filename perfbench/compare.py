"""Compare two result sets, one row per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appends to ``.perfbench/results.jsonl``,
from untraced runs of one commit; traced runs are skipped.  Runs of a
workload are paired in file order, so make the runs of the two commits
alternately, changing which one goes first.  Each row gives both sides'
median and quartiles, the share of pairs the change wins (ties count for
neither) and a verdict:

    improved    at least 10 pairs, the change wins at least 0.9 of them,
                and the medians differ by more than the parent's
                interquartile distance
    worse       the change's median is worse by more than the metric's
                bound, and the parent's spread is within the bound
    no worse    the change's median is within the bound, and the parent's
                spread is within the bound or every change run beats every
                parent run
    unresolved  otherwise: the spread is wider than the bound
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> tuple[float, str]:
    sign = 1.0 if lower else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (pm - cm)
    steady = (p3 - p1) <= bound * pm
    if len(pairs) >= 10 and wins >= 0.9 and gain > p3 - p1:
        return wins, "improved"
    if steady and -gain > bound * pm:
        return wins, "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if -gain <= bound * pm and (steady or beats_all):
        return wins, "no worse"
    return wins, "unresolved"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'won':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r[name]["value"] for r in parent[workload][:n]]
            cv = [r[name]["value"] for r in change[workload][:n]]
            wins, word = verdict(pv, cv, m["better"] == "lower", m["bound"])
            cols = []
            for vals in (pv, cv):
                q1, q2, q3 = quartiles(vals)
                cols.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            print(f"{workload:14s} {name:12s} {cols[0]:>30s} {cols[1]:>30s} {wins:5.2f}  {word}"
                  f"  (n={n})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
