"""Compare two result sets run by perfbench/run.py --save.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Runs are paired by (workload, seed, trace) in the order they were saved, so
the two sets should come from alternating runs of the parent and the change
with the same seeds and --seconds.  For every (metric, workload) pair the
verdict follows the rule for a small sandbox: the change counts as
improved only when it wins at least nine tenths of the pairs (ties count
for neither) and its median differs from the parent's by more than the
parent's interquartile range.  A metric with a bound in BENCHMARK.json is
worse when its median is worse than the parent's by more than the bound,
and unresolved when the parent's own spread is wider than the bound.
Metrics without a bound are worse by the mirror of the improvement rule.
Fewer than ten pairs are always unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import ROOT, quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """{(workload, trace): {seed: [record, ...]}} in file order."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[(r["workload"], r["trace"])][r["seed"]].append(r)
    return runs


def values(record):
    out = {name: m["value"] for name, m in record["metrics"].items()}
    for name, value in record.get("detail", {}).items():
        out.setdefault(name, value)
    return out


def pairs_for(parent, change, key):
    out = []
    for seed, p_runs in parent.get(key, {}).items():
        c_runs = change.get(key, {}).get(seed, [])
        out.extend(zip(p_runs, c_runs))
    return out


def verdict(p, c, better, bound):
    """One of improved / unchanged / worse / unresolved, with its reasons."""
    n = len(p)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    q1, med_p, q3 = quartiles(p)
    _, med_c, _ = quartiles(c)
    iqr = q3 - q1
    gap = sign * (med_c - med_p)          # negative means better
    if n < MIN_PAIRS:
        return "unresolved", wins, f"only {n} pairs"
    if wins >= WIN_SHARE * n and -gap > iqr:
        return "improved", wins, ""
    if bound is not None:
        spread = iqr / abs(med_p) if med_p else 0.0
        if spread > bound:
            return "unresolved", wins, f"parent spread {spread:.3f} > bound"
        if med_p and gap / abs(med_p) > bound:
            return "worse", wins, f"median worse by {gap / abs(med_p):.3f}"
        return "unchanged", wins, ""
    if losses >= WIN_SHARE * n and gap > iqr:
        return "worse", wins, ""
    if abs(gap) <= iqr:
        return "unchanged", wins, ""
    return "unresolved", wins, "gap above the parent spread, pairs split"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    rows = []
    for key in sorted(set(parent) & set(change)):
        pairs = pairs_for(parent, change, key)
        if not pairs:
            continue
        names = sorted(set(values(pairs[0][0])) & set(values(pairs[0][1])))
        for name in names:
            better, bound = meta.get(name, ("lower", None))
            p = [values(a)[name] for a, _ in pairs]
            c = [values(b)[name] for _, b in pairs]
            v, wins, why = verdict(p, c, better, bound)
            q1p, mp, q3p = quartiles(p)
            q1c, mc, q3c = quartiles(c)
            rows.append((key[0], key[1], name, len(pairs),
                         f"{mp:.4g} [{q1p:.4g}, {q3p:.4g}]",
                         f"{mc:.4g} [{q1c:.4g}, {q3c:.4g}]",
                         f"{wins}/{len(pairs)}", v, why))
    header = ("workload", "trace", "metric", "pairs", "parent median [q1, q3]",
              "change median [q1, q3]", "change wins", "verdict", "note")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(str(x) for x in row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
