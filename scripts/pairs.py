#!/usr/bin/env python3
"""Compare a parent checkout with this one in alternating perfbench runs.

Run from anywhere; the change is the repository that holds this script:

    python3 scripts/pairs.py PARENT_DIR --workload search-full --pairs 10 --seed 1

Each pair runs ``perfbench/run.py --workload W --seed S`` once in
PARENT_DIR and once in this repository, each checkout's own script on
its own source, for BENCHMARK.json's ``run_seconds``.  The parent runs
first in the odd pairs and second in the even ones, so a drift of the
machine falls on both sides.

For each end-to-end metric of BENCHMARK.json it prints the parent and
change medians, the parent's quartiles (inclusive method, as numpy's
default percentile) and how many pairs the change won under the
metric's ``better``; a tie counts for neither side.  Each pair's values
go to stderr as they come.  It exits 1 if any run reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its summary line, parsed."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=checkout, env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of ``end_to_end`` (BENCHMARK.json's entries):
    both medians, the parent's quartiles and the pairs the change won.
    parent[i] and change[i] map each metric to its value in pair i."""
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        before, after = [r[name] for r in parent], [r[name] for r in change]
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
        rows.append({"metric": name, "better": metric["better"],
                     "parent_median": statistics.median(before),
                     "change_median": statistics.median(after),
                     "parent_quartiles": (q1, q3), "pairs": len(before),
                     "change_wins": sum(sign * (a - b) > 0 for a, b in zip(after, before))})
    return rows


def line(row: dict) -> str:
    base, new = row["parent_median"], row["change_median"]
    rel = f"{(new - base) / base:+.1%}" if base else "n/a"
    return (f"{row['metric']}: parent {base:.6g} ({row['parent_quartiles'][0]:.6g}"
            f"-{row['parent_quartiles'][1]:.6g}), change {new:.6g}, {rel}; change "
            f"{row['better']} in {row['change_wins']} of {row['pairs']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} holds no perfbench/run.py")
    if args.parent.resolve() == ROOT:
        parser.error("PARENT_DIR is this repository; give a second checkout")
    if args.pairs < 2:
        parser.error("quartiles need --pairs >= 2")

    sides: dict[Path, list[dict]] = {args.parent.resolve(): [], ROOT: []}
    correct = True
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for checkout in order:
            summary = run(checkout, args.workload, args.seed, spec["run_seconds"])
            correct = correct and summary["correct"]
            sides[checkout].append({m: v["value"] for m, v in summary["metrics"].items()})
        parent, change = sides.values()
        print(f"pair {i + 1}: parent {parent[-1]}, change {change[-1]}", file=sys.stderr)
    print(f"{args.workload}, {args.pairs} pairs at seed {args.seed}")
    for row in summarize(*sides.values(), spec["end_to_end"]):
        print(line(row))
    if not correct:
        print("error: some run reported a wrong output", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
