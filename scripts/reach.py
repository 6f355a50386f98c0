#!/usr/bin/env python3
"""Time the exhaustive searches on a fixed ladder of sizes, in process.

Usage: PYTHONPATH=src python scripts/reach.py

Each rung runs once under the default node budget and a 60 s time
limit, and prints one JSON line: the rung, its node count, the seconds
it took, max_product, witness_count and witness_classes, or
"exceeded" with the budget message when it runs out.
"""

import json
import time
from fractions import Fraction

from ekrcross.search import SearchBudget, max_uniform_product, max_weight_product
from ekrcross.seq import verify_seq_theorem
from ekrcross.setfam import BudgetExceeded

TIME_LIMIT_S = 60.0

# (mode, kind, args): uniform (n, k, t), weight (n, t, p), seq (n, m, t).
LADDER = [
    ("full", "uniform", (7, 3, 1)),
    ("full", "uniform", (8, 3, 1)),
    ("full", "uniform", (7, 4, 2)),
    ("full", "weight", (7, 2, Fraction(1, 4))),
    ("full", "seq", (4, 2, 1)),
    ("shifted", "uniform", (11, 5, 2)),
    ("shifted", "uniform", (13, 5, 2)),
    ("shifted", "weight", (8, 1, Fraction(1, 3))),
    ("shifted", "weight", (9, 2, Fraction(1, 4))),
]

SEARCHES = {"uniform": max_uniform_product, "weight": max_weight_product, "seq": verify_seq_theorem}


def rung(mode: str, kind: str, args: tuple) -> dict:
    row = {"mode": mode, "kind": kind, "args": [str(x) for x in args]}
    budget = SearchBudget(restrict_shifted=mode == "shifted", time_limit=TIME_LIMIT_S)
    started = time.perf_counter()
    try:
        r = SEARCHES[kind](*args, budget)
    except BudgetExceeded as exc:
        return {**row, "exceeded": str(exc), "seconds": round(time.perf_counter() - started, 3)}
    return {**row, "nodes": r.notes["nodes"], "seconds": round(time.perf_counter() - started, 3),
            "max_product": str(r.max_product), "witness_count": r.witness_count,
            "witness_classes": list(r.witness_classes)}


if __name__ == "__main__":
    for mode, kind, args in LADDER:
        print(json.dumps(rung(mode, kind, args)), flush=True)
