#!/usr/bin/env python3
"""Time the exhaustive searches on a fixed ladder of sizes, one process a rung.

Usage: PYTHONPATH=src python scripts/reach.py

Each rung runs once, in a forked child, under the default node budget
and a 60 s time limit, and prints one JSON line: the rung, the engine
that ran it (the search's ``notes["mode"]``; ``seq`` always reads
"full"), its node count, the seconds it took, max_product,
witness_count and witness_classes, or "exceeded" with the budget
message when it runs out.  ``peak_rss_mb`` is the child's own peak
resident memory, from ``os.wait4``, so no rung inherits another's.
Every row also carries ``predicted``, the paper's bound where the rung
lies in its range: C(n-t, k-t)^2 for a uniform rung with
n >= (t+1)(k-t+1), p^(2t) for a weight rung with p <= 1/(t+1), and null
otherwise (and for seq rungs).  Uniform rows also carry ``k_minus_t``,
how many elements of a member of the star F0 lie outside [t].
"""

import json
import math
import os
import time
import traceback
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
    # Shifted uniform rungs that settle only on the traces over [2k - t]:
    # on the layer they run past the time limit, their byte tables
    # outgrow memory, or the layer itself cannot be listed.
    ("shifted", "uniform", (20, 5, 2)),
    ("shifted", "uniform", (40, 5, 2)),
    ("shifted", "uniform", (30, 6, 2)),
    ("shifted", "uniform", (16, 6, 3)),
    ("shifted", "uniform", (20, 6, 3)),
    ("shifted", "uniform", (14, 6, 2)),
    ("shifted", "uniform", (15, 6, 2)),
    ("shifted", "uniform", (30, 15, 14)),
    ("shifted", "uniform", (45, 16, 14)),
    # Trace rungs held back by byte tables filled before the first node:
    # 318 MB for 79 nodes, and a time limit that did not count set-up.
    ("shifted", "uniform", (36, 11, 8)),
    # k - t = 3 on 14,756 traces: 1.6 GB of tables for 83 nodes.
    ("shifted", "uniform", (44, 13, 10)),
    # t = 18, the top of the paper's finite case 2, with k - t = 2:
    # 667 MB of tables for 11 nodes.
    ("shifted", "uniform", (57, 20, 18)),
    # The paper's scale: k - t = 3 on the boundary n = (t+1)(k-t+1) at
    # t = 14 and 15, on 60,249 and 81,928 traces.  On a 2-core host they
    # take about 0.9 s at 153 MB and 1.4 s at 225 MB peak RSS: their
    # rows, built from prefix counts, share 92 masks.
    ("shifted", "uniform", (60, 17, 14)),
    ("shifted", "uniform", (64, 18, 15)),
]

SEARCHES = {"uniform": max_uniform_product, "weight": max_weight_product, "seq": verify_seq_theorem}


def predicted(kind: str, args: tuple):
    if kind == "uniform":
        n, k, t = args
        if n >= (t + 1) * (k - t + 1):
            return str(math.comb(n - t, k - t) ** 2)
    elif kind == "weight":
        n, t, p = args
        if p <= Fraction(1, t + 1):
            return str(p ** (2 * t))
    return None


def rung(mode: str, kind: str, args: tuple) -> dict:
    row = {"mode": mode, "kind": kind, "args": [str(x) for x in args],
           "predicted": predicted(kind, args)}
    if kind == "uniform":
        row["k_minus_t"] = args[1] - args[2]
    budget = SearchBudget(restrict_shifted=mode == "shifted", time_limit=TIME_LIMIT_S)
    started = time.perf_counter()
    try:
        r = SEARCHES[kind](*args, budget)
    except BudgetExceeded as exc:
        return {**row, "exceeded": str(exc), "seconds": round(time.perf_counter() - started, 3)}
    return {**row, "engine": r.notes["mode"], "nodes": r.notes["nodes"],
            "seconds": round(time.perf_counter() - started, 3),
            "max_product": str(r.max_product), "witness_count": r.witness_count,
            "witness_classes": list(r.witness_classes)}


def measured(mode: str, kind: str, args: tuple) -> dict:
    """``rung`` in a forked child, which sends its row down a pipe; the
    row gains the child's peak RSS, read when it is reaped."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            with os.fdopen(write, "w") as out:
                json.dump(rung(mode, kind, args), out)
        except BaseException:  # the child must end here, never back in the parent's loop
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write)
    try:
        with os.fdopen(read) as data:
            text = data.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    if status:
        raise SystemExit(f"rung {mode} {kind} {args} failed: wait status {status}")
    return {**json.loads(text), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


if __name__ == "__main__":
    for mode, kind, args in LADDER:
        print(json.dumps(measured(mode, kind, args)), flush=True)
