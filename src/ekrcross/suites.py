"""Verification suites: oracle comparisons and graph facts.

Each suite returns a list of VerificationReport rows, which the CLI
serializes.  Oracles here are deliberately independent of the closed
forms they check: walk counts come from explicit enumeration of steps,
measure values from sweeping the whole power set.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from . import graphs as gr
from .measure import WeightParams, hit_probability_exact, hit_probability_limit, mu, mu_threshold_closed
from .report import Stopwatch, VerificationReport, claim
from .setfam import Family, Subset, make_weight_counterexample
from .walks import count_hit, count_miss, enumerate_walks, hits_line

DEFAULT_PS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 15))


# ---------------------------------------------------------------------------
# walk-count oracle
# ---------------------------------------------------------------------------


def run_walk_oracle(max_steps: int = 12) -> list[VerificationReport]:
    """Closed-form hit/miss counts against step-by-step enumeration for
    every admissible endpoint/line combination within the step budget."""
    clock = Stopwatch()
    cells = 0
    mismatches = []
    for total in range(2, max_steps + 1):
        for y0 in range(1, total):
            x0 = total - y0
            for c in range(1, y0):
                if not y0 < x0 + c:
                    continue
                # One enumeration: a walk that misses is recorded, and
                # append's None leaves it out of the hit count.
                misses: list[Subset] = []
                hit = enumerate_walks(x0, y0,
                                      lambda f, c=c: hits_line(f, c) or misses.append(f))
                if hit != count_hit(x0, y0, c) or len(misses) != count_miss(x0, y0, c):
                    mismatches.append((x0, y0, c))
                cells += 1
    return [
        claim(
            "walk-count-oracle",
            not mismatches,
            witness={"cells": cells, "max_steps": max_steps, "mismatches": mismatches[:10]},
            clock=clock,
        )
    ]


# ---------------------------------------------------------------------------
# measure oracle
# ---------------------------------------------------------------------------


def _size_counts(n: int, member_test) -> list[int]:
    counts = [0] * (n + 1)
    for m in range(1 << n):
        if member_test(m):
            counts[m.bit_count()] += 1
    return counts


def _weigh(counts: Sequence[int], n: int, p: Fraction) -> Fraction:
    q = 1 - p
    return sum((c * p**s * q ** (n - s) for s, c in enumerate(counts) if c), Fraction(0))


def run_measure_oracle(
    n_max: int = 12,
    t_max: int = 4,
    i_max: int = 2,
    ps: Sequence[Fraction] = DEFAULT_PS,
) -> list[VerificationReport]:
    clock = Stopwatch()
    combos = 0
    bad = []
    for t in range(1, t_max + 1):
        for i in range(0, i_max + 1):
            w = t + 2 * i
            for n in range(w, n_max + 1):
                window = (1 << w) - 1
                counts = _size_counts(n, lambda m: (m & window).bit_count() >= t + i)
                for p in ps:
                    combos += 1
                    if _weigh(counts, n, p) != mu_threshold_closed(n, t, i, p):
                        bad.append({"n": n, "t": t, "i": i, "p": p})
    reports = [
        claim("measure-threshold-oracle", not bad,
              witness={"combos": combos, "bad": bad[:5]}, clock=clock)
    ]

    bad = []
    combos = 0
    for t in range(1, t_max + 1):
        for n in range(t + 1, n_max + 1):
            head = (1 << t) - 1
            step_mask = (1 << (t + 1)) - 1
            counts = _size_counts(
                n,
                lambda m: (m & step_mask).bit_count() == t and (m & head) != head,
            )
            for p in ps:
                combos += 1
                q = 1 - p
                if _weigh(counts, n, p) != t * p**t * q:
                    bad.append({"n": n, "t": t, "p": p})
    reports.append(
        claim("measure-point-events", not bad,
              witness={"combos": combos, "bad": bad[:5]}, clock=clock)
    )

    bad = []
    combos = 0
    for t in range(1, t_max + 1):
        for n in range(t + 2, n_max + 1):
            fam = make_weight_counterexample(n, t)
            for p in ps:
                combos += 1
                params = WeightParams(n, p)
                q = 1 - p
                closed = p**t - p**t * q ** (n - t) + t * p ** (n - 1) * q
                if mu(fam, params) != closed:
                    bad.append({"n": n, "t": t, "p": p})
    reports.append(
        claim("measure-counterexample", not bad,
              witness={"combos": combos, "bad": bad[:5]}, clock=clock)
    )

    mono_ok = True
    detail = None
    for t, p in ((2, Fraction(1, 4)), (3, Fraction(1, 5))):
        limit = hit_probability_limit(t, p)
        prev = Fraction(0)
        for n in range(t, t + 21):
            cur = hit_probability_exact(n, t, p)
            if cur < prev or cur > limit:
                mono_ok, detail = False, {"t": t, "p": p, "n": n}
                break
            prev = cur
        if not mono_ok:
            break
    reports.append(claim("hit-limit-monotone", mono_ok, witness=detail, clock=clock))
    return reports


# ---------------------------------------------------------------------------
# graph facts
# ---------------------------------------------------------------------------


def _random_connected_graph(rng: random.Random, size: int, extra: int) -> gr.Graph:
    edges = set()
    order = list(range(size))
    rng.shuffle(order)
    for idx in range(1, size):
        a = order[idx]
        b = order[rng.randrange(idx)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra):
        a, b = rng.sample(range(size), 2)
        edges.add((min(a, b), max(a, b)))
    return gr.Graph(size, tuple(sorted(edges)))


def run_graphs(n_max: int = 9, seed: int = 0, pairs: int = 20) -> list[VerificationReport]:
    clock = Stopwatch()
    bad = []
    checked = 0
    for k in range(1, n_max // 2 + 1):
        for n in range(2 * k + 1, n_max + 1):
            g = gr.kneser_graph(n, k)
            checked += 1
            if not gr.is_connected(g) or gr.is_bipartite(g):
                bad.append({"n": n, "k": k})
    reports = [
        claim("graph-kneser", not bad, witness={"instances": checked, "bad": bad},
              clock=clock)
    ]

    cyc = gr.kneser_spread_cycle(3)
    ok = (
        len(cyc) == 7
        and len(set(cyc)) == 7
        and all(not cyc[i] & cyc[(i + 1) % 7] for i in range(7))
    )
    reports.append(claim("graph-kneser[odd-cycle-k3]", ok,
                         witness={"length": len(cyc)}, clock=clock))

    rng = random.Random(seed)
    bad = []
    for _ in range(pairs):
        g = _random_connected_graph(rng, rng.randint(3, 7), rng.randint(0, 5))
        h = _random_connected_graph(rng, rng.randint(3, 7), rng.randint(0, 5))
        product_connected = gr.is_connected(gr.direct_product(g, h))
        criterion = not gr.is_bipartite(g) or not gr.is_bipartite(h)
        if product_connected != criterion:
            bad.append({"g": g.edges, "h": h.edges})
    c3c5 = gr.direct_product(gr.cycle_graph(3), gr.cycle_graph(5))
    c4c4 = gr.direct_product(gr.cycle_graph(4), gr.cycle_graph(4))
    fixed_ok = (
        gr.is_connected(c3c5)
        and not gr.is_bipartite(c3c5)
        and not gr.is_connected(c4c4)
    )
    reports.append(
        claim("graph-product", not bad and fixed_ok,
              witness={"random_pairs": pairs, "bad": bad[:3], "fixed_cases": fixed_ok},
              clock=clock)
    )
    return reports
