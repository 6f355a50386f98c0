"""Verification suites: oracle comparisons and graph facts.

Each suite returns a list of VerificationReport rows, which the CLI
serializes.  Oracles here are deliberately independent of the closed
forms they check: walk counts come from one depth-first enumeration of
every step sequence, measure values from one sweep of the power set per
member test.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

from . import graphs as gr
from .measure import WeightParams, hit_probability_exact, hit_probability_limit, mu, mu_threshold_closed
from .report import Stopwatch, VerificationReport, claim
from .setfam import make_weight_counterexample
from .walks import ENUM_STEP_LIMIT, count_hit, count_miss

DEFAULT_PS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 15))


# ---------------------------------------------------------------------------
# walk-count oracle
# ---------------------------------------------------------------------------


def _walk_levels(max_steps: int) -> dict[tuple[int, int], list[int]]:
    """The λ of every walk of at most ``max_steps`` steps (the highest line
    y = x + c it touches), under its endpoint, from one depth-first walk
    over the step sequences: an up step to (x, y + 1) touches y + 1 - x."""
    levels, stack = defaultdict(list), [(0, 0, 0)]
    while stack:
        x, y, level = stack.pop()
        levels[x, y].append(level)
        if x + y < max_steps:
            stack += (x + 1, y, level), (x, y + 1, max(level, y + 1 - x))
    return levels


def run_walk_oracle(max_steps: int = 12) -> list[VerificationReport]:
    """Closed-form hit/miss counts against step-by-step enumeration for
    every admissible endpoint/line combination within the step budget.

    A walk hits line c exactly when its λ (``_walk_levels``) is >= c, so
    each line's hit count is the number of walks to the endpoint with
    λ >= c and its miss count the rest."""
    if max_steps > ENUM_STEP_LIMIT:
        raise ValueError(f"enumeration capped at {ENUM_STEP_LIMIT} steps, got {max_steps}")
    clock = Stopwatch()
    levels = _walk_levels(max_steps)
    cells, mismatches = 0, []
    for total in range(2, max_steps + 1):
        for y0 in range(1, total):
            x0 = total - y0
            walks = levels[x0, y0]
            for c in range(max(1, y0 - x0 + 1), y0):  # 0 < c < y0 < x0 + c
                hit = sum(level >= c for level in walks)
                if hit != count_hit(x0, y0, c) or len(walks) - hit != count_miss(x0, y0, c):
                    mismatches.append((x0, y0, c))
                cells += 1
    return [claim("walk-count-oracle", not mismatches, clock=clock,
                  witness={"cells": cells, "max_steps": max_steps, "mismatches": mismatches[:10]})]


# ---------------------------------------------------------------------------
# measure oracle
# ---------------------------------------------------------------------------


def _size_counts(n_max: int, member_test) -> list[list[int]]:
    """For each n <= n_max, how many masks of [n] of each size pass
    ``member_test``, from one sweep that tests each mask below 2^n_max
    once, by top bit.  The oracle keeps this sweep rather than counting
    members by formula, so that it stays independent of the closed forms
    it checks."""
    counts, rows = Counter(), []
    for n in range(n_max + 1):
        counts.update(map(int.bit_count, filter(member_test, range(1 << n >> 1, 1 << n))))
        rows.append([counts[s] for s in range(n + 1)])
    return rows


def _weigh(counts: Sequence[int], n: int, p: Fraction) -> Fraction:
    """Weight of a family with ``counts[s]`` members of size s.  With
    p = a/b this sums c a^s (b-a)^(n-s) over ints and divides by b^n once.
    It is the oracle's own sum and calls nothing in ``measure``, so a
    fault there cannot cancel against the same fault here."""
    a, b = p.numerator, p.denominator
    return Fraction(sum(c * a**s * (b - a) ** (n - s) for s, c in enumerate(counts) if c), b**n)


def _matches(claim_id: str, cases: Iterable, clock: Stopwatch) -> VerificationReport:
    """Row for an oracle that must equal its closed form in every case;
    ``cases`` yields (cell, oracle value, closed form)."""
    combos, bad = 0, []
    for cell, got, want in cases:
        combos += 1
        if got != want:
            bad.append(cell)
    return claim(claim_id, not bad, witness={"combos": combos, "bad": bad[:5]}, clock=clock)


def run_measure_oracle(
    n_max: int = 12,
    t_max: int = 4,
    i_max: int = 2,
    ps: Sequence[Fraction] = DEFAULT_PS,
) -> list[VerificationReport]:
    """The ``measure`` closed forms against power-set sweeps, one per member test."""
    clock = Stopwatch()

    def threshold():
        for t in range(1, t_max + 1):
            for i in range(0, i_max + 1):
                w = t + 2 * i
                window = (1 << w) - 1
                rows = _size_counts(n_max, lambda m: (m & window).bit_count() >= t + i)
                for n in range(w, n_max + 1):
                    for p in ps:
                        yield ({"n": n, "t": t, "i": i, "p": p}, _weigh(rows[n], n, p),
                               mu_threshold_closed(n, t, i, p))

    def point_events():
        for t in range(1, t_max + 1):
            head = (1 << t) - 1
            step_mask = (1 << (t + 1)) - 1
            rows = _size_counts(n_max, lambda m: (m & step_mask).bit_count() == t and m & head != head)
            for n in range(t + 1, n_max + 1):
                for p in ps:
                    yield {"n": n, "t": t, "p": p}, _weigh(rows[n], n, p), t * p**t * (1 - p)

    def counterexample():
        for t in range(1, t_max + 1):
            for n in range(t + 2, n_max + 1):
                fam = make_weight_counterexample(n, t)
                for p in ps:
                    q = 1 - p
                    yield ({"n": n, "t": t, "p": p}, mu(fam, WeightParams(n, p)),
                           p**t - p**t * q ** (n - t) + t * p ** (n - 1) * q)

    reports = [_matches("measure-threshold-oracle", threshold(), clock),
               _matches("measure-point-events", point_events(), clock),
               _matches("measure-counterexample", counterexample(), clock)]

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
