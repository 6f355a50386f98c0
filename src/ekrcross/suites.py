"""Verification suites: oracle comparisons and graph facts.

Each suite returns a list of VerificationReport rows, which the CLI
serializes.  Oracles here are deliberately independent of the closed
forms they check: walk counts come from one depth-first enumeration of
every step sequence, measure values from one sweep of the power set per
member test.  A graph on vertices 0..v-1 is the list of its neighbour
masks: bit j of ``adj[i]`` is set when i ~ j.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .measure import WeightParams, hit_probability_exact, hit_probability_limit, mu, mu_threshold_closed
from .report import Stopwatch, VerificationReport, claim, sweep
from .search import _bits, _columns
from .setfam import BudgetExceeded, make_weight_counterexample, subsets_of
from .walks import ENUM_STEP_LIMIT, count_hit, count_miss

DEFAULT_PS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 15))
VERTEX_LIMIT = 5000


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

    # Each hit probability is built once; at n = t, the one at n - 1 is 0.
    hit, limit = functools.cache(hit_probability_exact), functools.cache(hit_probability_limit)
    reports.append(claim("hit-limit-monotone", clock=clock, **sweep(
        ({"t": t, "p": p, "n": n} for t, p in ((2, Fraction(1, 4)), (3, Fraction(1, 5)))
         for n in range(t, t + 21)),
        lambda t, p, n: hit(n - 1, t, p) <= hit(n, t, p) <= limit(t, p), None)))
    return reports


# ---------------------------------------------------------------------------
# graph facts
# ---------------------------------------------------------------------------


def _check_vertices(size: int) -> None:
    """A mask graph holds size² bits, so one cap bounds every graph."""
    if size > VERTEX_LIMIT:
        raise BudgetExceeded(f"{size} vertices exceed the {VERTEX_LIMIT} cap")


def kneser_graph(n: int, k: int) -> list[int]:
    """The disjointness graph on the k-subsets of [n], in ``subsets_of``
    order: a vertex is adjacent to every vertex outside the columns of
    its elements."""
    if k < 1 or n < 1:
        raise ValueError("need n, k >= 1")
    _check_vertices(math.comb(n, k))
    verts = subsets_of(n, k)
    full, cols = (1 << len(verts)) - 1, _columns(verts)
    return [full & ~functools.reduce(operator.or_, (cols[e] for e in _bits(v))) for v in verts]


def kneser_spread_cycle(k: int) -> list[frozenset[int]]:
    """An explicit odd cycle in the disjointness graph of k-sets of
    [2k+1]: consecutive arcs of length k, stepping by k around the
    cycle of 2k+1 points."""
    m = 2 * k + 1
    cycle = []
    for i in range(m):
        start = (i * k) % m
        cycle.append(frozenset((start + j) % m + 1 for j in range(k)))
    return cycle


def cycle_graph(m: int) -> list[int]:
    if m < 3:
        raise ValueError("cycles need at least 3 vertices")
    return [1 << (i - 1) % m | 1 << (i + 1) % m for i in range(m)]


def _layers(adj: Sequence[int]) -> Iterator[list[int]]:
    """The breadth-first layers of each component, as vertex masks, from
    its lowest vertex: each layer is the unseen neighbours of the last."""
    unseen = (1 << len(adj)) - 1
    while unseen:
        layers = [unseen & -unseen]
        while layers[-1]:
            unseen &= ~layers[-1]
            reach = functools.reduce(operator.or_, map(adj.__getitem__, _bits(layers[-1])))
            layers.append(reach & unseen)
        yield layers[:-1]


def is_connected(adj: Sequence[int]) -> bool:
    return len(list(_layers(adj))) <= 1


def is_bipartite(adj: Sequence[int]) -> bool:
    """2-colourability: breadth-first edges join the same or adjacent
    layers, so an edge inside a layer closes an odd walk, and otherwise
    layer parity is a proper 2-colouring."""
    return not any(adj[v] & layer for layers in _layers(adj) for layer in layers for v in _bits(layer))


def direct_product(g: Sequence[int], h: Sequence[int]) -> list[int]:
    """Tensor product, (u, v) as vertex u·|h| + v: (u, v) ~ (u', v') iff
    u ~ u' and v ~ v'."""
    _check_vertices(len(g) * len(h))
    return [functools.reduce(operator.or_, (h[v] << w * len(h) for w in _bits(g[u])), 0)
            for u in range(len(g)) for v in range(len(h))]


def _edges(adj: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i, row in enumerate(adj) for j in _bits(row) if i < j)


def _random_connected_graph(rng: random.Random, size: int, extra: int) -> list[int]:
    """A random spanning tree on ``size`` vertices plus ``extra`` random edges."""
    order = list(range(size))
    rng.shuffle(order)
    pairs = [(order[idx], order[rng.randrange(idx)]) for idx in range(1, size)]
    pairs += (rng.sample(range(size), 2) for _ in range(extra))
    adj = [0] * size
    for a, b in pairs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def run_graphs(n_max: int = 9, seed: int = 0, pairs: int = 20) -> list[VerificationReport]:
    clock = Stopwatch()
    bad = []
    checked = 0
    for k in range(1, n_max // 2 + 1):
        for n in range(2 * k + 1, n_max + 1):
            g = kneser_graph(n, k)
            checked += 1
            if not is_connected(g) or is_bipartite(g):
                bad.append({"n": n, "k": k})
    reports = [
        claim("graph-kneser", not bad, witness={"instances": checked, "bad": bad},
              clock=clock)
    ]

    cyc = kneser_spread_cycle(3)
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
        product_connected = is_connected(direct_product(g, h))
        criterion = not is_bipartite(g) or not is_bipartite(h)
        if product_connected != criterion:
            bad.append({"g": _edges(g), "h": _edges(h)})
    c3c5 = direct_product(cycle_graph(3), cycle_graph(5))
    c4c4 = direct_product(cycle_graph(4), cycle_graph(4))
    fixed_ok = (
        is_connected(c3c5)
        and not is_bipartite(c3c5)
        and not is_connected(c4c4)
    )
    reports.append(
        claim("graph-product", not bad and fixed_ok,
              witness={"random_pairs": pairs, "bad": bad[:3], "fixed_cases": fixed_ok},
              clock=clock)
    )
    return reports
