"""Shared strategies and oracles for the test suite."""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import reduce
from typing import Optional

from hypothesis import strategies as st

from ekrcross.setfam import Family, Subset, is_cross_t_intersecting


def subsets(max_n: int = 10):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
            lambda m: Subset(n, m)
        )
    )


def hits_line(f: Subset, u: int) -> bool:
    """True iff some prefix of the walk of f reaches height u, tested
    step by step: the oracle for ``walks.lambda_set(f) >= u``."""
    if u < 1:
        raise ValueError(f"line index must be >= 1, got {u}")
    cur = 0
    for j in range(f.n):
        cur += 1 if f.mask >> j & 1 else -1
        if cur >= u:
            return True
    return False


def families(max_n: int = 8, max_size: int = 12):
    def build(n):
        return st.lists(
            st.integers(min_value=0, max_value=(1 << n) - 1),
            min_size=0,
            max_size=max_size,
        ).map(lambda ms: Family(n, tuple(sorted(set(ms))), None))

    return st.integers(min_value=1, max_value=max_n).flatmap(build)


def small_ps():
    return st.sampled_from(
        [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(2, 7), Fraction(1, 15)]
    )


def naive_cross_t(a: Family, b: Family, t: int) -> bool:
    """Quadratic oracle straight from the definition, via member tuples."""
    for sa in a.member_sets():
        for sb in b.member_sets():
            if len(set(sa) & set(sb)) < t:
                return False
    return True


def _brute_force_max(n: int, k, t: int, cands: list[int], weights: list[int]) -> int:
    """max w(A) w(B) over cross t-intersecting A, B within ``cands``: every
    subfamily A, paired with the members that t-intersect all of A, with
    that relation taken pairwise from ``setfam.is_cross_t_intersecting``."""
    singles = [Family(n, (c,), k) for c in cands]
    rows = [sum(1 << j for j, y in enumerate(singles) if is_cross_t_intersecting(x, y, t))
            for x in singles]
    # partner and weight of every subfamily, from those without its least member
    partner, weight = [(1 << len(cands)) - 1], [0]
    for a in range(1, 1 << len(cands)):
        low = (a & -a).bit_length() - 1
        partner.append(partner[a & a - 1] & rows[low])
        weight.append(weight[a & a - 1] + weights[low])
    return max(weight[a] * weight[b] for a, b in enumerate(partner))


def brute_force_uniform_max(n: int, k: int, t: int) -> int:
    """Reference maximum of |A| |B| over cross t-intersecting pairs in the
    k-layer of [n].  Only for layers of at most 16 members."""
    cands = [sum(1 << (e - 1) for e in c) for c in itertools.combinations(range(1, n + 1), k)]
    if len(cands) > 16:
        raise ValueError("brute force capped at 16 layer members")
    return _brute_force_max(n, k, t, cands, [1] * len(cands))


def brute_force_weight_max(n: int, t: int, p: Fraction) -> Fraction:
    """Reference maximum of the p-weight product over cross t-intersecting
    pairs in the power set of [n].  Only for n <= 4."""
    if n > 4:
        raise ValueError("brute force capped at n <= 4")
    a, b = Fraction(p).numerator, Fraction(p).denominator
    weights = [a ** m.bit_count() * (b - a) ** (n - m.bit_count()) for m in range(1 << n)]
    return Fraction(_brute_force_max(n, None, t, list(range(1 << n)), weights), b ** (2 * n))


# p = a/b with a > 1 as well as a = 1, so that a slip of b-1 for b-a in an
# integer-numerator sum shows.
NUMERATOR_PS = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(5, 8))


def fraction_weight(counts, n: int, p: Fraction) -> Fraction:
    """sum_s counts[s] p^s q^(n-s), one ``Fraction`` operation per term:
    the reference for the integer-numerator sums of ``measure`` and of
    the measure oracle."""
    p = Fraction(p)
    total = Fraction(0)
    for s, c in enumerate(counts):
        total += c * p**s * (1 - p) ** (n - s)
    return total


def fraction_hit_probability(n: int, t: int, p: Fraction) -> Fraction:
    """Probability that an n-step walk reaches height t, by the height
    DP with one ``Fraction`` per entry and an absorbing state at t."""
    p = Fraction(p)
    dist = {0: Fraction(1)}
    absorbed = Fraction(0)
    for _ in range(n):
        nxt: dict[int, Fraction] = {}
        for h, w in dist.items():
            if h + 1 >= t:
                absorbed += w * p
            else:
                nxt[h + 1] = nxt.get(h + 1, Fraction(0)) + w * p
            nxt[h - 1] = nxt.get(h - 1, Fraction(0)) + w * (1 - p)
        dist = nxt
    return absorbed


def partner_shift_oracle(rows: list[int], preds: list[int]) -> int:
    """By definition, over index masks of the candidates: the number of j
    whose partner D({j} + preds[j]) is not closed under ``preds``.  It
    reads 0 when D of a shift-closed family is shift-closed, the lemma
    that ``search._search``'s shifted mode rests on, for preds the
    dominance order: D of a closed A is the AND of those partners over
    the j in A, and an intersection of closed sets is closed."""
    full = (1 << len(rows)) - 1

    def partner(a: int) -> int:
        return reduce(operator.and_, (r for i, r in enumerate(rows) if a >> i & 1), full)

    return sum(not preds_closed(partner(1 << j | p), preds) for j, p in enumerate(preds))


def preds_closed(a: int, preds: list[int]) -> bool:
    """Whether the index mask ``a`` holds preds[i] for each i it holds."""
    return all(not p & ~a for i, p in enumerate(preds) if a >> i & 1)


def window_label(amask: int, cands: list[int], n: int, t: int) -> Optional[int]:
    """The set labeller ``search._construction`` replaced: 0 if A (an
    index mask over ``cands``) is every candidate holding its t-element
    core, else 1 if some (t+2)-window of [n], tried one by one, gives A
    as the candidates meeting it in at least t+1 elements, else None."""
    members = [cands[i] for i in range(len(cands)) if amask >> i & 1]
    if not members:
        return None
    core = reduce(operator.and_, members)
    if core.bit_count() == t and set(members) == {c for c in cands if c & core == core}:
        return 0
    for window in itertools.combinations(range(n), t + 2):
        wm = sum(1 << e for e in window)
        if set(members) == {c for c in cands if (c & wm).bit_count() >= t + 1}:
            return 1
    return None


def cylinder_label(members: frozenset, m: int, n: int, t: int) -> Optional[int]:
    """The word labeller ``search._construction`` replaced: 0 if the
    words fix a symbol on each of t coordinates and range over the rest,
    else 1 if some t+2 coordinates, tried one by one, with each one's most
    frequent symbol give the words agreeing with them on at least t+1,
    else None.  Builds all m^n words per candidate."""
    if not members:
        return None
    words = list(itertools.product(range(1, m + 1), repeat=n))
    if len(members) == m ** (n - t):
        constant = []
        for j in range(n):
            vals = {w[j] for w in members}
            if len(vals) == 1:
                constant.append((j, vals.pop()))
        for coords in itertools.combinations(constant, t):
            if members == {w for w in words if all(w[j] == v for j, v in coords)}:
                return 0
    if n >= t + 2:
        for coords in itertools.combinations(range(n), t + 2):
            votes = []
            for j in coords:
                counts: dict[int, int] = {}
                for w in members:
                    counts[w[j]] = counts.get(w[j], 0) + 1
                votes.append(max(counts, key=counts.get))
            if members == {w for w in words
                           if sum(w[j] == v for j, v in zip(coords, votes)) >= t + 1}:
                return 1
    return None
