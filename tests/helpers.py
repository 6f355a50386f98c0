"""Shared strategies and oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from ekrcross.setfam import Family, Subset, is_cross_t_intersecting


def subsets(max_n: int = 10):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
            lambda m: Subset(n, m)
        )
    )


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
