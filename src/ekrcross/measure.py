"""Exact product-measure weights of sets and families.

A set of size s over [n] weighs p^s (1-p)^(n-s); a family weighs the
sum over its members.  Every value here is an exact rational: there is
no floating point on any path through this module, so strict
inequalities against stated constants need no tolerances.

With p = a/b, each sum runs over Python ints, a^s (b-a)^(n-s) over the
common denominator b^n, and becomes a ``Fraction`` only once, so one
gcd normalizes each result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .setfam import Family, GroundSetMismatch, Subset


def _ratio(p) -> tuple[int, int]:
    """Numerator and denominator of p, which must lie strictly in (0, 1)."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    return p.numerator, p.denominator


@dataclass(frozen=True)
class WeightParams:
    """Ground-set size n and up-step probability p, with alpha = p/q."""

    n: int
    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(*_ratio(self.p)))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def alpha(self) -> Fraction:
        return self.p / (1 - self.p)


def mu(obj: Union[Subset, Family], params: WeightParams) -> Fraction:
    """Exact weight of a subset or family under the product measure."""
    if obj.n != params.n:
        raise GroundSetMismatch("ground-set mismatch")
    n, a, b = obj.n, params.p.numerator, params.p.denominator
    by_size = {len(obj): 1} if isinstance(obj, Subset) else Counter(map(int.bit_count, obj.masks))
    return Fraction(sum(c * a**s * (b - a) ** (n - s) for s, c in by_size.items()), b**n)


def mu_threshold_closed(n: int, t: int, i: int, p: Fraction) -> Fraction:
    """Closed-form weight of the threshold family with window t+2i.

    The weight only depends on the window: it is the binomial tail
    sum_{j=t+i}^{t+2i} C(t+2i, j) p^j q^(t+2i-j); i = 0 gives p^t.
    """
    if t < 1 or i < 0:
        raise ValueError(f"need t >= 1 and i >= 0, got t={t}, i={i}")
    w = t + 2 * i
    if w > n:
        raise ValueError(f"window t+2i = {w} exceeds ground set {n}")
    a, b = _ratio(p)
    return Fraction(sum(math.comb(w, j) * a**j * (b - a) ** (w - j)
                        for j in range(t + i, w + 1)), b**w)


def hit_probability_exact(n: int, t: int, p: Fraction) -> Fraction:
    """Probability that an n-step random walk reaches height t.

    Height-indexed dynamic programming with an absorbing state at t;
    O(n*t) exact integer operations.
    """
    if t < 1 or n < 0:
        raise ValueError(f"need t >= 1 and n >= 0, got t={t}, n={n}")
    a, b = _ratio(p)
    c = b - a
    # Numerators over b^step: dist[h] of sitting at height h without
    # having hit t, and ``absorbed`` of having hit it.
    dist = {0: 1}
    absorbed = 0
    for _ in range(n):
        absorbed = absorbed * b + dist.get(t - 1, 0) * a
        nxt: dict[int, int] = {}
        for h, w in dist.items():
            if h + 1 < t:
                nxt[h + 1] = nxt.get(h + 1, 0) + w * a
            nxt[h - 1] = nxt.get(h - 1, 0) + w * c
        dist = nxt
    return Fraction(absorbed, b**n)


def hit_probability_limit(t: int, p: Fraction) -> Fraction:
    """Limit of the hit probability as the walk length grows: (p/q)^t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a, b = _ratio(p)
    return Fraction(a**t, (b - a) ** t)


def lift_family(fam: Family) -> Family:
    """Extend the ground set by one and double every member with n+1.

    The lifted family has the same weight over [n+1] as the original
    over [n], since each member splits into a q- and a p-branch.
    """
    n = fam.n
    bit = 1 << n
    masks = sorted(set(fam.masks) | {m | bit for m in fam.masks})
    return Family(n + 1, tuple(masks), None)
