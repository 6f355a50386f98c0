"""Exact product-measure weights of sets and families.

A set of size s over [n] weighs p^s (1-p)^(n-s); a family weighs the
sum over its members.  Every value here is an exact rational: there is
no floating point on any path through this module, so strict
inequalities against stated constants need no tolerances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .setfam import Family, GroundSetMismatch, Subset


@dataclass(frozen=True)
class WeightParams:
    """Ground-set size n and up-step probability p, with q and alpha."""

    n: int
    p: Fraction

    def __post_init__(self) -> None:
        p = Fraction(self.p)
        object.__setattr__(self, "p", p)
        if not 0 < p < 1:
            raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def q(self) -> Fraction:
        return 1 - self.p

    @property
    def alpha(self) -> Fraction:
        return self.p / self.q


def mu(obj: Union[Subset, Family], params: WeightParams) -> Fraction:
    """Exact weight of a subset or family under the product measure."""
    p, q = params.p, params.q
    if isinstance(obj, Subset):
        if obj.n != params.n:
            raise GroundSetMismatch("ground-set mismatch")
        s = len(obj)
        return p**s * q ** (obj.n - s)
    if obj.n != params.n:
        raise GroundSetMismatch("ground-set mismatch")
    by_size = Counter(m.bit_count() for m in obj.masks)
    return sum(
        (count * p**s * q ** (obj.n - s) for s, count in by_size.items()),
        Fraction(0),
    )


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
    p = Fraction(p)
    q = 1 - p
    return sum(
        (math.comb(w, j) * p**j * q ** (w - j) for j in range(t + i, w + 1)),
        Fraction(0),
    )


def hit_probability_exact(n: int, t: int, p: Fraction) -> Fraction:
    """Probability that an n-step random walk reaches height t.

    Height-indexed dynamic programming with an absorbing state at t;
    O(n*t) exact rational operations.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = Fraction(p)
    q = 1 - p
    # dist[h] = probability of sitting at height h without having hit t.
    dist = {0: Fraction(1)}
    absorbed = Fraction(0)
    for _ in range(n):
        nxt: dict[int, Fraction] = {}
        for h, w in dist.items():
            up = h + 1
            if up >= t:
                absorbed += w * p
            else:
                nxt[up] = nxt.get(up, Fraction(0)) + w * p
            down = h - 1
            nxt[down] = nxt.get(down, Fraction(0)) + w * q
        dist = nxt
    return absorbed


def hit_probability_limit(t: int, p: Fraction) -> Fraction:
    """Limit of the hit probability as the walk length grows: (p/q)^t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    p = Fraction(p)
    return (p / (1 - p)) ** t


def lift_family(fam: Family) -> Family:
    """Extend the ground set by one and double every member with n+1.

    The lifted family has the same weight over [n+1] as the original
    over [n], since each member splits into a q- and a p-branch.
    """
    n = fam.n
    bit = 1 << n
    masks = sorted(set(fam.masks) | {m | bit for m in fam.masks})
    return Family(n + 1, tuple(masks), None)
