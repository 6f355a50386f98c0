"""Rational interval arithmetic with certified exponential enclosures.

Endpoints are exact rationals, so +, -, *, / are exact and enclosures
compose without rounding concerns.  The only transcendental needed is
exp; it is enclosed by a Taylor partial sum plus a geometric tail
bound, with the series order raised adaptively until a comparison
becomes conclusive (hard cap 64 terms, after which the comparison is
reported as undecidable rather than guessed).  The series is summed
over Python ints, by Horner's rule on x = a/b, and each endpoint becomes a
``Fraction`` only once, so one gcd normalizes it; e is enclosed once per order
(``e_enclosure``).  An ``int`` or ``Fraction`` operand of +, - or * acts on the
endpoints directly, with no point interval; any other operand (a float, say)
is first made an exact point by ``Fraction``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

Rat = Union[Fraction, int]
_SCALARS = (int, Fraction)

EXP_TERM_CAP = 64
_ORDERS = (12, 24, 48, EXP_TERM_CAP)


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, x: Rat) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @classmethod
    def _coerce(cls, x: "RationalInterval | Rat") -> "RationalInterval":
        if isinstance(x, RationalInterval):
            return x
        return cls.point(x)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return RationalInterval(self.lo + other, self.hi + other)
        o = self._coerce(other)
        return RationalInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return RationalInterval(self.lo - other, self.hi - other)
        o = self._coerce(other)
        return RationalInterval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return RationalInterval(other - self.hi, other - self.lo)
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            lo, hi = self.lo * other, self.hi * other
            return RationalInterval(lo, hi) if other >= 0 else RationalInterval(hi, lo)
        o = self._coerce(other)
        if self.lo >= 0 and o.lo >= 0:
            return RationalInterval(self.lo * o.lo, self.hi * o.hi)
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RationalInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers are supported")
        if e == 0:
            return RationalInterval.point(1)
        if e % 2 == 1 or self.lo >= 0:
            return RationalInterval(self.lo**e, self.hi**e)
        if self.hi <= 0:
            return RationalInterval(self.hi**e, self.lo**e)
        return RationalInterval(Fraction(0), max(self.lo**e, self.hi**e))

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_below(self, x: Rat) -> bool:
        return self.hi < x

    def strictly_above(self, x: Rat) -> bool:
        return self.lo > x

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def exp_enclosure(x: Rat, terms: int = 24) -> RationalInterval:
    """An interval certainly containing e^x, via Taylor partial sums.

    For x >= 0 the partial sum is a lower bound and the tail is bounded
    by the first omitted term times a geometric factor (valid once the
    order exceeds x).  Negative arguments go through the reciprocal.
    """
    x = Fraction(x)
    if x == 0:
        return RationalInterval.point(1)
    if x < 0:
        return exp_enclosure(-x, terms).reciprocal()
    n = max(terms, math.ceil(x) + 2)
    if n > EXP_TERM_CAP:
        n = EXP_TERM_CAP
        if x >= n + 1:
            raise ValueError(f"exponent {x} too large for a {EXP_TERM_CAP}-term enclosure")
    # Horner from the inside out: 1 + x/k * (P/Q) = (bkQ + aP) / (bkQ),
    # ending at the partial sum of x^j/j!, j < n, over Q = b^(n-1) (n-1)!.
    a, b = x.numerator, x.denominator
    num = den = 1
    for k in range(n - 1, 0, -1):
        den *= b * k
        num = den + a * num
    # The tail from x^n/n! on is below x^n/n! / (1 - x/(n+1)), since the
    # ratio of successive terms is at most x/(n+1) < 1; over ints this is
    # a^n (n+1) / (b^(n-1) n! (b(n+1) - a)), and b^(n-1) n! = nQ.
    slack = b * (n + 1) - a
    assert slack > 0
    return RationalInterval(Fraction(num, den),
                            Fraction(num * n * slack + a**n * (n + 1), n * den * slack))


@functools.cache
def e_enclosure(terms: int = 24) -> RationalInterval:
    return exp_enclosure(1, terms)


def decide(
    build: Callable[[int], RationalInterval],
    threshold: Rat,
    relation: str,
) -> Optional[bool]:
    """Compare an enclosed value against a rational threshold.

    ``build(order)`` must produce an enclosure at the given series
    order.  Returns True/False once some order is conclusive, or None
    if the comparison is still undecided at the term cap.
    """
    if relation not in ("<", ">"):
        raise ValueError(f"relation must be '<' or '>', got {relation!r}")
    threshold = Fraction(threshold)
    for order in _ORDERS:
        iv = build(order)
        if relation == "<":
            if iv.strictly_below(threshold):
                return True
            if iv.lo >= threshold:
                return False
        else:
            if iv.strictly_above(threshold):
                return True
            if iv.hi <= threshold:
                return False
    return None
