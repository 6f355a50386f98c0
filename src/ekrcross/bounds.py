"""Scalar bound functions and exact certification of the numeric
inequalities backing the product-bound proofs.

Everything evaluates over exact rationals; quantities involving e or
e^x are enclosed in rational intervals (see ``intervals``) and a
comparison is accepted only when the whole enclosure sits on one side
of the threshold.  Decimal constants from the proofs (0.87, 0.999,
2.21, ...) are carried as exact fractions.

A claim over a range of cells (t, or t with a second index) goes
through ``report.sweep``: it is verified with the range as its witness,
or the first cell where it fails is named, refuted if the comparison is
false and inconclusive if ``decide`` cannot order the enclosure.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .intervals import RationalInterval, decide, e_enclosure, exp_enclosure
from .report import SKIPPED, Stopwatch, VerificationReport, claim, sweep

Rat = Union[Fraction, int]


def _comb(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def _decreasing(f: Callable[[int, int], RationalInterval], first: int, t_max: int) -> dict:
    """``sweep`` of f(t) > f(t+1) for first <= t < t_max, each decided on an enclosure
    of the difference; ``f(t, order)`` encloses f(t) and is built once per (t, order)."""
    at = functools.cache(f)
    return sweep(({"t": t} for t in range(first, t_max)),
                 lambda t: decide(lambda o: at(t, o) - at(t + 1, o), 0, ">"),
                 {"t_range": [first, t_max]})


def _enclosed(claim_id: str, build: Callable[[int], RationalInterval], rhs: Rat,
              relation: str, clock: Stopwatch) -> VerificationReport:
    """Row for ``build(order) relation rhs`` as ``decide`` settles it, shown
    with the enclosure at order 48."""
    return claim(claim_id, decide(build, rhs, relation), lhs=build(48), rhs=Fraction(rhs),
                 clock=clock)


# ---------------------------------------------------------------------------
# the weight envelope for families pinned to a line
# ---------------------------------------------------------------------------


def envelope(r: int, i: int, p: Rat) -> Fraction:
    """Envelope coefficient for walk families on the line y = x + r with
    first touch at x = i:

        p/q^(r+1) + C(2i+r, i) (r+1)/(r+i+1) (1 - p/q) (pq)^i.

    The family weight is below p^r times this (up to the vanishing
    epsilon slack handled by the callers).
    """
    if r < 1 or i < 0:
        raise ValueError(f"need r >= 1 and i >= 0, got r={r}, i={i}")
    p = Fraction(p)
    if not 0 < p < Fraction(1, 2):
        raise ValueError(f"envelope needs 0 < p < 1/2, got {p}")
    q = 1 - p
    head = p / q ** (r + 1)
    tail = (
        Fraction(math.comb(2 * i + r, i))
        * Fraction(r + 1, r + i + 1)
        * (1 - p / q)
        * (p * q) ** i
    )
    return head + tail


def envelope_low(s: int, t: int) -> Fraction:
    """Envelope on the low line r = t at the critical p = 1/(t+1)."""
    return envelope(t, s, Fraction(1, t + 1))


def envelope_high(s: int, t: int) -> Fraction:
    """Envelope on the high line r = 2t at the critical p = 1/(t+1)."""
    return envelope(2 * t, s, Fraction(1, t + 1))


def verify_envelope_monotonicity(
    t_range: Iterable[int], s_range: Iterable[int]
) -> list[VerificationReport]:
    """Check the envelope decreases in the touch index, by exact evaluation
    (each value built once) and through the rearranged quadratic positivity."""
    t_range, s_range = list(t_range), list(s_range)
    clock = Stopwatch()
    low, high = functools.cache(envelope_low), functools.cache(envelope_high)
    cells = [{"t": t, "s": s} for t in t_range for s in s_range]
    grid = {"t": [min(t_range), max(t_range)], "s": [min(s_range), max(s_range)]}
    checks = [
        ("envelope-mono-low", lambda t, s: low(s, t) > low(s + 1, t)),
        ("envelope-mono-high", lambda t, s: s < 1 or high(s, t) > high(s + 1, t)),
        ("envelope-mono-poly",
         lambda t, s: s * s * (t - 1) ** 2 + s * (t**3 + t**2 + t + 3) + (t**2 + 3 * t + 2) > 0),
    ]
    return [claim(cid, clock=clock, **sweep(cells, holds, grid)) for cid, holds in checks]


def verify_envelope_products() -> list[VerificationReport]:
    """The four headline envelope-product constants."""
    clock = Stopwatch()
    checks = [
        ("envelope-product-g3h1", envelope_low(3, 14) * envelope_high(1, 14), Fraction(87, 100)),
        ("envelope-product-g2", envelope_low(2, 14) * 1, Fraction(96, 100)),
        (
            "envelope-product-f13f15",
            envelope(13, 2, Fraction(1, 15)) * envelope(15, 1, Fraction(1, 15)),
            Fraction(68, 100),
        ),
        ("envelope-product-f14sq", envelope(14, 2, Fraction(1, 15)) ** 2, Fraction(46, 100)),
    ]
    return [claim(cid, lhs < rhs, lhs=lhs, rhs=rhs, clock=clock) for cid, lhs, rhs in checks]


# ---------------------------------------------------------------------------
# the three non-diagonal product bounds
# ---------------------------------------------------------------------------


def deep_pair_bound(t: int, order: int = 24) -> RationalInterval:
    """Product bound when both probe indices are deep (>= 2):

        (e/(t(t+1)) + 1/(t+1) + t^2/(t+1)^2) * (e(t+1)/t^3 + 1).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    e = e_enclosure(order)
    left = e * Fraction(1, t * (t + 1)) + Fraction(1, t + 1) + Fraction(t * t, (t + 1) ** 2)
    right = e * Fraction(t + 1, t**3) + 1
    return left * right


def low_side_bound(t: int) -> Fraction:
    """Exact product bound when the low-side probe index is 1:

        ((1+1/t)^t + t(t-1)(3t+1)/(t+1)^3) (1+1/t)^t / t.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    c = Fraction(1 + t, t) ** t
    return (c + Fraction(t * (t - 1) * (3 * t + 1), (t + 1) ** 3)) * c / t


def low_side_bound_relaxed(t: int, order: int = 24) -> RationalInterval:
    """Relaxation of the low-side bound: (e/t + (t-1)(3t+1)/(t+1)^3) e."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    e = e_enclosure(order)
    return (e * Fraction(1, t) + Fraction((t - 1) * (3 * t + 1), (t + 1) ** 3)) * e


def high_side_bound(t: int, order: int = 24) -> RationalInterval:
    """Product bound when the high-side probe index is 1:

        e^2 (t+1)/t^2 + e (t-1)(2t+1)/(t(t+1)^2).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    e = e_enclosure(order)
    return e * e * Fraction(t + 1, t * t) + e * Fraction(
        (t - 1) * (2 * t + 1), t * (t + 1) ** 2
    )


def _grid_increasing(values: Sequence[Fraction]) -> Optional[int]:
    """Index of the first non-increase, or None if strictly increasing."""
    for idx in range(len(values) - 1):
        if values[idx] >= values[idx + 1]:
            return idx
    return None


def deep_pair_sweep(t_max: int) -> dict:
    """deep_pair_bound(t) < 1 at every t in 7..t_max, as ``claim`` keyword
    arguments: the outcome and the range, or the first t that fails."""
    return sweep(({"t": t} for t in range(7, t_max + 1)),
                 lambda t: decide(lambda o: deep_pair_bound(t, o), 1, "<"),
                 {"t_range": [7, t_max]})


def verify_side_bound_shapes(t_max: int = 100, deep: Optional[Callable[[int], dict]] = None
                             ) -> list[VerificationReport]:
    """Threshold instances and shape claims for the three case bounds;
    ``deep`` stands in for ``deep_pair_sweep``, say a memo the caller shares."""
    out: list[VerificationReport] = []
    clock = Stopwatch()

    out.append(_enclosed("deep-pair-g7", lambda o: deep_pair_bound(7, o),
                         Fraction(999, 1000), "<", clock))

    out.append(claim("deep-pair-sweep", clock=clock, **(deep or deep_pair_sweep)(t_max)))

    # Consecutive differences of the deep-pair bound flip sign at most
    # once over the sweep; the location is recorded, not assumed.
    encl = [deep_pair_bound(t, 48) for t in range(7, min(t_max, 60) + 1)]
    signs = [-1 if cur.hi < prev.lo else 1 if cur.lo > prev.hi else 0
             for prev, cur in zip(encl, encl[1:])]
    rises = [i for i, s in enumerate(signs) if s > 0]
    out.append(claim("deep-pair-trend", not rises or min(signs[rises[0]:]) >= 0,
                     witness={"first_increase_at_t": 8 + rises[0] if rises else None,
                              "signs": signs},
                     clock=clock))

    g13 = low_side_bound(13)
    out.append(claim("low-side-g13", g13 < 1, lhs=g13, rhs=Fraction(1), clock=clock))
    out.append(_enclosed("low-side-relaxed-g14", lambda o: low_side_bound_relaxed(14, o),
                         1, "<", clock))
    out.append(claim("low-side-relaxed-trend", clock=clock,
                     **_decreasing(low_side_bound_relaxed, 14, t_max)))

    # (1-a)(tq-(t-1)q^3) increases in p up to p = 1/(t+1), where it equals
    # t(t-1)(3t+1)/(t+1)^3 exactly.
    def p_mono(t: int) -> bool:
        vals = []
        for j in range(1, 25):
            p = Fraction(j, 24 * (t + 1))
            q = 1 - p
            vals.append((1 - p / q) * (t * q - (t - 1) * q**3))
        cap = Fraction(t * (t - 1) * (3 * t + 1), (t + 1) ** 3)
        return _grid_increasing(vals) is None and vals[-1] == cap

    out.append(claim("low-side-p-mono", clock=clock,
                     **sweep(({"t": t} for t in (13, 14, 20)), p_mono, None)))

    out.append(_enclosed("high-side-h13", lambda o: high_side_bound(13, o),
                         Fraction(96, 100), "<", clock))
    out.append(claim("high-side-trend", clock=clock, **_decreasing(high_side_bound, 13, t_max)))

    # (1-a)(1-q^2) increasing in p for p <= 0.274, on a 1/1000-step grid.
    vals = []
    for j in range(1, 275):
        p = Fraction(j, 1000)
        q = 1 - p
        vals.append((1 - p / q) * (1 - q * q))
    bad = _grid_increasing(vals)
    out.append(claim("high-side-p-mono", bad is None,
                     witness={"grid_step": "1/1000", "bad_index": bad}, clock=clock))
    return out


# ---------------------------------------------------------------------------
# global prefactors
# ---------------------------------------------------------------------------


def verify_prefactors(t_max: int = 100) -> list[VerificationReport]:
    out: list[VerificationReport] = []
    clock = Stopwatch()

    def exp_over(t: int, order: int) -> RationalInterval:
        return exp_enclosure(Fraction(2 * t + 1, t), order) * Fraction(1, t + 1)

    for cid, first, rhs in (("prefactor-exp-over-t", 8, 1),
                            ("prefactor-exp-half", 15, Fraction(1, 2))):
        out.append(claim(cid, clock=clock, **sweep(
            ({"t": t} for t in range(first, t_max + 1)),
            lambda t: decide(lambda o: exp_over(t, o), rhs, "<"), {"t_range": [first, t_max]})))

    lhs = Fraction(15, 14) ** 29 / 15
    out.append(claim("prefactor-rational-half-t14", lhs < Fraction(1, 2), lhs=lhs,
                     rhs=Fraction(1, 2), clock=clock))

    out.append(claim("prefactor-alpha-power", clock=clock, **sweep(
        ({"t": t} for t in range(14, t_max + 1)),
        lambda t: 2 * Fraction(1, t + 1) / Fraction(t, t + 1) ** (2 * t + 1) < 1,
        {"t_range": [14, t_max]})))

    samples = [{"t": t, "k": k, "n": (t + 1) * k} for t in (14, 15, 20, 50) if t <= t_max
               for k in (t + 1, t + 2, 2 * t, 3 * t)]
    out.append(claim("prefactor-binomial-half", clock=clock, **sweep(
        samples,
        lambda t, k, n: Fraction(_comb(n, k - t) * _comb(n, k - t - 1),
                                 _comb(n - t, k - t) ** 2) < Fraction(1, 2),
        {"samples": len(samples)})))
    return out


# ---------------------------------------------------------------------------
# the extremal-gap function of the uniform diagonal case
# ---------------------------------------------------------------------------


def extremal_gap(t: int, i: int, order: int = 24) -> RationalInterval:
    """((t-2)/t) e^(-(t+2+i)/(t-1)) t^i: the margin by which the mass
    forced out of the reference family beats the mass allowed outside it."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    ex = exp_enclosure(Fraction(-(t + 2 + i), t - 1), order)
    return ex * Fraction((t - 2) * t**i, t)


def gap_exceeds_one(t: int, i: int) -> Optional[bool]:
    """``decide`` of extremal_gap(t, i) > 1, t >= 2, in its equivalent form
    e^((t+2+i)/(t-1)) < (t-2) t^(i-1): one positive exponential per order."""
    return decide(lambda o: exp_enclosure(Fraction(t + 2 + i, t - 1), o),
                  Fraction((t - 2) * t**i, t), "<")


def verify_extremal_gap(t_max: int = 100, i_max: int = 10) -> list[VerificationReport]:
    """extremal_gap(8, 1) > 1.2, and > 1 over the grid, each cell decided as the equivalent
    e^((t+2+i)/(t-1)) < (t-2) t^(i-1), one enclosure per order (``gap_exceeds_one``)."""
    out: list[VerificationReport] = []
    clock = Stopwatch()

    out.append(_enclosed("extremal-gap-f81", lambda o: extremal_gap(8, 1, o),
                         Fraction(12, 10), ">", clock))
    out.append(claim("extremal-gap-grid", clock=clock, **sweep(
        ({"t": t, "i": i} for t in range(8, t_max + 1) for i in range(1, i_max + 1)),
        gap_exceeds_one,
        {"t_range": [8, t_max], "i_range": [1, i_max]})))

    # i = 0 sits outside the claimed range (the value drops below 1);
    # recorded as skipped with the computed enclosure.
    out.append(VerificationReport(
        "extremal-gap-boundary", SKIPPED, lhs=extremal_gap(8, 0, 48), rhs=Fraction(1),
        witness={"note": "i = 0 outside the claimed range; value below 1"},
        elapsed_ms=clock.lap_ms()))

    def chain_link(t: int, s: int) -> bool:
        p = Fraction(1, t + 1)
        q = 1 - p
        return math.comb(t, s) * p ** (s - 1) * q ** (t + s + 2) * (q - p) > 1

    out.append(claim("extremal-gap-ratio-chain", clock=clock, **sweep(
        ({"t": t, "s": s} for t in range(6, t_max + 1) for s in (0, 1)), chain_link,
        {"t_range": [6, t_max]})))
    return out


# ---------------------------------------------------------------------------
# uniform envelope caps
# ---------------------------------------------------------------------------


def uniform_envelope_cap(t: int, u: int, s: int) -> Fraction:
    """Parameter-free cap on the binomial ratio: C(u+2s, s) / (t+1)^s."""
    if t < 1 or u < 0 or s < 0:
        raise ValueError("need t >= 1, u >= 0, s >= 0")
    return Fraction(math.comb(u + 2 * s, s), (t + 1) ** s)


def verify_uniform_envelope_caps() -> list[VerificationReport]:
    """Headline cap constants and the term combinations they certify."""
    clock = Stopwatch()

    # The s = 2 cap on the second family: coupling the line level to the
    # touch index (v = t+2-s') gives max over s' of cap(14, 16-s', s'),
    # which stays below 1.14; the decoupled chain through cap(14,16,1)
    # only gives 1.2.  Both readings are evaluated and reported.
    coupled = max(uniform_envelope_cap(14, 16 - sp, sp) for sp in (0, 1, 2))

    def combo(b2: Fraction) -> Fraction:
        return (
            Fraction(38, 1000)
            + Fraction(195, 1000) * b2
            + Fraction(68, 100) * Fraction(224, 1000)
            + Fraction(47, 100)
        )

    loose = combo(Fraction(6, 5))
    s3 = (
        Fraction(38, 1000)
        + Fraction(195, 1000) * Fraction(221, 100)
        + Fraction(34, 100) * Fraction(528, 1000)
        + Fraction(12, 100)
    )
    eq, lt = operator.eq, operator.lt
    checks = [
        ("uniform-envelope-h-14-14-2", uniform_envelope_cap(14, 14, 2), eq, Fraction(153, 225), None),
        ("uniform-envelope-h-14-28-2", uniform_envelope_cap(14, 28, 2), lt, Fraction(221, 100), None),
        ("uniform-envelope-h-14-16-1", uniform_envelope_cap(14, 16, 1), eq, Fraction(6, 5), None),
        ("uniform-envelope-s2-coupled-cap", coupled, lt, Fraction(114, 100), None),
        ("uniform-envelope-s2-combo", combo(Fraction(114, 100)), lt, Fraction(89, 100), None),
        ("uniform-envelope-s2-decoupled", loose, lt, Fraction(1),
         {"exceeds_0.89": bool(loose >= Fraction(89, 100))}),
        ("uniform-envelope-s3-combo", s3, lt, Fraction(77, 100), None),
    ]
    out = [claim(cid, holds(lhs, rhs), lhs=lhs, rhs=rhs, witness=witness, clock=clock)
           for cid, lhs, holds, rhs, witness in checks]

    # Decimal component caps used above, certified against e.
    e_caps = {
        "e/14 < 0.195": (lambda o: e_enclosure(o) * Fraction(1, 14), Fraction(195, 1000)),
        "e^(8/7)/14 < 0.224": (lambda o: exp_enclosure(Fraction(8, 7), o) * Fraction(1, 14),
                               Fraction(224, 1000)),
        "e^2/196 < 0.038": (lambda o: e_enclosure(o) ** 2 * Fraction(1, 196), Fraction(38, 1000)),
        "e^2/14 < 0.528": (lambda o: e_enclosure(o) ** 2 * Fraction(1, 14), Fraction(528, 1000)),
    }
    caps = sweep(({"cap": cap} for cap in e_caps), lambda cap: decide(*e_caps[cap], "<"), True)
    square_ok = (
        uniform_envelope_cap(14, 14, 2) ** 2 < Fraction(47, 100)
        and uniform_envelope_cap(14, 14, 3) ** 2 < Fraction(12, 100)
        and uniform_envelope_cap(14, 14, 3) < Fraction(34, 100)
    )
    out.append(claim("uniform-envelope-s2-combo-components",
                     caps["ok"] and square_ok if caps["ok"] is not None else None,
                     witness={"e_caps": caps["witness"], "squares": square_ok},
                     clock=clock))

    # cap(t, u, s) decreases in s from s = 2 on: cap(t, u, s) > cap(t, u, s+1)
    # once both sides are multiplied by (t+1)^(s+1).
    out.append(claim("uniform-envelope-cap-mono", clock=clock, **sweep(
        ({"t": t, "u": u, "s": s} for t in range(14, 40) for u in range(0, 2 * t + 1)
         for s in (2, 3, 4)),
        lambda t, u, s: math.comb(u + 2 * s, s) * (t + 1) > math.comb(u + 2 * s + 2, s + 1),
        None)))
    return out


# ---------------------------------------------------------------------------
# the finite sweep behind the low-side uniform case
# ---------------------------------------------------------------------------

FINITE_T_RANGE = range(14, 19)


def low_side_threshold(t: int) -> Fraction:
    """The n threshold 2t (1+1/t)^t / (1 - low_side_bound(t)) beyond which
    the relaxed low-side estimate already closes the case."""
    g = low_side_bound(t)
    if g >= 1:
        raise ValueError(f"low-side bound at t={t} is not below 1")
    return 2 * t * Fraction(t + 1, t) ** t / (1 - g)


def finite_sweep_ks(t: int) -> list[int]:
    n_max = math.floor(low_side_threshold(t))
    return [k for k in range(t, n_max // (t + 1) + 1)]


def _binomials_from(m: int, j: int) -> Iterator[int]:
    """C(m, j), C(m+1, j), C(m+2, j), ... by C(m+1, j) = C(m, j)(m+1)/(m+1-j),
    a division that is always exact; at m+1 = j it is taken from ``_comb``,
    which restarts a column that starts at zero."""
    c = _comb(m, j)
    while True:
        yield c
        m += 1
        c = c * m // (m - j) if m != j else _comb(m, j)


def finite_sweep_chunk(t: int, ks: Sequence[int]) -> dict:
    """Exact check of the bracketed binomial ratio over all (k, n) cells
    with the given k values.  Chunks over disjoint k merge by max (see
    ``merge_finite_chunks``)."""
    n_max = math.floor(low_side_threshold(t))
    best_num, best_den = 0, 1
    best_cell = None
    cells = 0
    failures = []
    for k in ks:
        r, n0 = k - t, (t + 1) * k
        # Two columns, C(m, r) and C(m, r-1), and their difference, each
        # built once for m from n0-t-3 to n_max.  Cell n reads them at
        # m = n (both columns), n-t (C(m, r)), n-t-1 and n-t-3 (the
        # difference): offsets t+3, t+3, 3, 2 and 0 into the lists.
        m0 = n0 - t - 3
        size = max(n_max + 1 - m0, 0)
        col = list(islice(_binomials_from(m0, r), size))
        col1 = list(islice(_binomials_from(m0, r - 1), size))
        diff = [a - b for a, b in zip(col, col1)]
        for n, c_n, c_n1, c_t, d_a, d_b in zip(range(n0, n_max + 1), col[t + 3:], col1[t + 3:],
                                               col[3:], diff[2:], diff):
            bracket = c_n + t * d_a - (t - 1) * d_b
            lhs = bracket * c_n1
            rhs = c_t * c_t
            cells += 1
            if lhs >= rhs:
                failures.append((k, n))
            if lhs * best_den > best_num * rhs:
                best_num, best_den, best_cell = lhs, rhs, (k, n)
    return {
        "t": t,
        "cells": cells,
        "failures": failures,
        "max_num": best_num,
        "max_den": best_den,
        "argmax": best_cell,
    }


def merge_finite_chunks(chunks: Iterable[dict]) -> dict:
    merged = None
    for c in chunks:
        if merged is None:
            merged = dict(c)
            continue
        if c["t"] != merged["t"]:
            raise ValueError("cannot merge sweeps over different t")
        merged["cells"] += c["cells"]
        merged["failures"] = sorted(merged["failures"] + c["failures"])
        if c["max_num"] * merged["max_den"] > merged["max_num"] * c["max_den"]:
            merged["max_num"], merged["max_den"] = c["max_num"], c["max_den"]
            merged["argmax"] = c["argmax"]
    return merged if merged is not None else {}


def verify_low_side_finite(t: int) -> VerificationReport:
    """The finite (k, n) sweep for one t in FINITE_T_RANGE, over every k
    of ``finite_sweep_ks(t)``."""
    clock = Stopwatch()
    if t not in FINITE_T_RANGE:
        raise ValueError(f"finite sweep is defined for t in {list(FINITE_T_RANGE)}, got {t}")
    result = finite_sweep_chunk(t, finite_sweep_ks(t))
    ok = not result["failures"]
    ratio = Fraction(result["max_num"], result["max_den"]) if result["max_den"] else None
    return claim(
        f"finite-sweep[t={t}]",
        ok,
        lhs=ratio,
        rhs=Fraction(1),
        witness={
            "cells": result["cells"],
            "argmax": list(result["argmax"]) if result["argmax"] else None,
            "n_max": math.floor(low_side_threshold(t)),
            "failures": result["failures"][:10],
        },
        clock=clock,
    )


def verify_threshold_floor(t: int) -> VerificationReport:
    """floor(n0) is the last n where the relaxed low-side estimate
    g(t) + c/n < 1, c = 2t(1+1/t)^t, does not close: (1-g) floor <= c <
    (1-g)(floor+1), checked without dividing.  At t = 14 it is 1023."""
    clock = Stopwatch()
    floor_n0 = math.floor(low_side_threshold(t))
    slack = 1 - low_side_bound(t)
    c = 2 * t * Fraction(t + 1, t) ** t
    expected = {14: 1023}
    ok = slack * floor_n0 <= c < slack * (floor_n0 + 1) and floor_n0 == expected.get(t, floor_n0)
    return claim(f"finite-threshold-floor[t={t}]", ok, lhs=floor_n0, rhs=expected.get(t),
                 witness={"closes_at_n": floor_n0 + 1}, clock=clock)


# ---------------------------------------------------------------------------
# uniform shallow-pair expressions
# ---------------------------------------------------------------------------


def uniform_high_side_exact(t: int) -> Fraction:
    """Exact form of the uniform high-side product expression:

        (1+1/t)^(t-1) [ (1+1/t)^t (1+t)/t^2 + 1 - (t/(t+1))^2 + t/(t+1)^2 ].
    """
    c = Fraction(t + 1, t)
    inner = c**t * Fraction(1 + t, t * t) + 1 - Fraction(t, t + 1) ** 2 + Fraction(t, (t + 1) ** 2)
    return c ** (t - 1) * inner


def uniform_high_side_relaxed(t: int, order: int = 24) -> RationalInterval:
    """Enclosed relaxation e (e(t+1)/t^2 + (3t+1)/(t+1)^2)."""
    e = e_enclosure(order)
    return e * (e * Fraction(t + 1, t * t) + Fraction(3 * t + 1, (t + 1) ** 2))


def verify_uniform_side_bounds(t_max: int = 100, deep: Optional[Callable[[int], dict]] = None
                               ) -> list[VerificationReport]:
    """The uniform shallow-pair claims; ``deep`` as in ``verify_side_bound_shapes``."""
    out: list[VerificationReport] = []
    clock = Stopwatch()
    for t in (14, 15):
        val = uniform_high_side_exact(t)
        out.append(claim(f"uniform-side-exact[t={t}]", val < 1, lhs=val, rhs=Fraction(1),
                         clock=clock))
    out.append(_enclosed("uniform-side-relaxed[t=16]",
                         lambda o: uniform_high_side_relaxed(16, o), 1, "<", clock))
    out.append(claim("uniform-side-relaxed-trend", clock=clock,
                     **_decreasing(uniform_high_side_relaxed, 16, t_max)))

    out.append(claim("uniform-deep-sweep", clock=clock, **(deep or deep_pair_sweep)(t_max)))
    return out


# ---------------------------------------------------------------------------
# stability ratio
# ---------------------------------------------------------------------------


def stability_ratio(t: int, p: Rat) -> Fraction:
    """Weight ratio of the window-(t+2) threshold family to the star:
    (t+2) p (1-p) + p^2."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    p = Fraction(p)
    return (t + 2) * p * (1 - p) + p * p


def uniform_size_ratio(n: int, k: int, t: int) -> Fraction:
    """|window-(t+2) threshold family| / |star| over the k-layer,
    evaluated through binomials."""
    num = (t + 2) * _comb(n - t - 2, k - t - 1) + _comb(n - t - 2, k - t - 2)
    den = _comb(n - t, k - t)
    if den == 0:
        raise ValueError("empty star layer")
    return Fraction(num, den)


def verify_stability(t: int, n: int, k: int, grid: int = 40) -> list[VerificationReport]:
    out = []
    clock = Stopwatch()
    at_inv = stability_ratio(t, Fraction(1, t + 1))
    out.append(claim(f"stability-unit-at-inverse[t={t}]", at_inv == 1, lhs=at_inv,
                     rhs=Fraction(1), clock=clock))

    pmax = Fraction(1, t + 1) * (1 + Fraction(t, 2))
    vals = [stability_ratio(t, pmax * j / grid) for j in range(1, grid + 1)]
    bad = _grid_increasing(vals)
    out.append(claim(f"stability-increasing[t={t}]", bad is None,
                     witness={"p_max": pmax, "bad_index": bad}, clock=clock))

    ratio = uniform_size_ratio(n, k, t)
    cap = stability_ratio(t, Fraction(k, n))
    out.append(claim(f"stability-uniform-ratio[t={t},n={n},k={k}]", ratio < cap,
                     lhs=ratio, rhs=cap, clock=clock))
    return out


# ---------------------------------------------------------------------------
# the full scalar suite
# ---------------------------------------------------------------------------


# The least t_max at which every grid sweep of ``run_bounds_suite`` checks
# some t: uniform-side-relaxed-trend compares t with t + 1 from t = 16.
SUITE_T_MAX_MIN = 17


def run_bounds_suite(t_max: int = 100) -> list[VerificationReport]:
    """Every scalar claim, in registry order.  Runs in seconds."""
    reports: list[VerificationReport] = []
    reports += verify_envelope_products()
    reports += verify_envelope_monotonicity(range(14, 21), range(0, 11))
    # One sweep, timed in the deep-pair-sweep row, also backs uniform-deep-sweep.
    deep = functools.cache(deep_pair_sweep)
    reports += verify_side_bound_shapes(t_max, deep)
    reports += verify_prefactors(t_max)
    reports += verify_extremal_gap(t_max, 10)
    reports += verify_uniform_envelope_caps()
    reports += verify_uniform_side_bounds(t_max, deep)
    reports += verify_stability(14, 225, 15)
    reports.append(verify_threshold_floor(14))
    return reports
