"""Scalar bound functions and exact certification of the numeric
inequalities backing the product-bound proofs.

Everything evaluates over exact rationals; quantities involving e or
e^x are enclosed in rational intervals (see ``intervals``) and a
comparison is accepted only when the whole enclosure sits on one side
of the threshold.  Decimal constants from the proofs (0.87, 0.999,
2.21, ...) are carried as exact fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .intervals import RationalInterval, decide, e_enclosure, exp_enclosure
from .measure import WeightParams, mu
from .report import SKIPPED, Stopwatch, VerificationReport, claim
from .setfam import Family

Rat = Union[Fraction, int]


def _comb(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseParams:
    """Parameter bundle for a line-level case split, with the coupling
    invariants validated on construction."""

    t: int
    u: Optional[int] = None
    v: Optional[int] = None
    s: Optional[int] = None
    s_prime: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    p: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        u, v, s, sp = self.u, self.v, self.s, self.s_prime
        if u is not None and v is not None:
            if u + v != 2 * self.t:
                raise ValueError(f"u + v = {u + v} must equal 2t = {2 * self.t}")
            if not 0 <= u <= self.t <= v <= 2 * self.t:
                raise ValueError(f"need 0 <= u <= t <= v <= 2t, got u={u}, v={v}")
            if s is not None and sp is not None and 2 * (s - sp) != v - u:
                raise ValueError(f"s - s' = {s - sp} must equal (v-u)/2 = {(v - u) // 2}")
        if s is not None and sp is not None and not s >= sp >= 0:
            raise ValueError(f"need s >= s' >= 0, got s={s}, s'={sp}")
        if self.p is not None:
            object.__setattr__(self, "p", Fraction(self.p))
            if not 0 < self.p < 1:
                raise ValueError(f"p must lie in (0, 1), got {self.p}")


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
    """Check the envelope decreases in the touch index, both by direct
    exact evaluation and through the rearranged quadratic positivity."""
    t_range, s_range = list(t_range), list(s_range)
    clock = Stopwatch()
    low_ok, high_ok, poly_ok = True, True, True
    bad = None
    for t in t_range:
        for s in s_range:
            if envelope_low(s, t) <= envelope_low(s + 1, t):
                low_ok, bad = False, {"t": t, "s": s, "side": "low"}
            poly = s * s * (t - 1) ** 2 + s * (t**3 + t**2 + t + 3) + (t**2 + 3 * t + 2)
            if poly <= 0:
                poly_ok, bad = False, {"t": t, "s": s, "poly": poly}
            if s >= 1 and envelope_high(s, t) <= envelope_high(s + 1, t):
                high_ok, bad = False, {"t": t, "s": s, "side": "high"}
    grid = {"t": [min(t_range), max(t_range)], "s": [min(s_range), max(s_range)]}
    return [
        claim("envelope-mono-low", low_ok, witness=bad if not low_ok else grid, clock=clock),
        claim("envelope-mono-high", high_ok, witness=bad if not high_ok else grid, clock=clock),
        claim("envelope-mono-poly", poly_ok, witness=bad if not poly_ok else grid, clock=clock),
    ]


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
    for t in range(7, t_max + 1):
        r = decide(lambda o, t=t: deep_pair_bound(t, o), 1, "<")
        if r is not True:
            return {"ok": r, "witness": {"t": t}}
    return {"ok": True, "witness": {"t_range": [7, t_max]}}


def verify_side_bound_shapes(t_max: int = 100,
                             deep: Optional[dict] = None) -> list[VerificationReport]:
    """Threshold instances and shape claims for the three case bounds;
    ``deep`` is ``deep_pair_sweep(t_max)`` if the caller already has it."""
    out: list[VerificationReport] = []
    clock = Stopwatch()

    ok = decide(lambda o: deep_pair_bound(7, o), Fraction(999, 1000), "<")
    out.append(claim("deep-pair-g7", ok, lhs=deep_pair_bound(7, 48),
                     rhs=Fraction(999, 1000), clock=clock))

    out.append(claim("deep-pair-sweep", clock=clock, **(deep or deep_pair_sweep(t_max))))

    # Consecutive differences of the deep-pair bound flip sign at most
    # once over the sweep; the location is recorded, not assumed.
    signs = []
    prev = deep_pair_bound(7, 48)
    flip_at = None
    single_flip = True
    for t in range(8, min(t_max, 60) + 1):
        cur = deep_pair_bound(t, 48)
        if cur.hi < prev.lo:
            signs.append(-1)
        elif cur.lo > prev.hi:
            signs.append(1)
        else:
            signs.append(0)
        prev = cur
    rises = [i for i, s in enumerate(signs) if s > 0]
    if rises:
        flip_at = 8 + rises[0]
        if any(s < 0 for s in signs[rises[0]:]):
            single_flip = False
    out.append(claim("deep-pair-trend", single_flip,
                     witness={"first_increase_at_t": flip_at, "signs": signs},
                     clock=clock))

    g13 = low_side_bound(13)
    out.append(claim("low-side-g13", g13 < 1, lhs=g13, rhs=Fraction(1), clock=clock))
    ok = decide(lambda o: low_side_bound_relaxed(14, o), 1, "<")
    out.append(claim("low-side-relaxed-g14", ok, lhs=low_side_bound_relaxed(14, 48),
                     rhs=Fraction(1), clock=clock))

    dec_ok: Optional[bool] = True
    for t in range(14, t_max):
        a, b = low_side_bound_relaxed(t, 48), low_side_bound_relaxed(t + 1, 48)
        if not a.lo > b.hi:
            dec_ok = False
            break
    out.append(claim("low-side-relaxed-trend", dec_ok, witness={"t_range": [14, t_max]},
                     clock=clock))

    # (1-a)(tq-(t-1)q^3) increases in p up to p = 1/(t+1), where it equals
    # t(t-1)(3t+1)/(t+1)^3 exactly.
    mono_ok = True
    witness = None
    for t in (13, 14, 20):
        pmax = Fraction(1, t + 1)
        grid = [pmax * j / 24 for j in range(1, 25)]
        vals = []
        for p in grid:
            q = 1 - p
            vals.append((1 - p / q) * (t * q - (t - 1) * q**3))
        bad = _grid_increasing(vals)
        cap = Fraction(t * (t - 1) * (3 * t + 1), (t + 1) ** 3)
        if bad is not None or vals[-1] != cap:
            mono_ok = False
            witness = {"t": t, "bad_index": bad, "endpoint": vals[-1], "cap": cap}
            break
    out.append(claim("low-side-p-mono", mono_ok, witness=witness, clock=clock))

    ok = decide(lambda o: high_side_bound(13, o), Fraction(96, 100), "<")
    out.append(claim("high-side-h13", ok, lhs=high_side_bound(13, 48),
                     rhs=Fraction(96, 100), clock=clock))

    dec_ok = True
    for t in range(13, t_max):
        a, b = high_side_bound(t, 48), high_side_bound(t + 1, 48)
        if not a.lo > b.hi:
            dec_ok = False
            break
    out.append(claim("high-side-trend", dec_ok, witness={"t_range": [13, t_max]},
                     clock=clock))

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

    ok: Optional[bool] = True
    for t in range(8, t_max + 1):
        r = decide(lambda o, t=t: exp_over(t, o), 1, "<")
        if r is not True:
            ok = r
            break
    out.append(claim("prefactor-exp-over-t", ok, witness={"t_range": [8, t_max]},
                     clock=clock))

    ok = True
    for t in range(15, t_max + 1):
        r = decide(lambda o, t=t: exp_over(t, o), Fraction(1, 2), "<")
        if r is not True:
            ok = r
            break
    out.append(claim("prefactor-exp-half", ok, witness={"t_range": [15, t_max]},
                     clock=clock))

    lhs = Fraction(15, 14) ** 29 / 15
    out.append(claim("prefactor-rational-half-t14", lhs < Fraction(1, 2), lhs=lhs,
                     rhs=Fraction(1, 2), clock=clock))

    ok = True
    bad = None
    for t in range(14, t_max + 1):
        p = Fraction(1, t + 1)
        q = 1 - p
        val = 2 * p / q ** (2 * t + 1)
        if not val < 1:
            ok, bad = False, {"t": t, "value": val}
            break
    out.append(claim("prefactor-alpha-power", ok, witness=bad or {"t_range": [14, t_max]},
                     clock=clock))

    ok = True
    bad = None
    samples = []
    for t in (14, 15, 20, 50):
        if t > t_max:
            continue
        for k in (t + 1, t + 2, 2 * t, 3 * t):
            n = (t + 1) * k
            lhs = Fraction(_comb(n, k - t) * _comb(n, k - t - 1), _comb(n - t, k - t) ** 2)
            samples.append({"t": t, "k": k, "n": n, "ratio": lhs})
            if not lhs < Fraction(1, 2):
                ok, bad = False, samples[-1]
                break
        if not ok:
            break
    out.append(claim("prefactor-binomial-half", ok, witness=bad or {"samples": len(samples)},
                     clock=clock))
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


def verify_extremal_gap(t_max: int = 100, i_max: int = 10) -> list[VerificationReport]:
    out: list[VerificationReport] = []
    clock = Stopwatch()

    ok = decide(lambda o: extremal_gap(8, 1, o), Fraction(12, 10), ">")
    out.append(claim("extremal-gap-f81", ok, lhs=extremal_gap(8, 1, 48),
                     rhs=Fraction(12, 10), clock=clock))

    grid_ok: Optional[bool] = True
    bad = None
    for t in range(8, t_max + 1):
        for i in range(1, i_max + 1):
            r = decide(lambda o, t=t, i=i: extremal_gap(t, i, o), 1, ">")
            if r is not True:
                grid_ok, bad = r, {"t": t, "i": i}
                break
        if grid_ok is not True:
            break
    out.append(claim("extremal-gap-grid", grid_ok,
                     witness=bad or {"t_range": [8, t_max], "i_range": [1, i_max]},
                     clock=clock))

    # i = 0 sits outside the claimed range (the value drops below 1);
    # recorded as skipped with the computed enclosure.
    val = extremal_gap(8, 0, 48)
    out.append(
        VerificationReport(
            "extremal-gap-boundary",
            SKIPPED,
            lhs=val,
            rhs=Fraction(1),
            witness={"note": "i = 0 outside the claimed range; value below 1"},
            elapsed_ms=clock.lap_ms(),
        )
    )

    chain_ok = True
    bad = None
    for t in range(6, t_max + 1):
        p = Fraction(1, t + 1)
        q = 1 - p
        for s in (0, 1):
            val = math.comb(t, s) * p ** (s - 1) * q ** (t + s + 2) * (q - p)
            if not val > 1:
                chain_ok, bad = False, {"t": t, "s": s, "value": val}
                break
        if not chain_ok:
            break
    out.append(claim("extremal-gap-ratio-chain", chain_ok,
                     witness=bad or {"t_range": [6, t_max]}, clock=clock))
    return out


# ---------------------------------------------------------------------------
# uniform envelope bounds (binomial ratios) and their caps
# ---------------------------------------------------------------------------


def uniform_envelope_bounds(
    n: int, k: int, t: int, u: int, v: int, s: int, s_prime: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four exact binomial-ratio components (a1, a2, b1, b2) bounding
    |A| / C(n-u, k-u) and |B| / C(n-v, k-v)."""
    CaseParams(t=t, u=u, v=v, s=s, s_prime=s_prime, k=k, n=n)
    if not (t + s <= k <= n):
        raise ValueError(f"need t+s <= k <= n, got t+s={t + s}, k={k}, n={n}")

    def f_part(uu: int) -> Fraction:
        den = _comb(n - uu, k - uu)
        if den == 0:
            raise ValueError(f"degenerate denominator C({n - uu},{k - uu})")
        return Fraction(_comb(n, k - uu - 1), den)

    def g_part(uu: int, ss: int) -> Fraction:
        den = _comb(n - uu, k - uu)
        return Fraction(math.comb(uu + 2 * ss, ss) * _comb(n - uu - 2 * ss, k - uu - ss), den)

    return f_part(u), g_part(u, s), f_part(v), g_part(v, s_prime)


def uniform_envelope_cap(t: int, u: int, s: int) -> Fraction:
    """Parameter-free cap on the binomial ratio: C(u+2s, s) / (t+1)^s."""
    if t < 1 or u < 0 or s < 0:
        raise ValueError("need t >= 1, u >= 0, s >= 0")
    return Fraction(math.comb(u + 2 * s, s), (t + 1) ** s)


def verify_uniform_envelope_caps() -> list[VerificationReport]:
    """Headline cap constants and the term combinations they certify."""
    out: list[VerificationReport] = []
    clock = Stopwatch()

    h_14_14_2 = uniform_envelope_cap(14, 14, 2)
    out.append(claim("uniform-envelope-h-14-14-2", h_14_14_2 == Fraction(153, 225),
                     lhs=h_14_14_2, rhs=Fraction(153, 225), clock=clock))
    h_14_28_2 = uniform_envelope_cap(14, 28, 2)
    out.append(claim("uniform-envelope-h-14-28-2", h_14_28_2 < Fraction(221, 100),
                     lhs=h_14_28_2, rhs=Fraction(221, 100), clock=clock))
    h_14_16_1 = uniform_envelope_cap(14, 16, 1)
    out.append(claim("uniform-envelope-h-14-16-1", h_14_16_1 == Fraction(6, 5),
                     lhs=h_14_16_1, rhs=Fraction(6, 5), clock=clock))

    # The s = 2 cap on the second family: coupling the line level to the
    # touch index (v = t+2-s') gives max over s' of cap(14, 16-s', s'),
    # which stays below 1.14; the decoupled chain through cap(14,16,1)
    # only gives 1.2.  Both readings are evaluated and reported.
    coupled = max(uniform_envelope_cap(14, 16 - sp, sp) for sp in (0, 1, 2))
    out.append(claim("uniform-envelope-s2-coupled-cap", coupled < Fraction(114, 100),
                     lhs=coupled, rhs=Fraction(114, 100), clock=clock))

    def combo(b2: Fraction) -> Fraction:
        return (
            Fraction(38, 1000)
            + Fraction(195, 1000) * b2
            + Fraction(68, 100) * Fraction(224, 1000)
            + Fraction(47, 100)
        )

    tight = combo(Fraction(114, 100))
    out.append(claim("uniform-envelope-s2-combo", tight < Fraction(89, 100),
                     lhs=tight, rhs=Fraction(89, 100), clock=clock))
    loose = combo(Fraction(6, 5))
    out.append(claim("uniform-envelope-s2-decoupled", loose < 1, lhs=loose, rhs=Fraction(1),
                     witness={"exceeds_0.89": bool(loose >= Fraction(89, 100))},
                     clock=clock))

    s3 = (
        Fraction(38, 1000)
        + Fraction(195, 1000) * Fraction(221, 100)
        + Fraction(34, 100) * Fraction(528, 1000)
        + Fraction(12, 100)
    )
    out.append(claim("uniform-envelope-s3-combo", s3 < Fraction(77, 100),
                     lhs=s3, rhs=Fraction(77, 100), clock=clock))

    # Decimal component caps used above, certified against e.
    comp_ok: Optional[bool] = True
    for lhs_build, cap in (
        (lambda o: e_enclosure(o) * Fraction(1, 14), Fraction(195, 1000)),
        (lambda o: exp_enclosure(Fraction(8, 7), o) * Fraction(1, 14), Fraction(224, 1000)),
        (lambda o: e_enclosure(o) ** 2 * Fraction(1, 196), Fraction(38, 1000)),
        (lambda o: e_enclosure(o) ** 2 * Fraction(1, 14), Fraction(528, 1000)),
    ):
        r = decide(lhs_build, cap, "<")
        if r is not True:
            comp_ok = r
            break
    square_ok = (
        uniform_envelope_cap(14, 14, 2) ** 2 < Fraction(47, 100)
        and uniform_envelope_cap(14, 14, 3) ** 2 < Fraction(12, 100)
        and uniform_envelope_cap(14, 14, 3) < Fraction(34, 100)
    )
    out.append(claim("uniform-envelope-s2-combo-components",
                     bool(comp_ok) and square_ok if comp_ok is not None else None,
                     witness={"e_caps": bool(comp_ok), "squares": square_ok},
                     clock=clock))

    # cap(t, u, s) decreases in s from s = 2 on.
    mono_ok = True
    bad = None
    for t in range(14, 40):
        for u in range(0, 2 * t + 1):
            for s in (2, 3, 4):
                if uniform_envelope_cap(t, u, s) <= uniform_envelope_cap(t, u, s + 1):
                    mono_ok, bad = False, {"t": t, "u": u, "s": s}
                    break
    out.append(claim("uniform-envelope-cap-mono", mono_ok, witness=bad, clock=clock))
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
        # C(n, r), C(n, r-1), C(n-t-1, r), C(n-t-1, r-1), C(n-t-3, r),
        # C(n-t-3, r-1) and C(n-t, r), each a column walking n up from n0.
        columns = zip(range(n0, n_max + 1), *(_binomials_from(n0 - d, j) for d, j in (
            (0, r), (0, r - 1), (t + 1, r), (t + 1, r - 1), (t + 3, r), (t + 3, r - 1), (t, r))))
        for n, c_n, c_n1, c_a, c_a1, c_b, c_b1, c_t in columns:
            bracket = c_n + t * (c_a - c_a1) - (t - 1) * (c_b - c_b1)
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


def verify_low_side_finite(t: int, ks: Optional[Sequence[int]] = None) -> VerificationReport:
    """The finite (k, n) sweep for one t in FINITE_T_RANGE, over every k
    of ``finite_sweep_ks(t)`` unless ``ks`` narrows it."""
    clock = Stopwatch()
    if t not in FINITE_T_RANGE:
        raise ValueError(f"finite sweep is defined for t in {list(FINITE_T_RANGE)}, got {t}")
    result = finite_sweep_chunk(t, ks if ks is not None else finite_sweep_ks(t))
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


def verify_uniform_side_bounds(t_max: int = 100,
                               deep: Optional[dict] = None) -> list[VerificationReport]:
    """The uniform shallow-pair claims; ``deep`` as in ``verify_side_bound_shapes``."""
    out: list[VerificationReport] = []
    clock = Stopwatch()
    for t in (14, 15):
        val = uniform_high_side_exact(t)
        out.append(claim(f"uniform-side-exact[t={t}]", val < 1, lhs=val, rhs=Fraction(1),
                         clock=clock))
    ok = decide(lambda o: uniform_high_side_relaxed(16, o), 1, "<")
    out.append(claim("uniform-side-relaxed[t=16]", ok, lhs=uniform_high_side_relaxed(16, 48),
                     rhs=Fraction(1), clock=clock))

    dec_ok: Optional[bool] = True
    for t in range(16, t_max):
        a, b = uniform_high_side_relaxed(t, 48), uniform_high_side_relaxed(t + 1, 48)
        if not a.lo > b.hi:
            dec_ok = False
            break
    out.append(claim("uniform-side-relaxed-trend", dec_ok, witness={"t_range": [16, t_max]},
                     clock=clock))

    out.append(claim("uniform-deep-sweep", clock=clock,
                     **(deep or deep_pair_sweep(t_max))))
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
# decomposition bookkeeping around a reference family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionStats:
    """The eleven masses of a pair (A, B) split around a reference
    family, with the share coefficients xi.  The defining identities
    f = a0 + fa, a = a0 + af, a1 = af + fa (and the b side) are
    re-asserted after computation."""

    f: Rat
    a: Rat
    a0: Rat
    a1: Rat
    af: Rat
    fa: Rat
    b: Rat
    b0: Rat
    b1: Rat
    bf: Rat
    fb: Rat
    xi_a: Fraction
    xi_b: Fraction

    def __post_init__(self) -> None:
        if self.f != self.a0 + self.fa or self.f != self.b0 + self.fb:
            raise ValueError("reference mass must split as f = a0 + fa = b0 + fb")
        if self.a != self.a0 + self.af or self.b != self.b0 + self.bf:
            raise ValueError("family mass must split as a = a0 + af")
        if self.a1 != self.af + self.fa or self.b1 != self.bf + self.fb:
            raise ValueError("symmetric difference must split as a1 = af + fa")

    def geometric_mean_within(self) -> bool:
        """sqrt(a0 b0) <= (1 - xi/2) f, checked by exact squaring."""
        xi = self.xi_a + self.xi_b
        rhs = (1 - xi / 2) * Fraction(self.f)
        if rhs < 0:
            return False
        return Fraction(self.a0) * Fraction(self.b0) <= rhs * rhs


def decomposition_check(
    a: Family, b: Family, ref: Family, p: Optional[Fraction] = None
) -> DecompositionStats:
    """Split the masses of a and b around the reference family.

    With p given, masses are exact product weights; otherwise they are
    plain cardinalities.
    """
    if not (a.n == b.n == ref.n):
        raise ValueError("families must share a ground set")
    ref_set = set(ref.masks)

    def masses(fam: Family):
        inside = [m for m in fam.masks if m in ref_set]
        outside = [m for m in fam.masks if m not in ref_set]
        missing = sorted(ref_set - set(fam.masks))
        if p is None:
            return len(fam.masks), len(inside), len(outside), len(missing)
        params = WeightParams(fam.n, p)
        w = lambda ms: mu(Family(fam.n, tuple(ms), None), params)  # noqa: E731
        return w(fam.masks), w(inside), w(outside), w(missing)

    fa_total, a0, af, fa = masses(a)
    fb_total, b0, bf, fb = masses(b)
    f = a0 + fa
    if f == 0:
        raise ValueError("reference family must have positive mass")
    return DecompositionStats(
        f=f, a=fa_total, a0=a0, a1=af + fa, af=af, fa=fa,
        b=fb_total, b0=b0, b1=bf + fb, bf=bf, fb=fb,
        xi_a=Fraction(fa) / Fraction(f), xi_b=Fraction(fb) / Fraction(f),
    )


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
    # deep-pair-sweep and uniform-deep-sweep certify the same sweep.
    deep = deep_pair_sweep(t_max)
    reports += verify_side_bound_shapes(t_max, deep)
    reports += verify_prefactors(t_max)
    reports += verify_extremal_gap(t_max, 10)
    reports += verify_uniform_envelope_caps()
    reports += verify_uniform_side_bounds(t_max, deep)
    reports += verify_stability(14, 225, 15)
    reports.append(verify_threshold_floor(14))
    return reports
