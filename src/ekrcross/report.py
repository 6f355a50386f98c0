"""Structured verification outcomes and their serialization.

Each verified claim carries a stable id and a short anchor string (the
inequality or identity being checked) drawn from a single static
registry, so report rows are greppable back to the claim they certify.
Rationals serialize as "num/den" strings; enclosures as {lo, hi}.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .intervals import RationalInterval

VERIFIED = "verified"
REFUTED = "refuted"
SKIPPED = "skipped"
INCONCLUSIVE = "inconclusive"

_STATUSES = (VERIFIED, REFUTED, SKIPPED, INCONCLUSIVE)


# Anchor registry: claim-id prefix -> the mathematical statement checked.
# Parametrized claims use ids like "finite-sweep[t=14]"; the part before
# the bracket selects the anchor.
ANCHORS: dict[str, str] = {
    "envelope-product-g3h1": "envelope_low(3,14) * envelope_high(1,14) < 0.87",
    "envelope-product-g2": "envelope_low(2,14) * 1 < 0.96",
    "envelope-product-f13f15": "envelope(13,2,1/15) * envelope(15,1,1/15) < 0.68",
    "envelope-product-f14sq": "envelope(14,2,1/15)^2 < 0.46",
    "envelope-mono-low": "envelope_low(s,t) > envelope_low(s+1,t)",
    "envelope-mono-high": "envelope_high(s,t) > envelope_high(s+1,t) for s >= 1",
    "envelope-mono-poly": "s^2(t-1)^2 + s(t^3+t^2+t+3) + (t^2+3t+2) > 0",
    "deep-pair-g7": "deep_pair_bound(7) < 0.999",
    "deep-pair-sweep": "deep_pair_bound(t) < 1 pointwise over the sweep",
    "deep-pair-trend": "sign pattern of consecutive deep_pair_bound differences",
    "low-side-g13": "low_side_bound(13) < 1",
    "low-side-relaxed-g14": "low_side_bound_relaxed(14) < 1",
    "low-side-relaxed-trend": "low_side_bound_relaxed decreasing over the sweep",
    "low-side-p-mono": "(1-a)(tq-(t-1)q^3) increasing in p on (0, 1/(t+1)], equality at p = 1/(t+1)",
    "high-side-h13": "high_side_bound(13) < 0.96",
    "high-side-trend": "high_side_bound decreasing over the sweep",
    "high-side-p-mono": "(1-a)(1-q^2) increasing in p for p <= 274/1000",
    "prefactor-exp-over-t": "e^(2+1/t) / (t+1) < 1 for t >= 8",
    "prefactor-exp-half": "e^(2+1/t) / (t+1) < 1/2 for t >= 15",
    "prefactor-rational-half-t14": "(1+1/14)^29 / 15 < 1/2",
    "prefactor-alpha-power": "2 p / q^(2t+1) < 1 at p = 1/(t+1) for t >= 14",
    "prefactor-binomial-half": "C(n,k-t) C(n,k-t-1) / C(n-t,k-t)^2 < 1/2 at n = (t+1)k",
    "extremal-gap-f81": "extremal_gap(8,1) > 1.2",
    "extremal-gap-grid": "extremal_gap(t,i) > 1 over the grid",
    "extremal-gap-boundary": "extremal_gap(t,0) < 1 boundary case, outside the claimed range",
    "extremal-gap-ratio-chain": "C(t,s) p^(s-1) q^(t+s+2) (q-p) > 1 at p = 1/(t+1), s in {0,1}",
    "uniform-envelope-h-14-14-2": "cap(14,14,2) = C(18,2)/15^2 = 153/225",
    "uniform-envelope-h-14-28-2": "cap(14,28,2) < 2.21",
    "uniform-envelope-h-14-16-1": "cap(14,16,1) = 18/15 = 6/5",
    "uniform-envelope-s2-coupled-cap": "max over s' of cap(14, 16-s', s') < 1.14",
    "uniform-envelope-s2-combo": "s=2 term combination with coupled cap < 0.89",
    "uniform-envelope-s2-decoupled": "s=2 combination with decoupled cap(14,16,1)=1.2 stays < 1 (exceeds 0.89)",
    "uniform-envelope-s3-combo": "s>=3 term combination < 0.77",
    "uniform-envelope-s2-combo-components": (
        "component caps e/14 < 0.195, e^(8/7)/14 < 0.224, e^2/196 < 0.038, e^2/14 < 0.528, "
        "cap(14,14,2)^2 < 0.47, cap(14,14,3)^2 < 0.12, cap(14,14,3) < 0.34"
    ),
    "uniform-envelope-cap-mono": "cap(t,u,s) > cap(t,u,s+1) for s in {2,3,4}, 14 <= t < 40, 0 <= u <= 2t",
    "uniform-side-exact": "exact shallow-pair expression < 1",
    "uniform-side-relaxed": "enclosed shallow-pair expression < 1",
    "uniform-side-relaxed-trend": "enclosed shallow-pair expression decreasing over the sweep from t = 16",
    "uniform-deep-sweep": "deep_pair_bound(t) < 1 reused on the uniform side",
    "stability-unit-at-inverse": "(t+2)p(1-p) + p^2 = 1 at p = 1/(t+1)",
    "stability-increasing": "(t+2)p(1-p) + p^2 increasing on the stated p range",
    "stability-uniform-ratio": "uniform size ratio < (t+2)p(1-p) + p^2 at p = k/n",
    "finite-threshold-floor": "floor of low-side threshold n0(t)",
    "finite-sweep": "bracketed binomial ratio < 1 for all k >= t, (t+1)k <= n <= n0(t)",
    "hit-limit-monotone": "hit probability nondecreasing in n and bounded by (p/q)^t",
    "graph-kneser": "disjointness graph connected and non-bipartite for 2k < n",
    "graph-product": "direct product connectivity matches the odd-cycle criterion",
    "measure-threshold-oracle": "closed-form weights match power-set enumeration",
    "measure-point-events": "point-hitting event weights match enumeration",
    "measure-counterexample": "p^t - p^t q^(n-t) + t p^(n-1) q matches the constructed family",
    "walk-count-oracle": "closed-form walk counts match enumeration",
}


def anchor_for(claim_id: str) -> str:
    base = claim_id.split("[", 1)[0]
    return ANCHORS.get(base, base)


@dataclass
class VerificationReport:
    """Outcome of one checked claim."""

    claim_id: str
    status: str
    lhs: Any = None
    rhs: Any = None
    witness: Optional[dict] = None
    elapsed_ms: float = 0.0
    anchor: str = field(default="")

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")
        if self.status == REFUTED and self.witness is None:
            raise ValueError("refuted reports must carry a witness")
        if not self.anchor:
            self.anchor = anchor_for(self.claim_id)


class Stopwatch:
    """Times consecutive report rows: each ``lap_ms`` reading restarts it."""

    def __init__(self) -> None:
        self.mark = time.perf_counter()

    def lap_ms(self) -> float:
        now = time.perf_counter()
        elapsed, self.mark = (now - self.mark) * 1000, now
        return elapsed


def claim(claim_id: str, ok: Optional[bool], lhs=None, rhs=None, witness=None,
          clock: Optional[Stopwatch] = None) -> VerificationReport:
    """Report row for a checked claim: ``ok`` True, False or None gives
    verified, refuted or inconclusive.  A refutation without a witness
    carries lhs and rhs as its witness; the row's ``elapsed_ms`` is a lap
    of ``clock``, so it times this check since the previous row."""
    if ok is None:
        status = INCONCLUSIVE
    else:
        status = VERIFIED if ok else REFUTED
    if status == REFUTED and witness is None:
        witness = {"lhs": lhs, "rhs": rhs}
    return VerificationReport(claim_id, status, lhs=lhs, rhs=rhs, witness=witness,
                              elapsed_ms=clock.lap_ms() if clock else 0.0)


def encode_value(v: Any) -> Any:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, RationalInterval):
        return {"lo": encode_value(v.lo), "hi": encode_value(v.hi)}
    if isinstance(v, dict):
        return {k: encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    return v


def report_to_obj(r: VerificationReport) -> dict:
    return {
        "claim_id": r.claim_id,
        "anchor": r.anchor,
        "status": r.status,
        "lhs": encode_value(r.lhs),
        "rhs": encode_value(r.rhs),
        "witness": encode_value(r.witness),
        "elapsed_ms": round(r.elapsed_ms, 3),
    }


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([report_to_obj(r) for r in reports], indent=2)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["claim_id", "status", "elapsed_ms"])
    for r in reports:
        writer.writerow([r.claim_id, r.status, round(r.elapsed_ms, 3)])
    return buf.getvalue()


def exit_code(reports: list[VerificationReport]) -> int:
    """0 if nothing failed, 1 on any refutation, 2 on inconclusive."""
    if any(r.status == REFUTED for r in reports):
        return 1
    if any(r.status == INCONCLUSIVE for r in reports):
        return 2
    return 0
