"""Acceptance criteria, one test (or parametrized group) per criterion.

Each criterion prints one pass/fail line and then asserts.  To see the
lines, run the battery without output capture:

    python -m pytest tests/test_acceptance.py -v -s

Tolerances are exact: every comparison is rational against rational,
or an interval whose whole extent clears the threshold.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from ekrcross import bounds
from ekrcross.intervals import decide, exp_enclosure
from ekrcross.measure import WeightParams, mu, mu_threshold_closed
from ekrcross.search import (
    generate_shifted_pairs,
    iter_shifted_families,
    max_uniform_product,
    max_weight_product,
)
from ekrcross.seq import expected_H_size, make_H, verify_seq_theorem
from ekrcross.setfam import (
    Family,
    Subset,
    dual_t,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    make_threshold_family,
    make_uniform_counterexample,
    make_weight_counterexample,
    maximal_cross_partner,
    superset_family,
)
from ekrcross.suites import run_graphs, run_measure_oracle, run_walk_oracle
from ekrcross.walks import WalkClass, WalkTag, classify, make_probe_walk

from harness_lib import check_member_surplus_exhaustive, check_pair
from helpers import brute_force_uniform_max, brute_force_weight_max


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {verdict}" + (f" - {detail}" if detail else ""))


class TestCriterion1ScalarConstants:
    def test_scalar_constant_suite(self):
        t0 = time.perf_counter()
        checks = {}

        checks["g3*h1 < 0.87"] = (
            bounds.envelope_low(3, 14) * bounds.envelope_high(1, 14) < Fraction(87, 100)
        )
        checks["g2*1 < 0.96"] = bounds.envelope_low(2, 14) * 1 < Fraction(96, 100)
        checks["f(13,2)f(15,1) < 0.68"] = (
            bounds.envelope(13, 2, Fraction(1, 15)) * bounds.envelope(15, 1, Fraction(1, 15))
            < Fraction(68, 100)
        )
        checks["f(14,2)^2 < 0.46"] = (
            bounds.envelope(14, 2, Fraction(1, 15)) ** 2 < Fraction(46, 100)
        )
        checks["deep(7) < 0.999"] = (
            decide(lambda o: bounds.deep_pair_bound(7, o), Fraction(999, 1000), "<") is True
        )
        checks["low(13) < 1"] = bounds.low_side_bound(13) < 1
        checks["low_relaxed(14) < 1"] = (
            decide(lambda o: bounds.low_side_bound_relaxed(14, o), 1, "<") is True
        )
        checks["high(13) < 0.96"] = (
            decide(lambda o: bounds.high_side_bound(13, o), Fraction(96, 100), "<") is True
        )
        checks["e^(2+1/8)/9 < 1"] = (
            decide(
                lambda o: exp_enclosure(Fraction(17, 8), o) * Fraction(1, 9), 1, "<"
            )
            is True
        )
        checks["(1+1/14)^29/15 < 1/2"] = Fraction(15, 14) ** 29 / 15 < Fraction(1, 2)
        checks["cap(14,14,2) = 153/225"] = (
            bounds.uniform_envelope_cap(14, 14, 2) == Fraction(153, 225)
        )
        checks["cap(14,28,2) < 2.21"] = (
            bounds.uniform_envelope_cap(14, 28, 2) < Fraction(221, 100)
        )
        checks["cap(14,16,1) = 6/5"] = bounds.uniform_envelope_cap(14, 16, 1) == Fraction(6, 5)
        checks["gap(8,1) > 1.2"] = (
            decide(lambda o: bounds.extremal_gap(8, 1, o), Fraction(12, 10), ">") is True
        )
        checks["uniform side t=14 < 1"] = bounds.uniform_high_side_exact(14) < 1
        checks["uniform side t=15 < 1"] = bounds.uniform_high_side_exact(15) < 1
        checks["uniform side t=16 < 1"] = (
            decide(lambda o: bounds.uniform_high_side_relaxed(16, o), 1, "<") is True
        )
        checks["stability unit at t=14"] = bounds.stability_ratio(14, Fraction(1, 15)) == 1

        elapsed = time.perf_counter() - t0
        checks["runtime < 5 s"] = elapsed < 5.0
        bad = [name for name, ok in checks.items() if not ok]
        report("criterion-1 (scalar constants)",
               not bad, f"{len(checks)} checks, {elapsed:.2f}s")
        assert not bad, bad


class TestCriterion2FiniteCheck:
    def test_threshold_floor(self):
        floor_value = math.floor(bounds.low_side_threshold(14))
        report("criterion-2a (threshold floor)", floor_value == 1023,
               f"floor n0(14) = {floor_value}")
        assert floor_value == 1023

    @pytest.mark.parametrize("t", [14, 15, 16, 17, 18])
    def test_sweep(self, t):
        t0 = time.perf_counter()
        r = bounds.verify_low_side_finite(t)
        elapsed = time.perf_counter() - t0
        ok = r.status == "verified"
        report(f"criterion-2b (finite sweep t={t})", ok,
               f"{r.witness['cells']} cells, max ratio at {r.witness['argmax']}, "
               f"{elapsed:.2f}s")
        assert ok, r
        if t == 14:
            assert r.witness["cells"] == 22495
        assert elapsed < 300


class TestCriterion3WalkOracle:
    def test_counts_match_enumeration(self):
        t0 = time.perf_counter()
        rows = run_walk_oracle(max_steps=12)
        ok = all(r.status == "verified" for r in rows)
        cells = rows[0].witness["cells"]
        report("criterion-3 (walk-count oracle)", ok,
               f"{cells} cells / {2 * cells} closed-form comparisons, "
               f"{time.perf_counter() - t0:.2f}s")
        assert ok
        # every admissible endpoint/line cell within 12 steps
        assert cells == 95
        assert rows[0].witness["mismatches"] == []


class TestCriterion4MeasureOracle:
    def test_closed_forms_match_enumeration(self):
        t0 = time.perf_counter()
        rows = run_measure_oracle(n_max=12, t_max=4, i_max=2)
        bad = [r.claim_id for r in rows if r.status != "verified"]
        report("criterion-4 (measure oracle)", not bad,
               f"{sum(r.witness.get('combos', 0) for r in rows if r.witness)} combos, "
               f"{time.perf_counter() - t0:.2f}s")
        assert not bad, bad

    def test_star_weight_is_power(self):
        # closed star weight touches every n, not only the window
        for n in (8, 12):
            assert mu_threshold_closed(n, 2, 0, Fraction(1, 5)) == Fraction(1, 5) ** 2


class TestCriterion5UniformSearch:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3)])
    def test_pyber_instances(self, n, k):
        t = 1
        t0 = time.perf_counter()
        r = max_uniform_product(n, k, t)
        target = math.comb(n - t, k - t) ** 2
        value_ok = r.max_product == target and r.exhaustive
        agree_ok = True
        if math.comb(n, k) <= 16:
            agree_ok = brute_force_uniform_max(n, k, t) == r.max_product
        stars = [superset_family(n, (i,), k) for i in range(1, n + 1)]

        def is_star_pair(pair):
            return pair[0] == pair[1] and pair[0] in stars

        non_star = [w for w in r.witnesses if not is_star_pair(w)]
        # The paper proves the star pair is the unique extremal pair only
        # for n > (t+1)(k-t+1), i.e. n > 2k at t = 1 (there it is also the
        # Matsumoto-Tokushige theorem); that branch asserts uniqueness.
        # The boundary n = 2k lies outside that range.  There two k-sets
        # are disjoint exactly when they are complements, so the extremal
        # pairs are all A of size C(n-1, k-1) with B = {S : [n]\S not in A},
        # the star pairs among them; that branch asserts this structure.
        unique_range = n > (t + 1) * (k - t + 1)
        if unique_range:
            structure_ok = r.witness_classes == ("F0",)
            offender = non_star[0] if non_star else None
        else:
            star_ok = (
                is_cross_t_intersecting(stars[0], stars[0], t)
                and len(stars[0]) ** 2 == r.max_product
            )
            layer = superset_family(n, (), k)
            half = math.comb(n - 1, k - 1)

            def is_complement_split(pair):
                a, b = pair
                partner = Family.of(
                    n, (s for s in layer if s.complement() not in a), k
                )
                return len(a) == len(b) == half and b == partner

            offender = next(
                (w for w in r.witnesses if not is_complement_split(w)), None
            )
            structure_ok = star_ok and offender is None and bool(non_star)
        ok = value_ok and agree_ok and structure_ok
        report(
            f"criterion-5 (uniform search ({n},{k}))", ok,
            f"max={r.max_product}, classes={r.witness_classes}, "
            f"count={r.witness_count}, {time.perf_counter() - t0:.2f}s",
        )
        assert value_ok, (r.max_product, target)
        assert agree_ok
        if unique_range:
            assert r.witness_classes == ("F0",), (
                f"extremal witnesses beyond star pairs at ({n},{k}): "
                f"classes={r.witness_classes}, e.g. {offender}"
            )
        else:
            assert star_ok, f"star pair {stars[0]} does not attain {r.max_product}"
            assert offender is None, (
                f"extremal witness at ({n},{k}) is not a complement-split "
                f"pair: A={offender[0]}, B={offender[1]}"
            )
            assert non_star, (
                f"only star pairs among {len(r.witnesses)} witnesses at ({n},{k})"
            )


class TestCriterion6WeightSearch:
    @pytest.mark.parametrize(
        "n,t,p",
        [(3, 1, Fraction(1, 3)), (4, 1, Fraction(1, 3)), (4, 2, Fraction(1, 4))],
    )
    def test_weighted_instances(self, n, t, p):
        t0 = time.perf_counter()
        r = max_weight_product(n, t, p)
        ok = (
            r.max_product == p ** (2 * t)
            and r.exhaustive
            and r.witness_classes == ("F0",)
        )
        report(
            f"criterion-6 (weight search ({n},{t},p={p}))", ok,
            f"max={r.max_product}, classes={r.witness_classes}, "
            f"{time.perf_counter() - t0:.2f}s",
        )
        assert r.max_product == p ** (2 * t)
        assert r.exhaustive
        assert r.witness_classes == ("F0",)
        if n <= 4:
            assert brute_force_weight_max(n, t, p) == r.max_product


class TestCriterion7LemmaHarness:
    def test_exhaustive_member_surplus(self):
        t0 = time.perf_counter()
        bad = []
        for n in (4, 5, 6):
            for t in (1, 2, 3):
                bad += check_member_surplus_exhaustive(n, t)
        report("criterion-7a (exhaustive prefix surplus)", not bad,
               f"n <= 6, t <= 3, {time.perf_counter() - t0:.1f}s")
        assert bad == []

    def test_exhaustive_small_pairs(self):
        t0 = time.perf_counter()
        violations = []
        checked = 0
        for n, t in ((4, 1), (4, 2), (5, 2)):
            fams = [
                f for f in iter_shifted_families(n, inclusion_maximal=True) if f.masks
            ]
            partners = [set(maximal_cross_partner(f, t, None).masks) for f in fams]
            for i, a in enumerate(fams):
                for b in fams:
                    if set(b.masks) <= partners[i]:
                        violations += check_pair(a, b, t, None)
                        checked += 1
        for n, k, t in ((5, 2, 1), (6, 3, 2), (6, 2, 2)):
            fams = [f for f in iter_shifted_families(n, k=k) if f.masks]
            partners = [set(maximal_cross_partner(f, t, k).masks) for f in fams]
            for i, a in enumerate(fams):
                for b in fams:
                    if set(b.masks) <= partners[i]:
                        violations += check_pair(a, b, t, k)
                        checked += 1
        report("criterion-7b (exhaustive pair battery)", not violations,
               f"{checked} pairs, {time.perf_counter() - t0:.1f}s")
        assert violations == []
        assert checked > 1000

    def test_generated_pairs(self):
        t0 = time.perf_counter()
        configs = (
            (5, None, 1), (5, None, 2), (6, None, 1), (6, None, 2),
            (6, 3, 1), (6, 3, 2), (6, 2, 1), (5, 2, 1),
        )
        violations = []
        total = 0
        for idx, (n, k, t) in enumerate(configs):
            for a, b in generate_shifted_pairs(n, k, t, 80, seed=100 + idx):
                violations += check_pair(a, b, t, k)
                total += 1
        report("criterion-7c (generated pair battery)", not violations and total >= 500,
               f"{total} pairs, {time.perf_counter() - t0:.1f}s")
        assert violations == []
        assert total >= 500


class TestCriterion8Constructions:
    def test_uniform_counterexample(self):
        a = make_uniform_counterexample(8, 3, 1)
        shifted = is_shifted(a)
        intersecting = is_cross_t_intersecting(a, a, 1)
        in_no_star = all(
            not set(a.masks) <= set(superset_family(8, [x], 3).masks)
            for x in range(1, 9)
        )
        ok = shifted and intersecting and in_no_star
        report("criterion-8a (uniform counterexample)", ok,
               f"size={len(a)}, shifted={shifted}, no-star-cover={in_no_star}")
        assert ok

    def test_weight_counterexample(self):
        n, t, p = 6, 2, Fraction(1, 5)
        g = make_weight_counterexample(n, t)
        q = 1 - p
        weight_ok = mu(g, WeightParams(n, p)) == p**t - p**t * q ** (n - t) + t * p ** (
            n - 1
        ) * q
        structural = is_shifted(g) and is_inclusion_maximal(g) and is_cross_t_intersecting(g, g, t)
        star = make_threshold_family(n, t, 0)
        diff_ok = len(set(g.masks) ^ set(star.masks)) == t + 1
        ok = weight_ok and structural and diff_ok
        report("criterion-8b (weight counterexample)", ok,
               f"sym-diff={t + 1}, exact-weight={weight_ok}")
        assert ok

    def test_probe_walk_grid(self):
        bad = []
        for n in (10, 12, 14):
            for t in (3, 4, 5):
                for i in (1, 2, 3):
                    if classify(make_probe_walk("low", n, t, i), t - 1) != WalkClass(
                        WalkTag.TOUCH_ONCE, 1
                    ):
                        bad.append(("low", n, t, i))
                    if classify(make_probe_walk("high", n, t, i), t + 1) != WalkClass(
                        WalkTag.TOUCH_ONCE, 0
                    ):
                        bad.append(("high", n, t, i))
                    for s in (0, 1):
                        if i > n - t - 2 * s - 1:
                            continue
                        if classify(
                            make_probe_walk("diag", n, t, i, s=s), t
                        ) != WalkClass(WalkTag.TOUCH_ONCE, s):
                            bad.append(("diag", n, t, s, i))
        # last-index identities and the dual of the final diagonal walk
        for n, t, s in ((10, 3, 0), (10, 3, 1), (12, 4, 1)):
            i_max = n - t - 2 * s - 1
            d = make_probe_walk("diag", n, t, i_max, s=s)
            if set(d.members) != set(range(1, t)) | {t + s, t + 2 * s}:
                bad.append(("diag-last", n, t, s))
            if dual_t(d, t) != Subset.of(n, set(range(1, n + 1)) - {t + s, t + 2 * s}):
                bad.append(("diag-dual", n, t, s))
        report("criterion-8c (probe walk grid)", not bad, f"violations={bad}")
        assert bad == []


class TestCriterion9Graphs:
    def test_graph_facts(self):
        t0 = time.perf_counter()
        rows = run_graphs(n_max=9, seed=0, pairs=20)
        bad = [r.claim_id for r in rows if r.status != "verified"]
        kneser_count = rows[0].witness["instances"]
        report("criterion-9 (graph facts)", not bad,
               f"{kneser_count} disjointness graphs, 20 product pairs, "
               f"{time.perf_counter() - t0:.2f}s")
        assert not bad, bad


class TestCriterion10Sequences:
    def test_cylinder_sizes(self):
        bad = []
        for m in (2, 3, 4):
            for t in (1, 2, 3):
                for i in (0, 1, 2):
                    w = t + 2 * i
                    for n in range(w, 7):
                        if m**n > 10**6:
                            continue
                        h = make_H(n, m, t, i)
                        if len(h) != expected_H_size(n, m, t, i):
                            bad.append((n, m, t, i))
                        if i == 0 and len(h) != m ** (n - t):
                            bad.append((n, m, t, i, "star"))
        report("criterion-10a (cylinder sizes)", not bad, f"violations={bad}")
        assert bad == []

    @pytest.mark.parametrize("n,m,t", [(2, 2, 1), (2, 3, 1), (3, 2, 1)])
    def test_sequence_maxima(self, n, m, t):
        r = verify_seq_theorem(n, m, t)
        ok = r.max_product == (m ** (n - t)) ** 2 and r.exhaustive
        report(f"criterion-10b (sequence search ({n},{m},{t}))", ok,
               f"max={r.max_product}, classes={r.witness_classes}")
        assert ok
