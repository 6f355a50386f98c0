"""Interval arithmetic, scalar bound functions, and the claim verifiers."""

import math
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ekrcross import bounds, report
from ekrcross.intervals import _ORDERS, RationalInterval, decide, e_enclosure, exp_enclosure
from ekrcross.report import (
    INCONCLUSIVE,
    REFUTED,
    SKIPPED,
    VERIFIED,
    VerificationReport,
    anchor_for,
    exit_code,
    report_to_obj,
    reports_to_csv,
    reports_to_json,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


class TestIntervals:
    @given(rationals, rationals, rationals, rationals)
    def test_arithmetic_soundness(self, a, b, c, d):
        x = RationalInterval(min(a, b), max(a, b))
        y = RationalInterval(min(c, d), max(c, d))
        for op in ("__add__", "__sub__", "__mul__"):
            combined = getattr(x, op)(y)
            for xx in (x.lo, x.hi):
                for yy in (y.lo, y.hi):
                    assert combined.contains(getattr(xx, op)(yy))
        prod = x * y
        assert (prod.lo, prod.hi) == self._four_products(x, y)

    @given(rationals, rationals)
    def test_power(self, a, b):
        x = RationalInterval(min(a, b), max(a, b))
        sq = x**2
        assert sq.contains(x.lo**2) and sq.contains(x.hi**2)
        assert sq.lo >= 0
        cube = x**3
        assert cube.contains(x.lo**3) and cube.contains(x.hi**3)

    @staticmethod
    def _four_products(x, y):
        prods = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
        return min(prods), max(prods)

    @pytest.mark.parametrize("x, y", [
        ((-3, 2), (5, 7)), ((5, 7), (-3, 2)), ((-3, -1), (-2, 4)), ((-3, -1), (2, 4)),
        ((0, 2), (-1, 3)), ((-2, 0), (1, 3)), ((0, 0), (-5, 5)), ((0, 3), (0, 4)),
        ((Fraction(1, 3),) * 2, (-2, 1)), ((Fraction(-1, 3),) * 2, (2, 5)),
        ((Fraction(2, 7),) * 2, (Fraction(3, 5),) * 2), ((1, 2), (Fraction(3, 4), 6)),
    ])
    def test_product_is_the_four_product_hull(self, x, y):
        # Exact equality, not containment: a loose fast path must fail here.
        x, y = RationalInterval(*x), RationalInterval(*y)
        for a, b in ((x, y), (y, x)):
            prod = a * b
            assert (prod.lo, prod.hi) == self._four_products(a, b)
            assert type(prod.lo) is Fraction and type(prod.hi) is Fraction

    def test_integer_endpoints_become_fractions(self):
        iv = RationalInterval(1, 2) * 3
        assert (iv.lo, iv.hi) == (3, 6)
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction

    @pytest.mark.parametrize("c", [0.1, -0.1, 1e-17])
    def test_float_operand_is_read_exactly(self, c):
        # 1 + 0.1 in float arithmetic is not 1 + Fraction(0.1); the scalar
        # path must make the float an exact point before any arithmetic.
        x, exact = RationalInterval(1, 3), Fraction(c)
        assert Fraction(1 + c) != 1 + exact
        for got, want in ((x + c, (1 + exact, 3 + exact)), (c + x, (1 + exact, 3 + exact)),
                          (x - c, (1 - exact, 3 - exact)), (c - x, (exact - 3, exact - 1)),
                          (x * c, tuple(sorted((exact, 3 * exact)))),
                          (c * x, tuple(sorted((exact, 3 * exact))))):
            assert (got.lo, got.hi) == want
            assert type(got.lo) is Fraction and type(got.hi) is Fraction

    @pytest.mark.parametrize("c", [-2, Fraction(-1, 3)])
    def test_negative_factor_swaps_the_endpoints(self, c):
        x = RationalInterval(Fraction(1, 2), 3)
        for prod in (x * c, c * x):
            assert (prod.lo, prod.hi) == (3 * c, c / 2)

    # every sign case of an interval, and scalars of each sign and type
    SIGNED = [(-3, -1), (-3, 0), (-2, 5), (0, 0), (0, 4), (Fraction(1, 3), 7),
              (Fraction(-5, 2), Fraction(-5, 2))]
    SCALARS = [-3, 0, 4, Fraction(-2, 7), Fraction(5, 3)]

    @pytest.mark.parametrize("x", SIGNED)
    def test_scalar_operands_match_the_point_interval_route(self, x):
        x = RationalInterval(*x)
        for c in self.SCALARS:
            point = RationalInterval.point(c)
            for got, want in ((x + c, x + point), (c + x, point + x), (x * c, x * point),
                              (c * x, point * x), (x - c, x + (-point)),
                              (c - x, point + (-x))):
                assert (got.lo, got.hi) == (want.lo, want.hi)
                assert type(got.lo) is Fraction and type(got.hi) is Fraction

    @pytest.mark.parametrize("x", SIGNED)
    @pytest.mark.parametrize("y", SIGNED)
    def test_difference_is_the_sum_with_the_negation(self, x, y):
        x, y = RationalInterval(*x), RationalInterval(*y)
        diff = x - y
        assert (diff.lo, diff.hi) == ((x + (-y)).lo, (x + (-y)).hi)
        assert type(diff.lo) is Fraction and type(diff.hi) is Fraction

    def test_division(self):
        x = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        y = 1 / x
        assert y.lo == 2 and y.hi == 3
        with pytest.raises(ZeroDivisionError):
            1 / RationalInterval(Fraction(-1), Fraction(1))

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(2), Fraction(1))


def _reference_exp_enclosure(x, terms=24):
    """exp_enclosure as a loop of Fraction operations, the form it had
    before the series moved to integer arithmetic."""
    x = Fraction(x)
    if x == 0:
        return Fraction(1), Fraction(1)
    if x < 0:
        lo, hi = _reference_exp_enclosure(-x, terms)
        return 1 / hi, 1 / lo
    n = max(terms, math.ceil(x) + 2)
    if n > 64:
        n = 64
        if x >= n + 1:
            raise ValueError(f"exponent {x} too large for a 64-term enclosure")
    partial = Fraction(0)
    term = Fraction(1)
    for k in range(1, n + 1):
        partial += term
        term = term * x / k
    ratio = x / (n + 1)
    assert ratio < 1
    return partial, partial + term / (1 - ratio)


EXP_ARGUMENTS = [Fraction(1), Fraction(1, 2), Fraction(8, 7), Fraction(29, 14), Fraction(17, 8),
                 Fraction(201, 100), Fraction(10), Fraction(63), Fraction(129, 2),
                 Fraction(-1), Fraction(-11, 7), Fraction(-26, 7), Fraction(-112, 99),
                 Fraction(-40), Fraction(1, 10**6), Fraction(-10**6 + 1, 10**6)]


class TestExpEnclosure:
    @pytest.mark.parametrize("x", EXP_ARGUMENTS)
    @pytest.mark.parametrize("terms", [1, 2, 5, 12, 24, 48, 64])
    def test_matches_the_fraction_loop(self, x, terms):
        # Terms below ceil(x) + 2 are raised to it; 64 is the cap.
        iv = exp_enclosure(x, terms)
        assert (iv.lo, iv.hi) == _reference_exp_enclosure(x, terms)

    @pytest.mark.parametrize("x", [Fraction(65), Fraction(131, 2), Fraction(-70), 100])
    def test_term_cap(self, x):
        with pytest.raises(ValueError, match="too large for a 64-term enclosure"):
            _reference_exp_enclosure(x)
        with pytest.raises(ValueError, match="too large for a 64-term enclosure"):
            exp_enclosure(x)

    def test_point_values(self):
        assert exp_enclosure(0).lo == exp_enclosure(0).hi == 1

    @pytest.mark.parametrize("order", [*_ORDERS, 30])
    def test_e_is_built_once_per_order(self, order):
        assert e_enclosure(order) == exp_enclosure(1, order)
        assert e_enclosure(order) is e_enclosure(order)

    def test_float_containment(self):
        for x in (Fraction(1), Fraction(17, 8), Fraction(-11, 7), Fraction(5, 2)):
            iv = exp_enclosure(x, 24)
            assert iv.lo <= Fraction(math.exp(x)).limit_denominator(10**12) <= iv.hi \
                or iv.width < Fraction(1, 10**9)
            assert float(iv.lo) <= math.exp(float(x)) * (1 + 1e-12)
            assert float(iv.hi) >= math.exp(float(x)) * (1 - 1e-12)

    def test_nesting_and_width_decay(self):
        for x in (Fraction(1), Fraction(-3, 2), Fraction(9, 4)):
            prev = exp_enclosure(x, 8)
            for order in (12, 24, 48, 64):
                cur = exp_enclosure(x, order)
                assert prev.encloses(cur)
                assert cur.width <= prev.width
                prev = cur

    def test_reciprocal_identity(self):
        x = Fraction(7, 5)
        product = exp_enclosure(x, 24) * exp_enclosure(-x, 24)
        assert product.contains(1)

    def test_decide(self):
        assert decide(lambda o: e_enclosure(o), Fraction(27, 10), ">") is True
        assert decide(lambda o: e_enclosure(o), Fraction(27, 10), "<") is False
        wide = RationalInterval(Fraction(0), Fraction(10))
        assert decide(lambda o: wide, Fraction(5), "<") is None
        with pytest.raises(ValueError):
            decide(lambda o: wide, 1, "<=")


class TestEnvelope:
    def test_formula_components(self):
        # r = 1, i = 0: p/q^2 + (1 - p/q)
        p = Fraction(1, 4)
        q = 1 - p
        assert bounds.envelope(1, 0, p) == p / q**2 + (1 - p / q)

    def test_headline_products(self):
        assert bounds.envelope_low(3, 14) * bounds.envelope_high(1, 14) < Fraction(87, 100)
        assert bounds.envelope_low(2, 14) < Fraction(96, 100)
        f1 = bounds.envelope(13, 2, Fraction(1, 15))
        f2 = bounds.envelope(15, 1, Fraction(1, 15))
        assert f1 * f2 < Fraction(68, 100)
        assert bounds.envelope(14, 2, Fraction(1, 15)) ** 2 < Fraction(46, 100)

    def test_products_are_tight(self):
        # margins are thin: the 0.87 threshold is within 0.3 percent
        val = bounds.envelope_low(3, 14) * bounds.envelope_high(1, 14)
        assert val > Fraction(86, 100)

    def test_verifier_all_green(self):
        for r in bounds.verify_envelope_products():
            assert r.status == VERIFIED, r
        for r in bounds.verify_envelope_monotonicity(range(14, 18), range(0, 6)):
            assert r.status == VERIFIED, r

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.envelope(0, 1, Fraction(1, 4))
        with pytest.raises(ValueError):
            bounds.envelope(3, 1, Fraction(1, 2))


class TestCaseBounds:
    def test_deep_pair_threshold(self):
        iv = bounds.deep_pair_bound(7, 32)
        assert iv.strictly_below(Fraction(999, 1000))
        assert iv.strictly_above(Fraction(99, 100))   # genuinely close to 1

    def test_low_side_values(self):
        assert bounds.low_side_bound(13) < 1
        assert bounds.low_side_bound(14) < 1
        assert bounds.low_side_bound_relaxed(14, 32).strictly_below(1)

    def test_high_side_value(self):
        assert bounds.high_side_bound(13, 32).strictly_below(Fraction(96, 100))

    def test_shape_suite_green(self):
        for r in bounds.verify_side_bound_shapes(60):
            assert r.status == VERIFIED, r

    def test_prefactors_green(self):
        for r in bounds.verify_prefactors(60):
            assert r.status == VERIFIED, r

    def test_prefactor_margin_is_thin(self):
        # 2p/q^(2t+1) at t = 14 sits barely below 1: exactness matters
        t = 14
        p = Fraction(1, t + 1)
        val = 2 * p / (1 - p) ** (2 * t + 1)
        assert Fraction(98, 100) < val < 1

    def test_extremal_gap_values(self):
        assert bounds.extremal_gap(8, 1, 32).strictly_above(Fraction(12, 10))
        statuses = {r.claim_id: r.status for r in bounds.verify_extremal_gap(40, 6)}
        assert statuses["extremal-gap-f81"] == VERIFIED
        assert statuses["extremal-gap-grid"] == VERIFIED
        assert statuses["extremal-gap-boundary"] == SKIPPED
        assert statuses["extremal-gap-ratio-chain"] == VERIFIED

    def test_gap_cell_matches_the_gap(self):
        # The positive-exponent cell test gives the gap's own verdict, on
        # cells that hold and on cells that fail (i = 0 at t = 8, say).
        cells = [(t, i) for t in range(3, 41) for i in range(0, 11)]
        verdicts = {cell: bounds.gap_exceeds_one(*cell) for cell in cells}
        assert verdicts == {(t, i): decide(lambda o: bounds.extremal_gap(t, i, o), 1, ">")
                            for t, i in cells}
        assert verdicts[8, 0] is False and verdicts[8, 1] is True
        assert set(verdicts.values()) == {True, False}


class TestUniformEnvelope:
    def test_cap_constants(self):
        assert bounds.uniform_envelope_cap(14, 14, 2) == Fraction(153, 225)
        assert bounds.uniform_envelope_cap(14, 28, 2) == Fraction(496, 225)
        assert bounds.uniform_envelope_cap(14, 28, 2) < Fraction(221, 100)
        assert bounds.uniform_envelope_cap(14, 16, 1) == Fraction(6, 5)

    def test_bounds_are_binomial_ratios(self):
        # the parameter-free caps bound the exact ratios
        # C(u+2s, s) C(n-u-2s, k-u-s) / C(n-u, k-u) at (u, s) = (13, 2), (15, 1)
        n, k, t = 240, 16, 14
        a2 = Fraction(math.comb(17, 2) * math.comb(n - 17, k - 15), math.comb(n - 13, k - 13))
        b2 = Fraction(math.comb(17, 1) * math.comb(n - 17, k - 16), math.comb(n - 15, k - 15))
        assert a2 < bounds.uniform_envelope_cap(t, 13, 2)
        assert b2 < bounds.uniform_envelope_cap(t, 15, 1)

    def test_cap_verifier(self):
        statuses = {r.claim_id: r.status for r in bounds.verify_uniform_envelope_caps()}
        assert all(s == VERIFIED for s in statuses.values()), statuses
        # the decoupled reading exceeds 0.89 but stays below 1
        combo = Fraction(38, 1000) + Fraction(195, 1000) * Fraction(6, 5) \
            + Fraction(68, 100) * Fraction(224, 1000) + Fraction(47, 100)
        assert Fraction(89, 100) < combo < 1

    def test_uniform_side_bounds_green(self):
        for r in bounds.verify_uniform_side_bounds(40):
            assert r.status == VERIFIED, r
        assert bounds.uniform_high_side_exact(14) < 1
        assert bounds.uniform_high_side_exact(15) < 1
        # the relaxed form is genuinely too weak at t = 14
        assert bounds.uniform_high_side_relaxed(14, 32).strictly_above(1)


def _outcomes(reports):
    return {r.claim_id: (r.status, r.witness) for r in reports}


class TestSweepFailures:
    """A range claim that fails names its first failing cell, and an
    enclosure too wide to order leaves it inconclusive, not refuted."""

    def test_undecided_trend_is_inconclusive(self, monkeypatch):
        bound = bounds.high_side_bound
        wide = RationalInterval(Fraction(0), Fraction(2))
        monkeypatch.setattr(bounds, "high_side_bound",
                            lambda t, order=24: wide if t == 30 else bound(t, order))
        rows = _outcomes(bounds.verify_side_bound_shapes(60))
        assert rows["high-side-trend"] == (INCONCLUSIVE, {"t": 29})

    def test_refuted_prefactor_names_its_t(self, monkeypatch):
        enclosure = bounds.exp_enclosure
        monkeypatch.setattr(bounds, "exp_enclosure", lambda x, terms=24: enclosure(x, terms)
                            * (10 if x == Fraction(61, 30) else 1))
        rows = _outcomes(bounds.verify_prefactors(60))
        assert rows["prefactor-exp-over-t"] == (REFUTED, {"t": 30})
        assert rows["prefactor-exp-half"] == (REFUTED, {"t": 30})

    def test_low_side_p_mono_names_its_first_failing_t(self, monkeypatch):
        increasing = bounds._grid_increasing
        cap_14 = Fraction(14 * 13 * 43, 15**3)
        monkeypatch.setattr(bounds, "_grid_increasing",
                            lambda vals: 3 if vals[-1] == cap_14 else increasing(vals))
        rows = _outcomes(bounds.verify_side_bound_shapes(20))
        assert rows["low-side-p-mono"] == (REFUTED, {"t": 14})
        assert rows["high-side-p-mono"] == (VERIFIED, {"grid_step": "1/1000", "bad_index": None})

    def test_binomial_half_names_its_first_failing_sample(self, monkeypatch):
        comb = bounds._comb
        # t = 15, k = 2t: n = 480 and k - t = 15.
        monkeypatch.setattr(bounds, "_comb",
                            lambda n, r: comb(n, r) * (10 if (n, r) == (480, 15) else 1))
        rows = _outcomes(bounds.verify_prefactors(60))
        assert rows["prefactor-binomial-half"] == (REFUTED, {"t": 15, "k": 30, "n": 480})

    @pytest.mark.parametrize("outcome, status", [(None, INCONCLUSIVE), (False, REFUTED)])
    def test_e_cap_names_its_first_failing_cap(self, monkeypatch, outcome, status):
        real = bounds.decide
        monkeypatch.setattr(bounds, "decide", lambda build, rhs, relation: outcome
                            if rhs == Fraction(38, 1000) else real(build, rhs, relation))
        rows = _outcomes(bounds.verify_uniform_envelope_caps())
        assert rows["uniform-envelope-s2-combo-components"] == (
            status, {"e_caps": {"cap": "e^2/196 < 0.038"}, "squares": True})

    def test_trend_builds_each_value_once(self):
        # Enclosures of 1/t narrow with the order, so some cells need a
        # second order; each (t, order) is still built once.
        calls = []

        def f(t, order):
            calls.append((t, order))
            return RationalInterval(Fraction(1, t) - Fraction(1, order**3),
                                    Fraction(1, t) + Fraction(1, order**3))

        assert bounds._decreasing(f, 14, 40) == {"ok": True, "witness": {"t_range": [14, 40]}}
        assert len(calls) == len(set(calls)) and {o for _, o in calls} == {12, 24}

    def test_trend_names_its_first_failing_t(self):
        def f(t, order):
            return RationalInterval.point(Fraction(1, t) + (1 if t in (23, 30) else 0))

        def per_cell(f, first, t_max):
            # f(t) and f(t+1) both built afresh in every cell.
            return report.sweep(({"t": t} for t in range(first, t_max)),
                                lambda t: decide(lambda o: f(t, o) - f(t + 1, o), 0, ">"),
                                {"t_range": [first, t_max]})

        assert bounds._decreasing(f, 14, 40) == per_cell(f, 14, 40) == {
            "ok": False, "witness": {"t": 22}}

    def test_envelopes_are_built_once(self, monkeypatch):
        calls = []
        for name in ("envelope_low", "envelope_high"):
            def counted(s, t, fn=getattr(bounds, name), name=name):
                calls.append((name, s, t))
                return fn(s, t)
            monkeypatch.setattr(bounds, name, counted)
        rows = bounds.verify_envelope_monotonicity(range(14, 21), range(0, 11))
        assert all(r.status == VERIFIED for r in rows)
        assert len(calls) == len(set(calls)) == 7 * 12 + 7 * 11

    def test_envelope_rows_keep_their_own_witness(self, monkeypatch):
        low = bounds.envelope_low
        monkeypatch.setattr(bounds, "envelope_low",
                            lambda s, t: low(s, t) * (10 if (t, s) == (15, 3) else 1))
        rows = _outcomes(bounds.verify_envelope_monotonicity(range(14, 21), range(0, 11)))
        grid = {"t": [14, 20], "s": [0, 10]}
        assert rows == {
            "envelope-mono-low": (REFUTED, {"t": 15, "s": 2}),
            "envelope-mono-high": (VERIFIED, grid),
            "envelope-mono-poly": (VERIFIED, grid),
        }


def _reference_sweep_chunk(t, ks):
    """finite_sweep_chunk with every binomial from math.comb, cell by cell."""
    def comb(n, r):
        return math.comb(n, r) if 0 <= r <= n else 0

    n_max = math.floor(bounds.low_side_threshold(t))
    best_num, best_den, best_cell, cells, failures = 0, 1, None, 0, []
    for k in ks:
        r = k - t
        for n in range((t + 1) * k, n_max + 1):
            bracket = (comb(n, r) + t * (comb(n - t - 1, r) - comb(n - t - 1, r - 1))
                       - (t - 1) * (comb(n - t - 3, r) - comb(n - t - 3, r - 1)))
            lhs, rhs = bracket * comb(n, r - 1), comb(n - t, r) ** 2
            cells += 1
            if lhs >= rhs:
                failures.append((k, n))
            if lhs * best_den > best_num * rhs:
                best_num, best_den, best_cell = lhs, rhs, (k, n)
    return {"t": t, "cells": cells, "failures": failures, "max_num": best_num,
            "max_den": best_den, "argmax": best_cell}


class TestFiniteSweep:
    @pytest.mark.parametrize("t", list(bounds.FINITE_T_RANGE))
    def test_chunk_matches_per_cell_binomials(self, t):
        ks = bounds.finite_sweep_ks(t)
        assert ks[0] == t
        assert bounds.finite_sweep_chunk(t, ks) == _reference_sweep_chunk(t, ks)

    @pytest.mark.parametrize("t, ks", [
        (14, [14]), (14, [14, 15]), (15, [15, 21]), (16, [16, 17, 18]), (18, [18, 20]),
        (14, [30]), (17, [17]), (14, [20, 14]),
        # Outside the sweep: r = k - t < 0, columns that start at zero, empty ranges.
        (14, [0, 1, 2, 13]), (14, [69, 70, 100]),
    ])
    def test_narrowed_chunk_matches_per_cell_binomials(self, t, ks):
        assert bounds.finite_sweep_chunk(t, ks) == _reference_sweep_chunk(t, ks)

    @pytest.mark.parametrize("t", list(bounds.FINITE_T_RANGE))
    @given(ks=st.lists(st.integers(0, 80), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_random_chunk_matches_per_cell_binomials(self, t, ks):
        # k < t gives r < 0; from about k = n_max / (t+1) on the range is empty.
        assert bounds.finite_sweep_chunk(t, ks) == _reference_sweep_chunk(t, ks)

    @pytest.mark.parametrize("m, j", [(0, 0), (5, 0), (5, -1), (7, 3), (2, 6), (-3, 2), (-4, -2)])
    def test_binomial_column(self, m, j):
        # Columns that start at zero (j < 0, or m < j) included.
        column = bounds._binomials_from(m, j)
        assert [next(column) for _ in range(12)] == [
            math.comb(mm, j) if 0 <= j <= mm else 0 for mm in range(m, m + 12)]

    def test_threshold_floor(self):
        assert math.floor(bounds.low_side_threshold(14)) == 1023
        r = bounds.verify_threshold_floor(14)
        assert r.status == VERIFIED and r.lhs == 1023

    @pytest.mark.parametrize("t", list(bounds.FINITE_T_RANGE))
    def test_threshold_floor_is_checked(self, t, monkeypatch):
        r = bounds.verify_threshold_floor(t)
        assert r.status == VERIFIED
        assert r.lhs == math.floor(bounds.low_side_threshold(t))
        assert r.witness == {"closes_at_n": r.lhs + 1}
        # a floor one too high must be caught at every t, not only at 14
        threshold = bounds.low_side_threshold
        monkeypatch.setattr(bounds, "low_side_threshold", lambda u: threshold(u) + 1)
        assert bounds.verify_threshold_floor(t).status == REFUTED

    def test_thresholds_decrease(self):
        floors = [math.floor(bounds.low_side_threshold(t)) for t in range(14, 19)]
        assert floors == sorted(floors, reverse=True)

    def test_single_k_slice(self):
        chunk = bounds.finite_sweep_chunk(14, [20])
        assert chunk["failures"] == []
        assert chunk["cells"] == 1023 - 15 * 20 + 1

    def test_merge(self):
        c1 = bounds.finite_sweep_chunk(14, [14])
        c2 = bounds.finite_sweep_chunk(14, [15])
        merged = bounds.merge_finite_chunks([c1, c2])
        assert merged["cells"] == c1["cells"] + c2["cells"]
        both = bounds.finite_sweep_chunk(14, [14, 15])
        assert (merged["max_num"], merged["max_den"]) == (
            both["max_num"],
            both["max_den"],
        )

    def test_t_range_guard(self):
        with pytest.raises(ValueError):
            bounds.verify_low_side_finite(13)

    def test_full_t18(self):
        r = bounds.verify_low_side_finite(18)
        assert r.status == VERIFIED
        assert r.witness["cells"] == 60


class TestStability:
    def test_unit_at_critical_p(self):
        t = 14
        val = bounds.stability_ratio(t, Fraction(1, t + 1))
        assert val == 1

    def test_increasing_samples(self):
        t = 14
        a = bounds.stability_ratio(t, Fraction(1, 30))
        b = bounds.stability_ratio(t, Fraction(1, 20))
        c = bounds.stability_ratio(t, Fraction(1, 15))
        assert a < b < c == 1

    def test_uniform_ratio_from_binomials(self):
        # ratio counts checked against direct construction at small scale
        n, k, t = 10, 4, 2
        from ekrcross.setfam import make_threshold_family_uniform

        f0 = make_threshold_family_uniform(n, k, t, 0)
        f1 = make_threshold_family_uniform(n, k, t, 1)
        assert bounds.uniform_size_ratio(n, k, t) == Fraction(len(f1), len(f0))

    def test_verifier(self):
        for r in bounds.verify_stability(14, 225, 15):
            assert r.status == VERIFIED, r


class TestReports:
    def test_refuted_needs_witness(self):
        with pytest.raises(ValueError):
            VerificationReport("x", REFUTED)
        VerificationReport("x", REFUTED, witness={"t": 1})

    def test_anchor_lookup(self):
        assert "n0(t)" in anchor_for("finite-sweep[t=14]")

    def test_serialization(self):
        reports = [
            VerificationReport("finite-sweep[t=14]", VERIFIED, lhs=Fraction(1, 3)),
            VerificationReport("x", SKIPPED, rhs=RationalInterval(Fraction(0), Fraction(1))),
        ]
        obj = report_to_obj(reports[0])
        assert obj["lhs"] == "1/3"
        text = reports_to_json(reports)
        assert '"claim_id": "finite-sweep[t=14]"' in text
        csv_text = reports_to_csv(reports)
        assert csv_text.splitlines()[0] == "claim_id,status,elapsed_ms"

    def test_exit_codes(self):
        ok = [VerificationReport("a", VERIFIED)]
        assert exit_code(ok) == 0
        assert exit_code(ok + [VerificationReport("b", "inconclusive")]) == 2
        assert exit_code(ok + [VerificationReport("c", REFUTED, witness={})]) == 1


class TestFullSuite:
    def test_deep_pair_sweep_runs_once(self, monkeypatch):
        calls = []
        sweep = bounds.deep_pair_sweep

        def counted(t_max):
            calls.append(t_max)
            return sweep(t_max)

        separate = bounds.verify_side_bound_shapes(20) + bounds.verify_uniform_side_bounds(20)
        monkeypatch.setattr(bounds, "deep_pair_sweep", counted)
        suite = bounds.run_bounds_suite(20)
        assert calls == [20]
        for claim_id in ("deep-pair-sweep", "uniform-deep-sweep"):
            rows = [report_to_obj(r) for rows in (separate, suite) for r in rows
                    if r.claim_id == claim_id]
            for row in rows:
                del row["elapsed_ms"]
            assert len(rows) == 2 and rows[0] == rows[1], claim_id

    def test_deep_sweep_is_timed_in_its_row(self, monkeypatch):
        # A sweep that takes a second on a fake clock shows in its own row.
        offset = [0.0]
        sweep, clock = bounds.deep_pair_sweep, time.perf_counter

        def slow(t_max):
            offset[0] += 1.0
            return sweep(t_max)

        monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: clock() + offset[0]))
        monkeypatch.setattr(bounds, "deep_pair_sweep", slow)
        rows = {r.claim_id: r.elapsed_ms for r in bounds.run_bounds_suite(20)}
        assert offset[0] == 1.0
        assert rows["deep-pair-sweep"] >= 1000 > rows["uniform-deep-sweep"]

    def test_run_bounds_suite_green_and_fast(self):
        import time

        t0 = time.perf_counter()
        reports = bounds.run_bounds_suite(100)
        elapsed = time.perf_counter() - t0
        bad = [r for r in reports if r.status not in (VERIFIED, SKIPPED)]
        assert not bad, bad
        assert elapsed < 5.0
        assert len(reports) > 30
