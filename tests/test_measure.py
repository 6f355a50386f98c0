"""Exact product weights: closed forms against power-set enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ekrcross.measure import (
    WeightParams,
    hit_probability_exact,
    hit_probability_limit,
    lift_family,
    mu,
    mu_threshold_closed,
)
from ekrcross import suites
from ekrcross.report import REFUTED
from ekrcross.search import max_weight_product
from ekrcross.suites import _size_counts, _weigh
from ekrcross.setfam import (
    Family,
    GroundSetMismatch,
    Subset,
    make_threshold_family,
    shift_ij,
)
from ekrcross.walks import WalkTag, classify

from helpers import (NUMERATOR_PS, families, fraction_hit_probability, fraction_weight, hits_line,
                     small_ps)


def full_power_set(n):
    return Family(n, tuple(range(1 << n)), None)


class TestMu:
    def test_normalization(self):
        for n in (3, 8, 12):
            params = WeightParams(n, Fraction(1, 3))
            assert mu(full_power_set(n), params) == 1

    def test_normalization_large_ground(self):
        params = WeightParams(16, Fraction(1, 5))
        assert mu(full_power_set(16), params) == 1

    def test_empty_family(self):
        assert mu(Family.empty(5), WeightParams(5, Fraction(1, 4))) == 0

    def test_single_subset(self):
        p = Fraction(2, 7)
        s = Subset.of(6, [1, 4, 5])
        assert mu(s, WeightParams(6, p)) == p**3 * (1 - p) ** 3

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatch, match="ground-set mismatch"):
            mu(Subset.of(5, [1]), WeightParams(6, Fraction(1, 3)))

    def test_p_validation(self):
        with pytest.raises(ValueError):
            WeightParams(4, Fraction(1, 1))
        with pytest.raises(ValueError):
            WeightParams(4, Fraction(0, 1))

    @given(families(max_n=7), small_ps(), st.integers(1, 6), st.integers(2, 7))
    @settings(max_examples=80)
    def test_shift_invariance(self, f, p, i, j):
        if not i < j <= f.n:
            return
        params = WeightParams(f.n, p)
        assert mu(shift_ij(f, (i, j)), params) == mu(f, params)

    def test_shift_invariance_exhaustive_singletons(self):
        n, p = 5, Fraction(1, 4)
        params = WeightParams(n, p)
        for m in range(1 << n):
            f = Family(n, (m,), None)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert mu(shift_ij(f, (i, j)), params) == mu(f, params)


class TestClosedForms:
    def test_star_weight(self):
        n, t, p = 8, 2, Fraction(1, 5)
        fam = make_threshold_family(n, t, 0)
        assert mu(fam, WeightParams(n, p)) == p**t
        assert mu_threshold_closed(n, t, 0, p) == p**t

    def test_window_one_closed_form(self):
        n, t, p = 7, 2, Fraction(1, 4)
        q = 1 - p
        fam = make_threshold_family(n, t, 1)
        expected = (t + 2) * p ** (t + 1) * q + p ** (t + 2)
        assert mu(fam, WeightParams(n, p)) == expected
        assert mu_threshold_closed(n, t, 1, p) == expected

    def test_enumeration_grid(self):
        for t in (1, 2, 3):
            for i in (0, 1, 2):
                if t + 2 * i > 9:
                    continue
                for n in (t + 2 * i, 9):
                    fam = make_threshold_family(n, t, i)
                    for p in (Fraction(1, 3), Fraction(1, 15)):
                        assert mu(fam, WeightParams(n, p)) == mu_threshold_closed(
                            n, t, i, p
                        )

    def test_critical_p_tie(self):
        # at p = 1/(t+1) the star and window-1 families weigh the same
        t, n = 3, 9
        p = Fraction(1, t + 1)
        assert mu_threshold_closed(n, t, 0, p) == mu_threshold_closed(n, t, 1, p)
        for p_small in (Fraction(1, 5), Fraction(1, 6)):
            assert mu_threshold_closed(n, t, 0, p_small) > mu_threshold_closed(
                n, t, 1, p_small
            )

    def test_range_errors(self):
        with pytest.raises(ValueError):
            mu_threshold_closed(4, 2, 2, Fraction(1, 3))


class TestProbabilityRange:
    @pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(1), Fraction(0), Fraction(-1, 3), 2])
    def test_p_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            mu_threshold_closed(5, 2, 0, p)
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            hit_probability_exact(5, 2, p)
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            hit_probability_limit(2, p)


def _sizes(n, masks):
    counts = [0] * (n + 1)
    for m in masks:
        counts[m.bit_count()] += 1
    return counts


def _random_families(n, rng, count=6):
    for _ in range(count):
        yield Family(n, tuple(sorted(rng.sample(range(1 << n), rng.randint(0, min(40, 1 << n))))),
                     None)


class TestIntegerNumerators:
    """The integer-numerator sums against term-by-term Fraction sums, at
    p = a/b with a > 1 as well as a = 1."""

    @pytest.mark.parametrize("p", NUMERATOR_PS)
    def test_mu(self, p):
        rng = random.Random(17)
        for n in range(1, 13):
            params = WeightParams(n, p)
            for s in range(n + 1):
                assert mu(Subset(n, (1 << s) - 1), params) == p**s * (1 - p) ** (n - s)
            for fam in (*_random_families(n, rng), full_power_set(n)):
                assert mu(fam, params) == fraction_weight(_sizes(n, fam.masks), n, p)

    @pytest.mark.parametrize("p", NUMERATOR_PS)
    def test_mu_threshold_closed(self, p):
        for t in range(1, 5):
            for i in range(0, 3):
                w = t + 2 * i
                for n in range(w, 13):
                    window = (1 << w) - 1
                    members = (m for m in range(1 << n) if (m & window).bit_count() >= t + i)
                    assert mu_threshold_closed(n, t, i, p) == fraction_weight(
                        _sizes(n, members), n, p)

    @pytest.mark.parametrize("p", NUMERATOR_PS)
    def test_hit_probability_exact(self, p):
        for t in range(1, 5):
            for n in range(0, t + 21):
                assert hit_probability_exact(n, t, p) == fraction_hit_probability(n, t, p)
        for t in range(1, 4):
            for n in range(1, 11):
                members = (m for m in range(1 << n) if hits_line(Subset(n, m), t))
                assert hit_probability_exact(n, t, p) == fraction_weight(_sizes(n, members), n, p)

    @pytest.mark.parametrize("p", NUMERATOR_PS)
    def test_hit_probability_limit(self, p):
        for t in range(1, 6):
            assert hit_probability_limit(t, p) == (p / (1 - p)) ** t

    @pytest.mark.parametrize("p", NUMERATOR_PS)
    def test_oracle_weigh(self, p):
        rng = random.Random(5)
        for n in range(0, 13):
            for _ in range(8):
                counts = [rng.choice((0, rng.randint(1, 1 << n))) for _ in range(n + 1)]
                assert _weigh(counts, n, p) == fraction_weight(counts, n, p)

    def test_oracle_size_counts_tests_every_mask(self):
        # One sweep tests each mask below 2^9 once and gives every n <= 9.
        n_max, tested = 9, []
        rows = _size_counts(n_max, lambda m: tested.append(m) or m % 3 == 0)
        assert sorted(tested) == list(range(1 << n_max))
        assert rows == [_sizes(n, range(0, 1 << n, 3)) for n in range(n_max + 1)]


class TestPointEvents:
    def test_touch_beside_origin(self):
        n, t, p = 8, 2, Fraction(1, 5)
        q = 1 - p
        params = WeightParams(n, p)
        head = (1 << t) - 1
        window = (1 << (t + 1)) - 1
        members = [
            m
            for m in range(1 << n)
            if (m & window).bit_count() == t and (m & head) != head
        ]
        assert mu(Family(n, tuple(members), None), params) == t * p**t * q


class TestHitProbability:
    def test_minimal_length(self):
        for t, p in ((2, Fraction(1, 4)), (3, Fraction(1, 5))):
            assert hit_probability_exact(t, t, p) == p**t

    def test_strictly_inside_the_limit(self):
        t, p = 2, Fraction(1, 4)
        limit = hit_probability_limit(t, p)
        assert limit == Fraction(1, 9)
        v10 = hit_probability_exact(10, t, p)
        v9 = hit_probability_exact(9, t, p)
        assert v9 < v10 < limit

    def test_monotone_bounded_sweep(self):
        for t, p in ((2, Fraction(1, 4)), (3, Fraction(1, 5))):
            limit = hit_probability_limit(t, p)
            prev = Fraction(0)
            for n in range(t, t + 21):
                cur = hit_probability_exact(n, t, p)
                assert prev <= cur <= limit
                prev = cur

    @pytest.mark.parametrize("cell, value", [
        ({"t": 3, "p": Fraction(1, 5), "n": 7}, Fraction(0)),  # below its value at n - 1
        ({"t": 2, "p": Fraction(1, 4), "n": 9}, Fraction(1)),  # above the limit 1/9
    ])
    def test_oracle_row_names_its_first_failing_cell(self, monkeypatch, cell, value):
        exact = suites.hit_probability_exact
        monkeypatch.setattr(suites, "hit_probability_exact", lambda n, t, p: value
                            if {"t": t, "p": p, "n": n} == cell else exact(n, t, p))
        row = suites.run_measure_oracle(n_max=3, t_max=1, i_max=0)[-1]
        assert (row.claim_id, row.status, row.witness) == ("hit-limit-monotone", REFUTED, cell)

    def test_matches_enumeration(self):
        n, t, p = 9, 2, Fraction(1, 3)
        params = WeightParams(n, p)
        members = [m for m in range(1 << n) if hits_line(Subset(n, m), t)]
        assert hit_probability_exact(n, t, p) == mu(Family(n, tuple(members), None), params)


class TestLineWeightBounds:
    def test_hitting_family_below_alpha_power(self):
        # the full family of line hitters is the heaviest, so the bound
        # for all subfamilies follows from this single comparison
        for n in (4, 5, 8):
            for t in (1, 2, 3):
                for p in (Fraction(1, 4), Fraction(1, 3)):
                    params = WeightParams(n, p)
                    alpha = params.alpha
                    members = [m for m in range(1 << n) if hits_line(Subset(n, m), t)]
                    assert mu(Family(n, tuple(members), None), params) <= alpha**t

    def test_double_touch_family_below_next_power(self):
        for n in (6, 8):
            for t in (1, 2):
                p = Fraction(1, 4)
                params = WeightParams(n, p)
                members = [
                    m
                    for m in range(1 << n)
                    if classify(Subset(n, m), t).tag is WalkTag.TOUCH_MANY
                ]
                assert mu(Family(n, tuple(members), None), params) <= params.alpha ** (
                    t + 1
                )


class TestLiftAndMonotone:
    def test_lift_preserves_weight(self):
        f = Family.of(4, [[1, 2], [3]])
        p = Fraction(1, 3)
        assert mu(lift_family(f), WeightParams(5, p)) == mu(f, WeightParams(4, p))

    @given(families(max_n=6), small_ps())
    @settings(max_examples=60)
    def test_lift_preserves_weight_random(self, f, p):
        assert mu(lift_family(f), WeightParams(f.n + 1, p)) == mu(
            f, WeightParams(f.n, p)
        )

    # the best cross-t weight product cannot drop when the ground set grows
    def test_product_monotone_small(self):
        n, t, p = 3, 1, Fraction(1, 3)
        best_n = max_weight_product(n, t, p).max_product
        assert best_n <= max_weight_product(n + 1, t, p).max_product

    def test_product_monotone_t2(self):
        n, t, p = 4, 2, Fraction(1, 4)
        best_n = max_weight_product(n, t, p).max_product
        assert best_n <= max_weight_product(n + 1, t, p).max_product
