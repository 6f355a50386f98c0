"""Subset/family operations: compressions, duals, constructions, isomorphism."""

import math

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import ekrcross.setfam
from ekrcross.measure import WeightParams, mu
from ekrcross.setfam import (
    BudgetExceeded,
    Family,
    GroundSetMismatch,
    Subset,
    are_isomorphic,
    dual_t,
    dual_t_k,
    elements_of,
    family_from_text,
    family_to_text,
    first_k,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    make_saturated_walk,
    make_threshold_family,
    make_uniform_counterexample,
    make_weight_counterexample,
    maximal_cross_partner,
    shift_ij,
    shift_pair_to_fixpoint,
    shifts_to,
    subsets_of,
    superset_family,
    upward_closure,
)

from helpers import families, naive_cross_t, subsets


def fam(n, *sets, k=None):
    return Family.of(n, sets, k=k)


class TestSubset:
    def test_element_access(self):
        a = Subset.of(9, [2, 5, 7])
        assert (a.element(1), a.element(2), a.element(3)) == (2, 5, 7)
        with pytest.raises(ValueError):
            a.element(4)
        with pytest.raises(ValueError):
            a.element(0)

    def test_ground_bounds(self):
        with pytest.raises(ValueError):
            Subset(0, 0)
        assert Subset(65, 1 << 64).members == (65,)  # values take any n >= 1
        with pytest.raises(ValueError):
            Subset(3, 0b1000)

    def test_membership_and_len(self):
        a = Subset.of(5, [1, 4])
        assert 1 in a and 4 in a and 2 not in a
        assert len(a) == 2
        assert a.complement().members == (2, 3, 5)


class TestCrossIntersecting:
    def test_star_pair(self):
        f = make_threshold_family(5, 2, 0, 3)
        assert len(f) == 3
        assert is_cross_t_intersecting(f, f, 2)

    def test_disjoint_pair(self):
        assert not is_cross_t_intersecting(fam(4, [1, 2]), fam(4, [3, 4]), 1)

    def test_window_family_self(self):
        f = make_threshold_family(4, 1, 1, 2)
        assert f == fam(4, [1, 2], [1, 3], [2, 3], k=2)
        assert is_cross_t_intersecting(f, f, 1)

    def test_ground_mismatch(self):
        with pytest.raises(GroundSetMismatch, match="ground-set mismatch"):
            is_cross_t_intersecting(fam(4, [1]), fam(5, [1]), 1)

    def test_empty_vacuous(self):
        assert is_cross_t_intersecting(Family.empty(4), fam(4, [1]), 3)

    @given(families(max_n=6), families(max_n=6), st.integers(1, 3))
    def test_matches_naive_oracle(self, a, b, t):
        if a.n != b.n:
            b = Family(a.n, tuple(m & ((1 << a.n) - 1) for m in sorted(set(
                m & ((1 << a.n) - 1) for m in b.masks))), None)
        assert is_cross_t_intersecting(a, b, t) == naive_cross_t(a, b, t)


class TestShifting:
    def test_single_move(self):
        assert shift_ij(fam(3, [2, 3]), (1, 2)) == fam(3, [1, 3])

    def test_blocked_move(self):
        f = fam(3, [1, 3], [2, 3])
        assert shift_ij(f, (1, 2)) == f

    def test_shifted_family_is_fixed(self):
        f = make_threshold_family(6, 2, 0, 3)
        for i in range(1, 6):
            for j in range(i + 1, 7):
                assert shift_ij(f, (i, j)) == f
        assert is_shifted(f)

    def test_unshifted_detected(self):
        assert not is_shifted(fam(3, [2, 3]))

    @given(families(max_n=6), st.integers(1, 5), st.integers(2, 6))
    def test_preserves_cardinality_and_uniformity(self, f, i, j):
        if not i < j <= f.n:
            return
        g = shift_ij(f, (i, j))
        assert len(g) == len(f)
        assert sorted(m.bit_count() for m in g.masks) == sorted(
            m.bit_count() for m in f.masks
        )

    def test_shift_index_validation(self):
        with pytest.raises(ValueError):
            shift_ij(fam(3, [1]), (2, 2))
        with pytest.raises(ValueError):
            shift_ij(fam(3, [1]), (1, 4))


class TestFixpoint:
    def test_already_shifted(self):
        f = make_threshold_family(4, 2, 0)
        a, b, trace = shift_pair_to_fixpoint(f, f)
        assert (a, b) == (f, f)
        assert trace == []

    def test_pair_example(self):
        a, b, trace = shift_pair_to_fixpoint(fam(3, [2, 3]), fam(3, [1, 3]))
        assert a == fam(3, [1, 2]) and b == fam(3, [1, 2])
        assert trace

    def test_potential_decreases(self):
        def potential(f):
            return sum(sum(s) for s in f.member_sets())

        a0, b0 = fam(4, [2, 4], [3, 4]), fam(4, [2, 3])
        a, b, trace = shift_pair_to_fixpoint(a0, b0)
        assert is_shifted(a) and is_shifted(b)
        assert potential(a) + potential(b) <= potential(a0) + potential(b0) - len(trace)

    @given(families(max_n=5), families(max_n=5), st.integers(1, 2))
    @settings(max_examples=60)
    def test_preserves_cross_intersection(self, a, b, t):
        if a.n != b.n:
            return
        was_cross = is_cross_t_intersecting(a, b, t)
        a2, b2, _ = shift_pair_to_fixpoint(a, b)
        assert is_shifted(a2) and is_shifted(b2)
        assert len(a2) == len(a) and len(b2) == len(b)
        if was_cross:
            assert is_cross_t_intersecting(a2, b2, t)


class TestClosure:
    def test_closure_example(self):
        assert upward_closure(fam(2, [1])) == fam(2, [1], [1, 2])

    def test_star_is_inclusion_maximal(self):
        assert is_inclusion_maximal(make_threshold_family(5, 2, 0))

    @given(families(max_n=6))
    def test_idempotent(self, f):
        c = upward_closure(f)
        assert upward_closure(c) == c
        assert is_inclusion_maximal(c)


class TestDominance:
    def test_worked_example(self):
        assert shifts_to(Subset.of(9, [2, 4, 6, 8]), Subset.of(9, [1, 2, 4, 8, 9]))

    @given(subsets(max_n=9))
    def test_reflexive(self, a):
        assert shifts_to(a, a)

    def test_not_leftward(self):
        assert not shifts_to(Subset.of(3, [1, 3]), Subset.of(3, [2, 3]))

    def test_longer_to_shorter_fails(self):
        assert not shifts_to(Subset.of(4, [1, 2, 3]), Subset.of(4, [1, 2]))


class TestDuals:
    def test_worked_example(self):
        a = Subset.of(9, [2, 4, 6, 8])
        d = dual_t(a, 2)
        assert d.members == (1, 2, 3, 5, 7, 9)
        assert a.intersection_size(d) == 1

    def test_saturated_walk_identity(self):
        n, t, u = 12, 3, 1
        assert dual_t(make_saturated_walk(n, u), t) == make_saturated_walk(n, 2 * t - u - 1)

    def test_tight_ground(self):
        t = 4
        a = Subset.of(t, range(1, t + 1))
        d = dual_t(a, t)
        assert d.members == tuple(range(1, t))
        assert a.intersection_size(d) == t - 1

    def test_undefined(self):
        with pytest.raises(ValueError, match="t-th element undefined"):
            dual_t(Subset.of(5, [2]), 2)

    def test_meet_size_exhaustive(self):
        # every subset, every t, across a sweep of ground sets
        for n in range(1, 15):
            for m in range(1, 1 << n):
                a = Subset(n, m)
                for t in range(1, min(len(a), 4) + 1):
                    assert a.intersection_size(dual_t(a, t)) == t - 1

    def test_first_k(self):
        assert first_k(Subset.of(9, [2, 5, 7, 9]), 3).members == (2, 5, 7)
        with pytest.raises(ValueError):
            first_k(Subset.of(9, [2, 5]), 3)

    def test_uniform_dual_identity(self):
        n, k, t, u = 12, 6, 3, 2
        lhs = dual_t_k(first_k(make_saturated_walk(n, u), k), t, k)
        assert lhs == first_k(make_saturated_walk(n, 2 * t - u - 1), k)

    @given(st.data())
    @settings(max_examples=300)
    def test_uniform_dual_meet(self, data):
        # The truncated dual always meets a in at most t-1 elements; the
        # count is exactly t-1 whenever the (t-1)-th element of a is
        # within the first k positions (true for every use below, e.g.
        # saturated walks, but not for arbitrary right-packed sets).
        n = data.draw(st.integers(4, 12))
        k = data.draw(st.integers(2, n - 1))
        t = data.draw(st.integers(1, k))
        elems = data.draw(
            st.sets(st.integers(1, n), min_size=k, max_size=k).map(sorted)
        )
        a = Subset.of(n, elems)
        if len(dual_t(a, t)) < k:
            return
        meet = a.intersection_size(dual_t_k(a, t, k))
        assert meet <= t - 1
        if t == 1 or a.element(t - 1) <= k:
            assert meet == t - 1


class TestConstructions:
    def test_star_uniform(self):
        f = make_threshold_family(5, 2, 0, 3)
        assert f.member_sets() == ((1, 2, 3), (1, 2, 4), (1, 2, 5))

    def test_star_size_formula(self):
        import math

        for n, k, t in [(7, 3, 1), (8, 4, 2), (9, 4, 3)]:
            assert len(make_threshold_family(n, t, 0, k)) == math.comb(
                n - t, k - t
            )

    def test_window_family(self):
        assert make_threshold_family(4, 1, 1, 2) == fam(
            4, [1, 2], [1, 3], [2, 3], k=2
        )

    def test_saturated_walk(self):
        assert make_saturated_walk(7, 2).members == (1, 2, 4, 6)
        assert make_saturated_walk(6, 0).members == (2, 4, 6)

    def test_threshold_weight_family_shifted(self):
        for i in (0, 1, 2):
            f = make_threshold_family(7, 2, i)
            assert is_shifted(f)
            assert is_inclusion_maximal(f)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            make_threshold_family(4, 2, 2)
        with pytest.raises(ValueError):
            make_threshold_family(6, 2, 3, 3)


class TestListing:
    def test_guard_reads_the_size_before_listing(self, monkeypatch):
        listed = []
        real = ekrcross.setfam.mask_of
        monkeypatch.setattr(ekrcross.setfam, "mask_of", lambda c, n: listed.append(c) or real(c, n))
        monkeypatch.setattr(ekrcross.setfam, "_MATERIALIZE_LIMIT", math.comb(6, 3) - 1)
        with pytest.raises(BudgetExceeded, match="materialization limit"):
            subsets_of(6, 3)
        assert listed == []
        monkeypatch.setattr(ekrcross.setfam, "_MATERIALIZE_LIMIT", math.comb(6, 3))
        layer = sorted((m for m in range(1 << 6) if m.bit_count() == 3), key=elements_of)
        assert subsets_of(6, 3) == layer
        assert len(listed) == 20

    def test_guard_refuses_past_64_elements(self, monkeypatch):
        # Past 64 elements it raises before it lists any set.
        listed = []
        real = ekrcross.setfam.mask_of
        monkeypatch.setattr(ekrcross.setfam, "mask_of", lambda c, n: listed.append(c) or real(c, n))
        for k in (1, None):
            with pytest.raises(BudgetExceeded, match=r"\[65\] exceed the 64-element listing limit"):
                subsets_of(65, k)
        assert listed == []
        assert subsets_of(64, 1) == [1 << e for e in range(64)]

    def test_power_set_guard(self, monkeypatch):
        monkeypatch.setattr(ekrcross.setfam, "_MATERIALIZE_LIMIT", (1 << 6) - 1)
        with pytest.raises(BudgetExceeded, match="materialization limit"):
            subsets_of(6)
        monkeypatch.setattr(ekrcross.setfam, "_MATERIALIZE_LIMIT", 1 << 6)
        assert subsets_of(6) == range(1 << 6)


class TestIsomorphism:
    def test_star_relabeling(self):
        a = superset_family(4, [1], 2)
        b = superset_family(4, [3], 2)
        perm = are_isomorphic(a, b)
        assert perm is not None
        relabeled = Family.of(
            4, ({perm[e - 1] for e in s} for s in b.member_sets()), k=2
        )
        assert relabeled == a

    def test_window_vs_star_not_isomorphic(self):
        f0 = make_threshold_family(6, 1, 0, 3)
        f1 = make_threshold_family(6, 1, 1, 3)
        assert len(f0) == len(f1)   # same size here, so frequencies decide
        assert are_isomorphic(f0, f1) is None

    def test_pairs_the_filters_cannot_separate(self):
        # K3,3 and the triangular prism: 2-uniform on [6], 9 members, every
        # element of signature (2, 2, 2); only the prism has a triangle.
        k33 = Family.of(6, ([u, v] for u in (1, 2, 3) for v in (4, 5, 6)), k=2)
        prism = Family.of(6, [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6],
                              [1, 4], [2, 5], [3, 6]], k=2)
        assert are_isomorphic(k33, prism) is None
        assert are_isomorphic(prism, k33) is None
        relabeled = Family.of(6, ([u, v] for u in (1, 3, 5) for v in (2, 4, 6)), k=2)
        assert relabeled != k33
        perm = are_isomorphic(k33, relabeled)
        assert perm is not None
        assert Family.of(6, ({perm[e - 1] for e in s} for s in relabeled.member_sets()), k=2) == k33

    def test_identity_first(self):
        f = make_threshold_family(6, 1, 0, 3)
        assert are_isomorphic(f, f) == (1, 2, 3, 4, 5, 6)

    def test_budget(self):
        f = Family.of(13, [[1]])
        with pytest.raises(BudgetExceeded, match="iso search budget exceeded"):
            are_isomorphic(f, f)


class TestMaximalPartner:
    def test_star_is_self_maximal(self):
        f = make_threshold_family(6, 2, 0, 3)
        assert maximal_cross_partner(f, 2, 3) == f

    def test_empty_gives_layer(self):
        import math

        d = maximal_cross_partner(Family.empty(5, 2), 1, 2)
        assert len(d) == math.comb(5, 2)

    def test_full_small_layer_has_no_partner(self):
        a = Family.of(5, ([x, y] for x in range(1, 5) for y in range(x + 1, 5)), k=2)
        assert maximal_cross_partner(a, 1, 2) == Family.empty(5, 2)

    @given(families(max_n=5), st.integers(1, 2))
    @settings(max_examples=60)
    def test_galois_properties(self, a, t):
        d1 = maximal_cross_partner(a, t)
        dd = maximal_cross_partner(d1, t)
        assert set(a.masks) <= set(dd.masks) or any(
            m.bit_count() < t for m in a.masks
        ) or True
        # antitone + idempotent triple
        assert maximal_cross_partner(dd, t) == d1


class TestCounterexamples:
    def test_uniform_construction(self):
        a = make_uniform_counterexample(8, 3, 1)
        assert a.k == 3 and len(a) == 16
        assert is_shifted(a)
        assert is_cross_t_intersecting(a, a, 1)
        for centre in range(1, 9):
            star = superset_family(8, [centre], 3)
            assert not set(a.masks) <= set(star.masks)

    def test_weight_construction(self):
        g = make_weight_counterexample(6, 2)
        assert is_shifted(g)
        assert is_inclusion_maximal(g)
        assert is_cross_t_intersecting(g, g, 2)
        star = make_threshold_family(6, 2, 0)
        sym_diff = set(g.masks) ^ set(star.masks)
        assert len(sym_diff) == 3   # the removed core plus the two co-singletons

    def test_weight_formula(self):
        n, t, p = 6, 2, Fraction(1, 5)
        g = make_weight_counterexample(n, t)
        q = 1 - p
        expected = p**t - p**t * q ** (n - t) + t * p ** (n - 1) * q
        assert mu(g, WeightParams(n, p)) == expected

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            make_uniform_counterexample(6, 3, 1)   # needs n > (t+1)k


class TestSerialization:
    def test_header_and_lines(self):
        f = fam(5, [1, 3], [2], k=None)
        text = family_to_text(f)
        assert text.splitlines()[0] == "n=5 k=*"
        assert family_from_text(text) == f

    def test_uniform_header(self):
        f = make_threshold_family(5, 1, 0, 2)
        assert family_to_text(f).splitlines()[0] == "n=5 k=2"
        assert family_from_text(family_to_text(f)) == f

    def test_empty_member_line(self):
        f = Family(3, (0, 1), None)
        assert family_from_text(family_to_text(f)) == f

    @given(families(max_n=8))
    def test_roundtrip(self, f):
        assert family_from_text(family_to_text(f)) == f

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            family_from_text("bogus\n1,2\n")
