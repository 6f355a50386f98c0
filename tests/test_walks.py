"""Walk classification, counting oracles, reflection, probe walks."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ekrcross import suites
from ekrcross.setfam import (
    Family,
    Subset,
    dual_t,
    first_k,
    make_saturated_walk,
    make_threshold_family_uniform,
    shifts_to,
)
from ekrcross.walks import (
    StructureViolation,
    WalkClass,
    WalkTag,
    classify,
    count_hit,
    count_miss,
    enumerate_walks,
    hit_count,
    hits_line,
    lambda_family,
    lambda_set,
    make_probe_walk,
    prefix_heights,
    reflect_after_first_touch,
    structure_indices,
)

from helpers import subsets


def naive_classify(f: Subset, u: int) -> WalkClass:
    """Definitional recomputation: simulate the walk point by point."""
    x = y = 0
    points = [(0, 0)]
    for step in range(1, f.n + 1):
        if step in f:
            y += 1
        else:
            x += 1
        points.append((x, y))
    if any(py == px + u + 1 for px, py in points):
        return WalkClass(WalkTag.CROSSES)
    touches = [(px, py) for px, py in points if py == px + u]
    if not touches:
        return WalkClass(WalkTag.BELOW)
    tag = WalkTag.TOUCH_ONCE if len(touches) == 1 else WalkTag.TOUCH_MANY
    return WalkClass(tag, touches[0][0])


class TestLineStatistics:
    def test_lambda_example(self):
        assert lambda_set(Subset.of(5, [1, 2, 4])) == 2
        assert prefix_heights(Subset.of(5, [1, 2, 4])) == [0, 1, 2, 1, 2, 1]

    def test_head_prefix(self):
        t = 3
        f = Subset.of(8, range(1, t + 1))
        assert hits_line(f, t)
        assert lambda_set(f) >= t

    def test_saturated_walk_is_extremal(self):
        for n in (6, 7, 8, 9):
            for u in (1, 2, 3):
                w = make_saturated_walk(n, u)
                if (n - u) % 2 == 0:
                    assert hit_count(w, u) >= 2
                assert not hits_line(w, u + 1)

    def test_saturated_walk_dominates(self):
        # anything staying below level u+1 shifts to the saturated walk
        n, u = 8, 2
        target = make_saturated_walk(n, u)
        for m in range(1 << n):
            f = Subset(n, m)
            if not hits_line(f, u + 1):
                assert shifts_to(f, target)

    def test_lambda_family(self):
        fam = make_threshold_family_uniform(8, 4, 2, 0)
        assert lambda_family(fam) == 2
        with pytest.raises(ValueError, match="λ undefined"):
            lambda_family(Family.empty(4))

    def test_u_zero_rejected(self):
        with pytest.raises(ValueError):
            classify(Subset.of(3, [1]), 0)
        with pytest.raises(ValueError):
            hits_line(Subset.of(3, [1]), 0)


class TestClassify:
    def test_head_walk(self):
        t = 4
        f = Subset.of(t + 1, range(1, t + 1))
        assert classify(f, t) == WalkClass(WalkTag.TOUCH_ONCE, 0)

    def test_crossing_walk(self):
        u = 2
        f = Subset.of(5, [1, 2, 3])
        assert classify(f, u) == WalkClass(WalkTag.CROSSES)

    def test_partition_property(self):
        for n in (6, 10, 12):
            for u in (1, 2, 4):
                tags = [classify(Subset(n, m), u).tag for m in range(1 << n)]
                assert len(tags) == 1 << n   # exactly one class per walk

    def test_matches_definitional_recompute(self):
        for n in (5, 8, 10):
            for u in (1, 2, 3, 4):
                for m in range(1 << n):
                    f = Subset(n, m)
                    assert classify(f, u) == naive_classify(f, u)

    @given(subsets(max_n=12), st.integers(1, 4))
    @settings(max_examples=150)
    def test_matches_definitional_recompute_random(self, f, u):
        assert classify(f, u) == naive_classify(f, u)

    def test_touch_classes_stay_below(self):
        n, u = 10, 2
        for m in range(1 << n):
            f = Subset(n, m)
            cls = classify(f, u)
            if cls.tag in (WalkTag.TOUCH_ONCE, WalkTag.TOUCH_MANY):
                heights = prefix_heights(f)
                assert all(h <= u for h in heights)
                assert heights[u + 2 * cls.s_index] == u

    def test_walkclass_validation(self):
        with pytest.raises(ValueError):
            WalkClass(WalkTag.CROSSES, 1)
        with pytest.raises(ValueError):
            WalkClass(WalkTag.TOUCH_ONCE, None)


class TestCountOracles:
    def test_worked_cell(self):
        assert count_hit(2, 3, 2) == 5
        hitters = []
        enumerate_walks(
            2, 3, lambda f: hitters.append(f.members) if hits_line(f, 2) else None
        )
        assert hitters == [
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4),
        ]

    def test_second_cell(self):
        assert count_hit(3, 3, 1) == 15

    def test_complementarity(self):
        import math

        for x0, y0, c in [(2, 3, 2), (3, 3, 1), (4, 5, 3), (5, 6, 2)]:
            assert count_hit(x0, y0, c) + count_miss(x0, y0, c) == math.comb(
                x0 + y0, x0
            )

    def test_range_rejections(self):
        with pytest.raises(ValueError):
            count_hit(2, 3, 3)   # c = y0
        with pytest.raises(ValueError):
            count_hit(1, 5, 2)   # y0 >= x0 + c
        with pytest.raises(ValueError):
            count_miss(2, 3, 0)

    def test_enumeration_matches_closed_forms(self):
        cells = 0
        for total in range(2, 11):
            for y0 in range(1, total):
                x0 = total - y0
                for c in range(1, y0):
                    if not y0 < x0 + c:
                        continue
                    assert count_hit(x0, y0, c) == enumerate_walks(
                        x0, y0, lambda f, c=c: hits_line(f, c)
                    )
                    assert count_miss(x0, y0, c) == enumerate_walks(
                        x0, y0, lambda f, c=c: not hits_line(f, c)
                    )
                    cells += 1
        assert cells >= 50

    def test_enumeration_budget(self):
        with pytest.raises(ValueError):
            enumerate_walks(20, 10, lambda f: True)

    def test_oracle_enumerates_each_cell_once(self, monkeypatch):
        cells = []

        def recorded(x0, y0, predicate):
            cells.append((x0, y0))
            return enumerate_walks(x0, y0, predicate)

        monkeypatch.setattr(suites, "enumerate_walks", recorded)
        [row] = suites.run_walk_oracle()
        assert row.status == "verified"
        assert len(cells) == row.witness["cells"] == 95

    @pytest.mark.parametrize("closed_form", ["count_hit", "count_miss"])
    def test_oracle_counts_both_sides(self, monkeypatch, closed_form):
        # Each closed form is compared with its own enumerated count, so
        # one that is off by one on either side is refuted.
        exact = getattr(suites, closed_form)
        monkeypatch.setattr(suites, closed_form, lambda x0, y0, c: exact(x0, y0, c) + (c == 2))
        [row] = suites.run_walk_oracle()
        assert row.status == "refuted"
        assert row.witness["mismatches"] and all(c == 2 for _, _, c in row.witness["mismatches"])


class TestReflection:
    def test_example(self):
        f = Subset.of(6, [1, 3])
        r = reflect_after_first_touch(f, 1)
        assert hits_line(r, 2)
        assert len(r) == len(f)

    def test_saturated_restriction(self):
        f = make_saturated_walk(6, 2)
        r = reflect_after_first_touch(f, 2)
        assert hits_line(r, 3)

    def test_injective_on_domain(self):
        n, c = 12, 2
        seen = {}
        for m in range(1 << n):
            f = Subset(n, m)
            if classify(f, c).tag is not WalkTag.TOUCH_MANY:
                continue
            image = reflect_after_first_touch(f, c)
            assert hits_line(image, c + 1)
            assert len(image) == len(f)
            assert image.mask not in seen, (f, seen[image.mask])
            seen[image.mask] = f

    def test_domain_rejections(self):
        with pytest.raises(ValueError, match="climbs above"):
            reflect_after_first_touch(Subset.of(4, [1, 2]), 1)
        with pytest.raises(ValueError, match="fewer than twice"):
            reflect_after_first_touch(Subset.of(4, [1]), 1)


class TestProbeWalks:
    def test_low_kind_classification(self):
        for n, t, i in [(12, 4, 2), (10, 3, 1), (14, 5, 3)]:
            d = make_probe_walk("low", n, t, i)
            assert classify(d, t - 1) == WalkClass(WalkTag.TOUCH_ONCE, 1)
            assert not hits_line(d, t)

    def test_high_kind_classification(self):
        for n, t, j in [(12, 4, 2), (10, 3, 1), (14, 5, 3)]:
            d = make_probe_walk("high", n, t, j)
            assert classify(d, t + 1) == WalkClass(WalkTag.TOUCH_ONCE, 0)

    def test_diag_kind_classification(self):
        for n, t in [(12, 4), (10, 3)]:
            for s in (0, 1):
                for i in (1, 2, n - t - 2 * s - 1):
                    d = make_probe_walk("diag", n, t, i, s=s)
                    assert classify(d, t) == WalkClass(WalkTag.TOUCH_ONCE, s)

    def test_diag_last_walks(self):
        n, t, s = 11, 3, 1
        i_max = n - t - 2 * s - 1
        d_last = make_probe_walk("diag", n, t, i_max, s=s)
        assert d_last.members == (1, 2, t + s, t + 2 * s)
        d_prev = make_probe_walk("diag", n, t, i_max - 1, s=s)
        assert d_prev.members == (1, 2, t + s, t + 2 * s, n)

    def test_diag_dual(self):
        for n, t, s in [(10, 3, 0), (10, 3, 1), (12, 4, 1)]:
            i_max = n - t - 2 * s - 1
            d = make_probe_walk("diag", n, t, i_max, s=s)
            expected = Subset.of(n, set(range(1, n + 1)) - {t + s, t + 2 * s})
            assert dual_t(d, t) == expected

    def test_high_dual_shape(self):
        # the dual of a high probe walk: head [t-1], a solid block, then
        # the alternating tail shifted by one
        n, t, j = 14, 4, 3
        d = make_probe_walk("high", n, t, j)
        dual = dual_t(d, t)
        head = set(range(1, t)) | set(range(t + 2, t + j + 3))
        tail = set(range(t + j + 4, n + 1, 2))
        assert set(dual.members) == head | tail

    def test_uniform_truncation(self):
        n, k, t = 16, 6, 4
        for kind, line, s_idx in (("low", t - 1, 1), ("high", t + 1, 0)):
            d = make_probe_walk(kind, n, t, 1, k=k)
            assert len(d) == k
            assert classify(d, line) == WalkClass(WalkTag.TOUCH_ONCE, s_idx)
        for s in (0, 1):
            d = make_probe_walk("diag", n, t, 1, s=s, k=k)
            assert len(d) == k
            assert classify(d, t) == WalkClass(WalkTag.TOUCH_ONCE, s)

    def test_uniform_diag_last(self):
        n, k, t, s = 16, 6, 4, 1
        i_kmax = k - t - s
        d = make_probe_walk("diag", n, t, i_kmax, s=s, k=k)
        base = sorted(set(range(1, t)) | {t + s, t + 2 * s} | set(
            range(k + s + 2, n + 1, 2)
        ))
        assert d == first_k(Subset.of(n, base), k)

    def test_index_ranges(self):
        with pytest.raises(ValueError, match="outside"):
            make_probe_walk("low", 10, 3, 6)   # i_max = n-t-2 = 5
        with pytest.raises(ValueError, match="outside"):
            make_probe_walk("diag", 10, 3, 5, s=1)   # i_max = 4
        with pytest.raises(ValueError):
            make_probe_walk("diag", 10, 3, 1, s=2)
        with pytest.raises(ValueError):
            make_probe_walk("low", 10, 3, 1, s=1)
        with pytest.raises(ValueError):
            make_probe_walk("sideways", 10, 3, 1)
        with pytest.raises(ValueError):
            make_probe_walk("low", 10, 1, 1)


class TestStructureIndices:
    def test_star_pair(self):
        f = make_threshold_family_uniform(8, 4, 2, 0)
        assert structure_indices(f, f, 2, 2) == (0, 0)

    def test_window_pair(self):
        f = make_threshold_family_uniform(10, 4, 2, 1)
        assert structure_indices(f, f, 2, 2) == (1, 1)

    def test_unbalanced_pair(self):
        from ekrcross.search import generate_shifted_pairs
        from ekrcross.walks import lambda_family as lf

        hit = 0
        for a, b in generate_shifted_pairs(5, None, 2, 30, seed=11):
            u, v = lf(a), lf(b)
            if u + v != 4:
                continue
            if u > v:
                a, b, u, v = b, a, v, u
            try:
                res = structure_indices(a, b, u, v)
            except ValueError:
                continue   # empty single-touch class: preconditions unmet
            assert not isinstance(res, StructureViolation), res
            s, sp = res
            assert s - sp == (v - u) // 2
            hit += 1
        assert hit >= 3

    def test_precondition_reporting(self):
        f = make_threshold_family_uniform(8, 4, 2, 0)
        with pytest.raises(ValueError, match="not cross 3-intersecting"):
            structure_indices(f, f, 2, 4)
        with pytest.raises(ValueError, match="line level"):
            structure_indices(f, f, 1, 3)
        with pytest.raises(ValueError, match="must be even"):
            structure_indices(f, f, 1, 2)
        unshifted = Family.of(8, [[2, 3, 4, 5]], k=4)
        with pytest.raises(ValueError, match="not shifted"):
            structure_indices(unshifted, unshifted, 2, 2)
