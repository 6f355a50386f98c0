"""Integer-sequence families: projection, symbol compression, the
cylinder constructions, and the tiny-scale product-bound search."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import ekrcross.seq
from ekrcross.measure import WeightParams, mu
from ekrcross.search import SearchBudget, compatibility_rows, max_weight_product
from ekrcross.seq import (
    SeqFamily,
    Sequence,
    expected_H_size,
    is_seq_shifted,
    make_H,
    onehot_mask,
    seq_cross_t_intersecting,
    seq_family_from_text,
    seq_family_to_text,
    seq_shift_pair_to_fixpoint,
    shift_S,
    sigma,
    sigma_family,
    verify_seq_theorem,
    words_of,
)
from ekrcross.setfam import (
    BudgetExceeded,
    Family,
    is_cross_t_intersecting,
    make_threshold_family,
)


def seq_fam(m, n, *words):
    return SeqFamily.of(m, n, words)


def hamming_partner(fam: SeqFamily, t: int) -> SeqFamily:
    """All words agreeing with every member in >= t coordinates."""
    out = []
    for w in itertools.product(range(1, fam.m + 1), repeat=fam.n):
        if all(sum(x == y for x, y in zip(w, v)) >= t for v in fam.members):
            out.append(w)
    return SeqFamily(fam.m, fam.n, tuple(sorted(out)))


class TestProjection:
    def test_examples(self):
        assert sigma(Sequence(2, (1, 2, 1))).members == (1, 3)
        assert sigma(Sequence(3, (1, 1, 1))).members == (1, 2, 3)
        assert sigma(Sequence(4, (2, 3))).members == ()

    def test_surjective(self):
        m, n = 2, 3
        images = {
            sigma(Sequence(m, w)).mask
            for w in itertools.product(range(1, m + 1), repeat=n)
        }
        assert images == set(range(1 << n))

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            Sequence(2, (1, 3))
        with pytest.raises(ValueError):
            Sequence(1, (1,))


class TestFamilyShape:
    # Sequence rejects a one-letter alphabet and the empty word; a family
    # must too, however it is made.
    def test_one_letter_alphabet_from_text(self):
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 1"):
            seq_family_from_text("m=1 n=2\n1,1\n")

    def test_empty_words(self):
        with pytest.raises(ValueError, match="sequences must have length >= 1"):
            SeqFamily(3, 0, ())

    def test_one_letter_cylinder(self):
        with pytest.raises(ValueError, match="alphabet size must be >= 2, got 1"):
            make_H(3, 1, 1, 0)


class TestWordListing:
    def test_guard_reads_the_size_before_listing(self, monkeypatch):
        listed = []
        product = itertools.product
        monkeypatch.setattr(ekrcross.seq, "itertools", SimpleNamespace(
            product=lambda *args, **kw: (listed.append(w) or w for w in product(*args, **kw))))
        monkeypatch.setattr(ekrcross.seq, "_MATERIALIZE_LIMIT", 3**4 - 1)
        with pytest.raises(BudgetExceeded, match="materialization limit"):
            words_of(4, 3)
        assert listed == []
        monkeypatch.setattr(ekrcross.seq, "_MATERIALIZE_LIMIT", 3**4)
        assert words_of(4, 3) == sorted(product(range(1, 4), repeat=4))
        assert len(listed) == 81
        # The guard reads no 3^(10^8): that power alone takes minutes.
        with pytest.raises(BudgetExceeded, match="materialization limit"):
            words_of(10**8, 3)


class TestCrossIntersection:
    def test_cylinder_self(self):
        h = make_H(3, 3, 1, 0)
        assert seq_cross_t_intersecting(h, h, 1)

    def test_disjoint_words(self):
        a = seq_fam(2, 2, (1, 1))
        b = seq_fam(2, 2, (2, 2))
        assert not seq_cross_t_intersecting(a, b, 1)

    def test_window_family_self(self):
        h = make_H(3, 3, 1, 1)
        # brute force over member pairs
        for wa in h.members:
            for wb in h.members:
                assert sum(x == y for x, y in zip(wa, wb)) >= 1
        assert seq_cross_t_intersecting(h, h, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            seq_cross_t_intersecting(seq_fam(2, 2, (1, 1)), seq_fam(3, 2, (1, 1)), 1)


class TestCylinderFamilies:
    def test_star_cylinder(self):
        h = make_H(2, 3, 1, 0)
        assert h.members == ((1, 1), (1, 2), (1, 3))
        assert len(h) == 3 ** (2 - 1)

    def test_size_formula(self):
        for m in (2, 3, 4):
            for t in (1, 2):
                for i in (0, 1):
                    w = t + 2 * i
                    for n in range(w, 7):
                        if m**n > 10**5:
                            continue
                        h = make_H(n, m, t, i)
                        assert len(h) == expected_H_size(n, m, t, i)
                        if i == 0:
                            assert len(h) == m ** (n - t)

    def test_size_against_filter_oracle(self):
        n, m, t, i = 3, 3, 1, 1
        h = make_H(n, m, t, i)
        base = set(make_threshold_family(n, t, i).masks)
        filtered = [
            w
            for w in itertools.product(range(1, m + 1), repeat=n)
            if sigma(Sequence(m, w)).mask in base
        ]
        assert sorted(filtered) == list(h.members)
        assert len(h) == m**n * mu(
            make_threshold_family(n, t, i), WeightParams(n, Fraction(1, m))
        )

    def test_member_projections(self):
        h = make_H(4, 3, 2, 1)
        base = set(make_threshold_family(4, 2, 1).masks)
        for w in h.members:
            assert sigma(Sequence(3, w)).mask in base


class TestSymbolCompression:
    def test_basic_move(self):
        f = seq_fam(2, 2, (2, 1))
        assert shift_S(f, 1, 2).members == ((1, 1),)

    def test_blocked_move(self):
        f = seq_fam(2, 2, (1, 1), (2, 1))
        assert shift_S(f, 1, 2) == f

    def test_idempotent(self):
        f = seq_fam(3, 2, (2, 1), (3, 2), (1, 3))
        once = shift_S(f, 1, 2)
        assert shift_S(once, 1, 2) == once

    @given(st.data())
    @settings(max_examples=60)
    def test_size_preserved(self, data):
        m, n = 3, 3
        words = data.draw(
            st.sets(
                st.tuples(*[st.integers(1, m)] * n), min_size=1, max_size=8
            )
        )
        f = SeqFamily.of(m, n, words)
        j = data.draw(st.integers(1, n))
        c = data.draw(st.integers(1, m))
        assert len(shift_S(f, j, c)) == len(f)

    def test_cross_preserved_exhaustive_tiny(self):
        m, n, t = 2, 3, 2
        words = list(itertools.product((1, 2), repeat=n))
        singles = [seq_fam(m, n, w) for w in words]
        for a in singles:
            for b in singles:
                if not seq_cross_t_intersecting(a, b, t):
                    continue
                for j in range(1, n + 1):
                    for c in range(2, m + 1):
                        assert seq_cross_t_intersecting(
                            shift_S(a, j, c), shift_S(b, j, c), t
                        )

    def test_pair_fixpoint(self):
        a = seq_fam(3, 2, (3, 2), (2, 2))
        b = seq_fam(3, 2, (2, 2), (3, 3))
        a2, b2, trace = seq_shift_pair_to_fixpoint(a, b)
        assert is_seq_shifted(a2) and is_seq_shifted(b2)
        assert len(a2) == len(a) and len(b2) == len(b)
        assert trace

    def test_projection_of_shifted_pair_is_cross(self):
        # shifted, mutually-maximal pairs project to cross-t set families
        m, n, t = 2, 3, 1
        for seed_word in itertools.product((1, 2), repeat=n):
            b0 = hamming_partner(seq_fam(m, n, seed_word), t)
            a0 = hamming_partner(b0, t)
            a, b, _ = seq_shift_pair_to_fixpoint(a0, b0)
            if not seq_cross_t_intersecting(a, b, t):
                continue
            assert is_cross_t_intersecting(sigma_family(a), sigma_family(b), t)

    def test_counting_bridge(self):
        # |A| <= m^n mu_{1/m}(sigma(A)), equality for the cylinders
        m, n, t = 3, 3, 1
        h = make_H(n, m, t, 0)
        proj = sigma_family(h)
        assert len(h) == m**n * mu(proj, WeightParams(n, Fraction(1, m)))
        partial = SeqFamily(m, n, h.members[:4])
        proj = sigma_family(partial)
        assert len(partial) <= m**n * mu(proj, WeightParams(n, Fraction(1, m)))


class TestSequenceTheorem:
    @pytest.mark.parametrize(
        "n,m,t",
        [(2, 2, 1), (2, 3, 1), (3, 2, 1)],
    )
    def test_maxima(self, n, m, t):
        r = verify_seq_theorem(n, m, t)
        assert r.exhaustive
        assert r.max_product == (m ** (n - t)) ** 2
        assert "H0" in r.witness_classes
        assert r.matched_construction == "H0"
        assert r.notes["mode"] == "full"

    def test_shifted_budget_runs_full_mode(self):
        # The dominance order of shifted mode is one on sets, not on words.
        full = verify_seq_theorem(3, 2, 1)
        r = verify_seq_theorem(3, 2, 1, SearchBudget(restrict_shifted=True))
        assert (r.max_product, r.witness_count, r.notes) == (
            full.max_product, full.witness_count, full.notes)

    def test_boundary_alphabet_ties(self):
        # at m = t+1 the window cylinder ties the star cylinder
        r = verify_seq_theorem(3, 2, 1)
        assert "H1" in r.witness_classes

    def test_singleton_instance(self):
        r = verify_seq_theorem(2, 3, 2)
        assert r.max_product == 1

    def test_layer_note(self):
        assert "skipped" in verify_seq_theorem(3, 2, 1).notes["layer_comparison"]
        note = verify_seq_theorem(2, 3, 1).notes["layer_comparison"]
        assert note == {"r": 0, "applicable": True}

    def test_budget(self):
        # The node budget bounds the walk; there is no cap on the words.
        with pytest.raises(BudgetExceeded, match="max_family_bits=1000"):
            verify_seq_theorem(4, 3, 1, SearchBudget(max_family_bits=1000))

    @pytest.mark.parametrize("n,m,t", [(2, 5, 1), (3, 3, 1), (3, 3, 2), (3, 4, 1), (4, 3, 2), (5, 2, 2)])
    def test_maxima_match_the_weight_search(self, n, m, t):
        # Projecting onto the 1-positions gives max_seq = m^(2n) max_weight
        # at p = 1/m: (5,2,2) lies above the target, as 1/2 > 1/(t+1).
        r = verify_seq_theorem(n, m, t)
        assert r.max_product == m ** (2 * n) * max_weight_product(n, t, Fraction(1, m)).max_product
        assert (r.max_product == (m ** (n - t)) ** 2) == (m >= t + 1)

    def test_one_letter_alphabet(self):
        # Sequence rejects m = 1, and the layer index (t-1)//(m-2) would be negative.
        with pytest.raises(ValueError, match="m >= 2"):
            verify_seq_theorem(3, 1, 2)

    @pytest.mark.parametrize("n,m,t", [(4, 2, 1), (3, 3, 1), (2, 3, 2), (3, 2, 2)])
    def test_onehot_rows_count_agreements(self, n, m, t):
        words = list(itertools.product(range(1, m + 1), repeat=n))
        rows = [
            sum(1 << j for j, wj in enumerate(words) if Sequence(m, wi).agreement(Sequence(m, wj)) >= t)
            for wi in words
        ]
        assert compatibility_rows([onehot_mask(w, m) for w in words], t) == rows


class TestSerialization:
    def test_roundtrip(self):
        f = make_H(3, 3, 1, 1)
        text = seq_family_to_text(f)
        assert text.splitlines()[0] == "m=3 n=3"
        assert seq_family_from_text(text) == f

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            seq_family_from_text("oops\n1,2\n")
