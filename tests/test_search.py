"""Extremal searches: closure engine, shifted mode."""

import functools
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import ekrcross.search
import ekrcross.seq
from ekrcross.measure import WeightParams, mu
from ekrcross.search import (
    SearchBudget,
    compatibility_rows,
    generate_shifted_pairs,
    iter_shifted_families,
    max_uniform_product,
    max_weight_product,
)
from ekrcross.seq import verify_seq_theorem
from ekrcross.setfam import (
    BudgetExceeded,
    Family,
    Subset,
    are_isomorphic,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    make_threshold_family,
    mask_of,
    maximal_cross_partner,
    shift_ij,
    shift_pair_to_fixpoint,
    shifts_to,
    subsets_of,
)
from ekrcross.walks import lambda_family

from helpers import (
    brute_force_uniform_max,
    brute_force_weight_max,
    cylinder_label,
    partner_shift_oracle,
    preds_closed,
    window_label,
)


class TestUniformSearch:
    def test_pyber_smallest(self):
        r = max_uniform_product(4, 2, 1)
        assert r.max_product == 9
        assert r.matched_construction == "F0"
        assert r.exhaustive

    def test_star_instances(self):
        for n, k in ((5, 2), (6, 2)):
            r = max_uniform_product(n, k, 1)
            assert r.max_product == math.comb(n - 1, k - 1) ** 2
            assert r.witness_classes == ("F0",)
            assert r.witness_count == n   # one star pair per centre

    def test_single_pair_instance(self):
        r = max_uniform_product(5, 2, 2)
        assert r.max_product == 1
        assert r.matched_construction == "F0"

    def test_boundary_instance_has_extra_classes(self):
        # n = 2k: the layer splits into complement-free halves, so
        # non-star maximal pairs exist alongside the star pairs
        r = max_uniform_product(4, 2, 1)
        assert set(r.witness_classes) == {"F0", "F1", "other"}
        star = make_threshold_family(4, 1, 0, 2)
        assert any(a == b == star for a, b in r.witnesses)

    def test_brute_force_agreement(self):
        for n, k, t in ((4, 2, 1), (5, 2, 1), (5, 2, 2), (6, 2, 1), (4, 3, 2)):
            assert max_uniform_product(n, k, t).max_product == brute_force_uniform_max(
                n, k, t
            )

    def test_shifted_mode_agreement(self):
        for n, k, t in ((4, 2, 1), (5, 2, 1), (6, 2, 1), (6, 3, 1), (6, 3, 2)):
            full = max_uniform_product(n, k, t)
            shifted = max_uniform_product(n, k, t, SearchBudget(restrict_shifted=True))
            assert full.max_product == shifted.max_product, (n, k, t)
            assert shifted.notes["mode"] == "shifted"

    def test_witnesses_realize_max(self):
        r = max_uniform_product(5, 2, 1)
        for a, b in r.witnesses:
            assert len(a) * len(b) == r.max_product
            assert is_cross_t_intersecting(a, b, 1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            max_uniform_product(6, 3, 1, SearchBudget(max_family_bits=1000))


class TestWeightSearch:
    def test_headline_instances(self):
        for n, t, p in ((3, 1, Fraction(1, 3)), (4, 1, Fraction(1, 3)), (4, 2, Fraction(1, 4))):
            r = max_weight_product(n, t, p)
            assert r.max_product == p ** (2 * t)
            assert r.witness_classes == ("F0",)
            assert r.exhaustive

    def test_brute_force_agreement(self):
        for n, t, p in ((3, 1, Fraction(1, 3)), (3, 2, Fraction(1, 4)), (4, 2, Fraction(1, 4))):
            assert max_weight_product(n, t, p).max_product == brute_force_weight_max(
                n, t, p
            )

    def test_shifted_mode_agreement(self):
        for n, t, p in ((4, 2, Fraction(1, 4)), (5, 2, Fraction(1, 4)), (5, 1, Fraction(1, 3))):
            full = max_weight_product(n, t, p)
            shifted = max_weight_product(n, t, p, SearchBudget(restrict_shifted=True))
            assert full.max_product == shifted.max_product
            assert shifted.notes["mode"] == "shifted"

    def test_witness_is_star_closure(self):
        r = max_weight_product(3, 1, Fraction(1, 3))
        star = make_threshold_family(3, 1, 0)
        assert any(a == b == star for a, b in r.witnesses)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            max_weight_product(3, 0, Fraction(1, 3))
        with pytest.raises(ValueError):
            max_weight_product(3, 1, Fraction(3, 2))


def _search_digest(r) -> str:
    def members(f):
        return f.masks if isinstance(f, Family) else f.members

    # A pruning search may visit fewer nodes, so node counts are left out.
    notes = {key: val for key, val in r.notes.items()
             if key not in ("nodes", "closed_sets")}
    key = (str(r.max_product), r.witness_count, r.witness_classes, r.matched_construction,
           [(members(a), members(b)) for a, b in r.witnesses], notes)
    return hashlib.sha256(repr(key).encode()).hexdigest()


# sha256 of _search_digest's key, recorded before the uniform, weighted
# and sequence searches shared one engine, and re-taken without the node
# count on the engine each mode used before its walk began to prune (and
# the two seq digests again when its notes gained "mode"); any change to
# a maximum, tie count, class, witness or other note shows.  Shifted
# (6, 3, 1) was re-taken when it moved to traces on [5]: the same six
# witnesses, listed in trace order.  The four shifted digests were
# re-taken when their notes lost "partner_shift_violations": with that
# note put back as 0, each new result hashes to the digest it replaced.
PINNED_SEARCHES = (
    ("uniform", (6, 3, 1), False, "b42749f298c91343cf3762769f45e9591745a31259cb9f3be1ad65800fd964ad"),
    ("uniform", (6, 3, 2), False, "c621fa188b7e1e5c3c050ad99ccd6b5ba53e1c1e735a50cbece86d99f7f29a9b"),
    ("uniform", (5, 2, 1), False, "c94da89ee3597ba43226dc31d51a4a81191f923036efabcc1cfdd85697d0768e"),
    ("weight", (4, 2, Fraction(1, 4)), False,
     "5cef307fa417243cf77220e48ff641e76979b9235b450b0df59a9e865146e078"),
    ("uniform", (6, 3, 1), True, "ddc0b86100fe00a58f430617de921b3fbbae6ef4b4dcc7f1179e6d3b38e3190c"),
    ("uniform", (6, 3, 2), True, "a4ee056f50ca36615056aa7bbc471743f4764b1585402dbe9e6ed51565ac2581"),
    ("uniform", (5, 2, 1), True, "4f53c4a67f1153224363cbd0eb66caa9a3d3caad229f850b876af9b17fe602f8"),
    ("weight", (4, 2, Fraction(1, 4)), True,
     "389ae0fe91f3725a893bd020b3a213d681e4d163deae04ab8a9c003d0ec412fc"),
    ("seq", (3, 2, 1), False, "285cbf427a653c724f71f8a17860f8616161ebcbf9eaad9670a29415db2224d4"),
    ("seq", (2, 3, 1), False, "3a03f6dad96f7d14bae484356a8265a380bfbe8c17539a2da6aaacbfaa6ae5f5"),
)


def test_pinned_search_outputs():
    searches = {"uniform": max_uniform_product, "weight": max_weight_product,
                "seq": verify_seq_theorem}
    for kind, args, shifted, digest in PINNED_SEARCHES:
        r = searches[kind](*args, SearchBudget(restrict_shifted=shifted))
        assert _search_digest(r) == digest, (kind, args, shifted)
        if shifted:
            assert r.notes["mode"] == "shifted", (kind, args)


def test_labels_agree_with_the_window_loops_on_every_symmetric_tie(monkeypatch):
    # With the cap lifted every tie is kept, so _search labels every
    # symmetric tie (A, A) of each pinned search.
    calls = []
    label = ekrcross.search._construction

    def recorded(amask, cands, t):
        calls.append((amask, cands, t, label(amask, cands, t)))
        return calls[-1][-1]

    monkeypatch.setattr(ekrcross.search, "_construction", recorded)
    monkeypatch.setattr(ekrcross.search, "WITNESS_CAP", 1 << 20)
    searches = {"uniform": max_uniform_product, "weight": max_weight_product,
                "seq": verify_seq_theorem}
    seen = set()
    for kind, args, shifted, _ in PINNED_SEARCHES:
        calls.clear()
        searches[kind](*args, SearchBudget(restrict_shifted=shifted))
        assert calls, (kind, args, shifted)
        for amask, cands, t, got in calls:
            if kind == "seq":
                n, m, _ = args
                words = list(itertools.product(range(1, m + 1), repeat=n))
                assert cands == [ekrcross.seq.onehot_mask(w, m) for w in words]
                members = frozenset(words[i] for i in range(len(words)) if amask >> i & 1)
                want = cylinder_label(members, m, n, t)
            else:
                want = window_label(amask, cands, args[0], t)
            assert got == want, (kind, args, shifted, amask)
            seen.add(got)
    assert seen == {0, 1, None}


def _closure_of(cands, t, picks):
    """D(D(X)) for the candidates X at the indices ``picks``."""
    rows = compatibility_rows(cands, t)
    full = (1 << len(cands)) - 1
    partner = ekrcross.search._partner
    return partner(partner(sum(1 << i for i in set(picks)), rows, full), rows, full)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_set_labels_agree_with_the_window_loop_on_closed_families(data):
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.sampled_from([None, *range(1, n + 1)]))
    t = data.draw(st.integers(1, k or n))
    cands = subsets_of(n, k) if k else list(range(1 << n))
    picks = data.draw(st.lists(st.integers(0, len(cands) - 1), max_size=4))
    a = _closure_of(cands, t, picks)
    assert ekrcross.search._construction(a, cands, t) == window_label(a, cands, n, t)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_word_labels_agree_with_the_cylinder_loop_on_closed_families(data):
    n, m = data.draw(st.sampled_from(
        [(n, m) for m in range(2, 9) for n in range(1, 7) if m ** n <= 64]))
    t = data.draw(st.integers(1, n))
    words = list(itertools.product(range(1, m + 1), repeat=n))
    cands = [ekrcross.seq.onehot_mask(w, m) for w in words]
    picks = data.draw(st.lists(st.integers(0, len(words) - 1), max_size=4))
    a = _closure_of(cands, t, picks)
    members = frozenset(words[i] for i in range(len(words)) if a >> i & 1)
    assert ekrcross.search._construction(a, cands, t) == cylinder_label(members, m, n, t)


def _holding(cands, test):
    return sum(1 << i for i, c in enumerate(cands) if test(c))


@pytest.mark.parametrize("n, k, t", [(5, 3, 1), (6, 3, 1), (7, 4, 2), (6, 5, 3),
                                     (5, None, 1), (6, None, 2), (7, None, 3)])
def test_relabelled_set_constructions_keep_their_labels(n, k, t):
    cands = subsets_of(n, k) if k else list(range(1 << n))
    rng = random.Random(n * 100 + t)
    for _ in range(10):
        order = rng.sample(range(n), n)
        core, window = sum(1 << e for e in order[:t]), sum(1 << e for e in order[:t + 2])
        star = _holding(cands, lambda c: c & core == core)
        threshold = _holding(cands, lambda c: (c & window).bit_count() >= t + 1)
        assert ekrcross.search._construction(star, cands, t) == 0
        assert ekrcross.search._construction(threshold, cands, t) == 1


@pytest.mark.parametrize("n, m, t", [(3, 3, 1), (4, 2, 1), (4, 3, 2), (3, 4, 1), (5, 2, 2)])
def test_relabelled_word_constructions_keep_their_labels(n, m, t):
    words = list(itertools.product(range(1, m + 1), repeat=n))
    cands = [ekrcross.seq.onehot_mask(w, m) for w in words]
    rng = random.Random(n * 100 + m * 10 + t)
    for _ in range(10):
        # A coordinate permutation and a symbol map per coordinate move
        # the reference words to these positions and symbols.
        coords = rng.sample(range(n), min(n, t + 2))
        symbols = [rng.randint(1, m) for _ in range(n)]
        star = _holding(words, lambda w: all(w[j] == symbols[j] for j in coords[:t]))
        assert ekrcross.search._construction(star, cands, t) == 0
        if n >= t + 2:
            threshold = _holding(words, lambda w: sum(w[j] == symbols[j] for j in coords) > t)
            assert ekrcross.search._construction(threshold, cands, t) == 1


def test_labels_past_f1_and_on_the_one_set_layer():
    # Full (6,4,2)'s one witness is F2, the whole layer, which is
    # neither the star nor the 4-window family.
    r = max_uniform_product(6, 4, 2)
    assert (r.max_product, r.witness_count, r.witness_classes) == (225, 1, ("other",))
    # On the layer k = n every element has the top degree, and its one
    # set is the (t+2)-window family, not a star.
    for n, t in ((3, 1), (4, 2), (5, 1)):
        assert max_uniform_product(n, n, t).witness_classes == ("F1",)


def _breadth_first_closed_sets(rows):
    """Every intersection of rows, built breadth first as full mode did
    before the Close-by-One walk (budget checks dropped), ascending."""
    full = (1 << len(rows)) - 1
    seen = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for a in frontier:
            for r in rows:
                x = a & r
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen)


def _breadth_first_best_pairs(nodes, rows, weights):
    """Full mode's scorer before the Close-by-One walk, verbatim but for
    reading WITNESS_CAP at call time and summing weights inline: it
    scores each closed set, so it meets a pair A != D(A) from both
    sides, and deduplicates only against the retained witnesses."""
    full = (1 << len(rows)) - 1
    uniformw = weights is None
    best = count = visited = 0
    argmax = set()
    for a in nodes:
        visited += 1
        b = ekrcross.search._partner(a, rows, full)
        wa = a.bit_count() if uniformw else sum(w for i, w in enumerate(weights) if a >> i & 1)
        wb = b.bit_count() if uniformw else sum(w for i, w in enumerate(weights) if b >> i & 1)
        prod = wa * wb
        if prod < best:
            continue
        pair = (a, b) if a <= b else (b, a)
        if prod > best:
            best, argmax, count = prod, {pair}, 1
        elif pair not in argmax:
            count += 1
            if len(argmax) < ekrcross.search.WITNESS_CAP:
                argmax.add(pair)
    return best, sorted(argmax), count, visited


@pytest.mark.parametrize("cap", [1, 2, 5])
@pytest.mark.parametrize("kind, args", [
    ("uniform", (4, 2, 1)), ("uniform", (5, 2, 1)), ("uniform", (6, 3, 2)),
    ("uniform", (4, 2, 3)), ("weight", (4, 2, Fraction(1, 4))),
    ("weight", (3, 4, Fraction(1, 3))), ("seq", (3, 2, 1)),
])
def test_full_mode_matches_the_breadth_first_counts(monkeypatch, kind, args, cap):
    # Past the cap the breadth-first scorer, run in ascending order,
    # counts each unretained pair A != D(A) twice; full mode must keep
    # that count and the same retained witnesses.
    searches = {"uniform": max_uniform_product, "weight": max_weight_product,
                "seq": verify_seq_theorem}
    walk, runs = ekrcross.search._best_closed, []

    def recorded(rows, weights, budget):
        runs.append((rows, weights, walk(rows, weights, budget)))
        return runs[-1][2]

    monkeypatch.setattr(ekrcross.search, "WITNESS_CAP", cap)
    monkeypatch.setattr(ekrcross.search, "_best_closed", recorded)
    searches[kind](*args)
    [(rows, weights, (best, pairs, count, unretained, _))] = runs
    want = _breadth_first_best_pairs(_breadth_first_closed_sets(rows), rows, weights)
    assert (best, pairs, count + unretained) == want[:3]


def test_full_mode_budget_counts_visited_nodes():
    # (6, 3, 1) has 2^20 closed sets; the branch and bound visits 238,477.
    r = max_uniform_product(6, 3, 1, SearchBudget(max_family_bits=238_477))
    assert (r.max_product, r.witness_count, r.notes["nodes"]) == (100, 180705, 238477)
    with pytest.raises(BudgetExceeded):
        max_uniform_product(6, 3, 1, SearchBudget(max_family_bits=238_476))


@st.composite
def _relations(draw):
    """A random symmetric relation on up to 9 candidates, as rows, with
    positive integer weights or None (counting measure)."""
    size = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(size) for j in range(i, size)]
    rows = [0] * size
    for (i, j), related in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                     max_size=len(pairs)))):
        if related:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    weights = draw(st.none() | st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return rows, weights


@pytest.mark.parametrize("cap", [1, 2, 5])
@given(_relations())
@settings(max_examples=300, deadline=None)
def test_subtree_bounds_keep_every_tie(cap, relation):
    # The walk's bounds are sound for any symmetric rows and positive
    # weights: it must score like the unpruned breadth-first engine.
    rows, weights = relation
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ekrcross.search, "WITNESS_CAP", cap)
        best, pairs, count, unretained, _ = ekrcross.search._best_closed(
            rows, weights, SearchBudget())
        want = _breadth_first_best_pairs(_breadth_first_closed_sets(rows), rows, weights)
    assert (best, pairs, count + unretained) == want[:3]


@given(_relations(), st.data())
@settings(max_examples=300, deadline=None)
def test_seeded_walks_match_the_oracle(relation, data):
    # Shifted mode starts from the star product, which a pair attains, so
    # the bounds prune from the first node: seeded with 0 or with any
    # product the oracle attains, the walk must score like the unpruned
    # breadth-first engine.
    rows, weights = relation
    full, unit = (1 << len(rows)) - 1, weights or [1] * len(rows)
    closed = _breadth_first_closed_sets(rows)
    weigh = lambda x: sum(v for i, v in enumerate(unit) if x >> i & 1)  # noqa: E731
    seed = data.draw(st.sampled_from(
        [0] + [weigh(a) * weigh(ekrcross.search._partner(a, rows, full)) for a in closed]))
    best, pairs, count, unretained, _ = ekrcross.search._best_closed(
        rows, weights, SearchBudget(), seed=seed)
    assert (best, pairs, count + unretained) == _breadth_first_best_pairs(closed, rows, weights)[:3]


@pytest.mark.parametrize("shifted, args, want", [
    (False, (6, 3, 1), (subsets_of(6, 3), None)),
    (True, (5, 3, 1), (subsets_of(5, 3), None)),
    (True, (4, 3, 2), (subsets_of(4, 3), None)),
    (True, (9, 3, 1), (subsets_of(5, 1) + subsets_of(5, 2) + subsets_of(5, 3),
                       [6] * 5 + [4] * 10 + [1] * 10)),
    (True, (4, 2, 3), (subsets_of(4, 2), None)),
])
def test_uniform_search_walks_one_candidate_list(monkeypatch, shifted, args, want):
    # Every uniform search is one _search over the traces on [m]: with
    # m = n (full mode, n <= 2k - t, or t > k) they are the layer in order
    # under counting measure; (9, 3, 1) walks the traces of sizes 1 to 3
    # on [5], each weighing C(4, 3 - |S|).
    search, calls = ekrcross.search._search, []

    def recorded(cands, weights, *rest, **kwargs):
        calls.append((list(cands), weights))
        return search(cands, weights, *rest, **kwargs)

    monkeypatch.setattr(ekrcross.search, "_search", recorded)
    r = max_uniform_product(*args, SearchBudget(restrict_shifted=shifted))
    assert calls == [want] and r.notes["mode"] == ("shifted" if shifted else "full")


def test_partner_shift_oracle_detects_a_partner_that_is_not_closed():
    # (6, 3, 2) runs on the traces of sizes 2 and 3 on [4].  Under preds
    # that chain the 3-sets and then the 2-sets, each in list order, the
    # closed families are the chain's prefixes (123, 124, 134, 234, 12,
    # 13, 14, ...), and D({123}) = {123, 124, 134, 234, 12, 13, 23} is
    # not one, so the oracle must count it.
    traces = subsets_of(4, 2) + subsets_of(4, 3)
    order = [*range(6, 10), *range(6)]
    chain = [sum(1 << q for q in order[:order.index(i)]) for i in range(len(traces))]
    assert partner_shift_oracle(compatibility_rows(traces, 2), chain) > 0


@st.composite
def _transitive_orders(draw):
    """Symmetric rows on up to 9 candidates, and preds: the transitive
    closure of random arcs, each to a candidate earlier in a random order."""
    rows, _ = draw(_relations())
    order = draw(st.permutations(range(len(rows))))
    preds = [0] * len(rows)
    for q, i in enumerate(order):
        for j in order[:q]:
            if draw(st.booleans()):
                preds[i] |= 1 << j | preds[j]
    return rows, preds


@given(_transitive_orders())
@settings(max_examples=300, deadline=None)
def test_partner_shift_precheck_matches_the_oracle(order):
    # The oracle's per-candidate count reads 0 exactly when D of every
    # preds-closed family is preds-closed, checked here family by family.
    rows, preds = order
    full = (1 << len(rows)) - 1
    lemma = all(preds_closed(ekrcross.search._partner(a, rows, full), preds)
                for a in range(full + 1) if preds_closed(a, preds))
    assert (partner_shift_oracle(rows, preds) == 0) == lemma


@pytest.mark.parametrize("n, k, same", [
    *[(n, None, same) for n in range(1, 6) for same in (False, True)],
    *[(n, k, True) for n in range(1, 8) for k in range(1, n + 1)],
])
def test_partner_shift_precheck_passes_under_dominance(n, k, same):
    # D of a shift-closed family is shift-closed (proved in
    # search._search), so the oracle counts no j whose partner
    # D({j} + preds[j]) fails, under the same-size order and (on the
    # power set) the whole one.
    masks = list(range(1 << n)) if k is None else subsets_of(n, k)
    preds = ekrcross.search._dominance_preds(masks, 0 if same else n)
    for t in (1, 2, 3):
        assert partner_shift_oracle(compatibility_rows(masks, t), preds) == 0, t


def _covered_by(masks):
    """covered_by[i] = index mask of the j whose set is the set of i
    with one element moved one step right."""
    index = {m: j for j, m in enumerate(masks)}
    ups = [[x ^ 3 << b for b in range(x.bit_length()) if x >> b & 1 and not x >> b + 1 & 1]
           for x in masks]
    return [sum(1 << index[y] for y in up if y in index) for up in ups]


def _read_back(shifts, span):
    """The offset masks (d, g_d) read as covered_by: the cover of each j
    in g_d is j - d."""
    covered_by = [0] * span
    for d, g in shifts:
        for j in range(span):
            if g >> j & 1:
                covered_by[j - d] |= 1 << j
    return covered_by


def _shifted_inputs(monkeypatch, cands, t):
    """(rows, shifts) as a shifted _search over ``cands`` hands them to
    its walk, which is skipped."""
    seen = []

    def recorded(rows, weights, budget, **kwargs):
        seen.append((rows, kwargs))
        return 0, [], 0, 0, 0

    monkeypatch.setattr(ekrcross.search, "_best_closed", recorded)
    ekrcross.search._search(cands, None, t, SearchBudget(restrict_shifted=True), "F", None)
    return seen[-1][0], seen[-1][1]["shifts"]


# The lists shifted mode runs on: layers, power sets and the traces of a size window.
SHIFTED_LISTS = [*((n, subsets_of(n, k)) for n in range(1, 8) for k in range(1, n + 1)),
                 *((n, list(range(1 << n))) for n in range(1, 6)),
                 *((m, [s for size in range(lo, hi + 1) for s in subsets_of(m, size)])
                   for m in range(1, 7) for hi in range(m + 1) for lo in range(hi + 1))]


def test_same_size_shifts_force_what_the_whole_order_forces(monkeypatch):
    # Shifted mode builds its rows over the same-size shifts alone.  On
    # every candidate set it runs on, the rows handed to the walk must be
    # D({j} + what j forces in the whole dominance order) (shifts_to,
    # which may add elements) over the compatibility rows, the offset
    # masks the covers read the other way, and the oracle must read 0
    # under either order.
    for m, masks in SHIFTED_LISTS:
        subs = [Subset(m, x) for x in masks]
        whole = [sum(1 << j for j, sj in enumerate(subs) if j != i and shifts_to(si, sj))
                 for i, si in enumerate(subs)]
        same = ekrcross.search._dominance_preds(masks)
        full = (1 << len(masks)) - 1
        for t in (1, 2, 3, 4):
            rows = compatibility_rows(masks, t)
            folded, shifts = _shifted_inputs(monkeypatch, masks, t)
            assert folded == [ekrcross.search._partner(1 << j | p, rows, full)
                              for j, p in enumerate(whole)], (masks, t)
            assert _read_back(shifts, len(masks)) == _covered_by(masks), masks
            assert partner_shift_oracle(rows, same) == partner_shift_oracle(rows, whole) == 0


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_prefix_lemma_gives_the_fewest_elements_a_shift_can_hold(data):
    # Over every same-size T with t_i <= s_i, listed by brute force, the
    # fewest elements of X that T holds is at least t exactly when
    # |X & [0, s_i]| >= s_i - i + t for some i; the shifted rows of the
    # power set of [w] must say the same.
    w, t = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4))
    s, x = data.draw(st.integers(0, (1 << w) - 1)), data.draw(st.integers(0, (1 << w) - 1))
    ss = ekrcross.search._bits(s)
    below = [y for y in range(1 << w) if y.bit_count() == len(ss)
             and all(a <= b for a, b in zip(ekrcross.search._bits(y), ss))]
    prefix = any((x & (2 << e) - 1).bit_count() >= e - i + t for i, e in enumerate(ss))
    assert (min((x & y).bit_count() for y in below) >= t) == prefix, (s, x, t)
    assert ekrcross.search._shifted_rows(range(1 << w), t)[s] >> x & 1 == prefix


@given(st.sampled_from(SHIFTED_LISTS), st.integers(1, 3), st.lists(st.integers(0), max_size=6))
@settings(max_examples=300, deadline=None)
def test_folded_rows_give_the_partner_of_every_shift_closed_set(chosen, t, picks):
    # The walk closes with the prefix rows: their AND over X is
    # D(X + forced(X)), so it must equal D(X) for every X closed under
    # the covers (X and all it forces, for a few picks), and so must
    # their AND over the members of X that are no cover of another, as
    # the root takes it over the whole list.
    _, masks = chosen
    preds = ekrcross.search._dominance_preds(masks)
    x = functools.reduce(operator.or_, (1 << i % len(masks) | preds[i % len(masks)]
                                        for i in picks), 0)
    rows, full = compatibility_rows(masks, t), (1 << len(masks)) - 1
    with pytest.MonkeyPatch.context() as patch:
        folded, shifts = _shifted_inputs(patch, masks, t)
    tops = x & ~functools.reduce(operator.or_, ((x & g) >> d for d, g in shifts), 0)
    assert (ekrcross.search._partner(x, folded, full) == ekrcross.search._partner(x, rows, full)
            == ekrcross.search._partner(tops, folded, full)), (masks, t, x)


def test_folded_rows_differ_on_a_set_that_is_not_shift_closed(monkeypatch):
    # The test above needs its hypothesis: for X = {j}, where j has a
    # cover, the prefix rows give D(X + forced(X)), which on some list
    # is less than D(X).
    differ = 0
    for _, masks in SHIFTED_LISTS:
        rows = compatibility_rows(masks, 1)
        folded, shifts = _shifted_inputs(monkeypatch, masks, 1)
        covered = functools.reduce(operator.or_, (g for _, g in shifts), 0)
        differ += sum(folded[j] != rows[j] for j in range(len(masks)) if covered >> j & 1)
    assert differ


def test_shifted_lists_put_each_cover_first(monkeypatch):
    # _blocked reads each same-size cover of a candidate at an offset
    # below it, so every cover must be listed before its candidate: in
    # the layers, the power sets and every trace window that
    # max_uniform_product builds, with at most 8 elements.
    windows = set()
    monkeypatch.setattr(ekrcross.search, "_search",
                        lambda cands, *rest, **kwargs: windows.add(tuple(cands)))
    for n in range(1, 25):
        for k in range(1, n + 1):
            for t in range(max(1, 2 * k - 8), k + 1):
                max_uniform_product(n, k, t, SearchBudget(restrict_shifted=True))
    assert max(max(w) for w in windows) == 255
    lists = [*windows, *(subsets_of(n, k) for n in range(1, 9) for k in range(1, n + 1)),
             *(range(1 << n) for n in range(1, 9))]
    for cands in lists:
        index = {m: j for j, m in enumerate(cands)}
        for j, m in enumerate(cands):
            for b in range(m.bit_length() - 1):
                if m >> b + 1 & 1 and not m >> b & 1:
                    assert index[m ^ 3 << b] < j, (cands, m)


@pytest.mark.parametrize("search, args", [
    (max_uniform_product, (65, 3, 2)),
    (max_weight_product, (21, 1, Fraction(1, 3))),
])
def test_sizes_past_the_ground_limits_raise_before_the_search(monkeypatch, search, args):
    # Full mode lists the layer of [n], which the listing guard caps at 64
    # elements, and the weight search all 2^n sets, at most 2^20: both
    # must fail at once, not after a whole search (or once memory runs out).
    calls = []
    monkeypatch.setattr(ekrcross.search, "_search", lambda *rest, **kwargs: calls.append(rest))
    with pytest.raises(BudgetExceeded, match="limit"):
        search(*args, SearchBudget())
    assert calls == []


def test_shifted_search_rejects_a_list_out_of_order():
    layer = subsets_of(5, 2)[::-1]
    with pytest.raises(ValueError, match="cover"):
        ekrcross.search._search(layer, None, 1, SearchBudget(restrict_shifted=True), "F", None)


def test_covers_once_per_shifted_search(monkeypatch):
    # Set-up lists each candidate's covers once and builds no transitive
    # preds: 10 traces of (6, 3, 2) on [4], 16 sets of the power set of [4].
    calls = []
    covers = ekrcross.search._covers

    def counted(*args):
        calls.append(args)
        return covers(*args)

    monkeypatch.setattr(ekrcross.search, "_covers", counted)
    monkeypatch.setattr(ekrcross.search, "_dominance_preds", None)
    max_uniform_product(6, 3, 2, SearchBudget(restrict_shifted=True))
    max_weight_product(4, 2, Fraction(1, 4), SearchBudget(restrict_shifted=True))
    assert len(calls) == 10 + 16


def _oracle_ties(families, partner, weight):
    """Max, tie count and tied pairs of w(A) w(D(A)) over the closed
    ``families`` (A = D(D(A))), with D taken from
    ``setfam.maximal_cross_partner``."""
    scored = [(weight(a) * weight(b), frozenset((a.masks, b.masks)))
              for a in families for b in [partner(a)] if partner(b) == a]
    best = max(prod for prod, _ in scored)
    ties = {pair for prod, pair in scored if prod == best}
    return best, len(ties), ties


@pytest.mark.parametrize("kind, args", [
    ("uniform", (4, 2, 1)), ("uniform", (6, 3, 1)), ("uniform", (6, 3, 2)),
    ("uniform", (4, 2, 3)), ("weight", (4, 2, Fraction(1, 4))),
    ("weight", (5, 1, Fraction(1, 3))),
])
def test_shifted_ties_match_oracle(kind, args):
    # The branch and bound must keep every tie that scoring each closed
    # shift-closed family against its maximal partner finds; at (4, 2, 3)
    # nothing cross 3-intersects, and the one closed pair, (empty, layer),
    # ties at 0.
    if kind == "uniform":
        n, k, t = args
        r = max_uniform_product(n, k, t, SearchBudget(restrict_shifted=True))
        best, count, ties = _oracle_ties(iter_shifted_families(n, k=k),
                                         lambda a: maximal_cross_partner(a, t, k), len)
    else:
        n, t, p = args
        r = max_weight_product(n, t, p, SearchBudget(restrict_shifted=True))
        params = WeightParams(n, p)
        best, count, ties = _oracle_ties(iter_shifted_families(n, inclusion_maximal=True),
                                         lambda a: maximal_cross_partner(a, t),
                                         lambda f: mu(f, params))
    assert r.notes["mode"] == "shifted"
    assert (r.max_product, r.witness_count) == (best, count)
    assert {frozenset((a.masks, b.masks)) for a, b in r.witnesses} == ties


def test_shifted_count_past_the_witness_cap(monkeypatch):
    # At p = 1/2 and t = 1 some of the 31 tied pairs have A != D(A) and
    # equal weight, so the branch and bound scores them from both sides;
    # with one witness retained each must still count once.
    args = (6, 1, Fraction(1, 2), SearchBudget(restrict_shifted=True))
    assert max_weight_product(*args).witness_count == 31
    monkeypatch.setattr(ekrcross.search, "WITNESS_CAP", 1)
    r = max_weight_product(*args)
    assert (r.witness_count, len(r.witnesses)) == (31, 1)


@pytest.mark.parametrize("args, limit, shown", [
    ((9, 3, 1), 28, 1), ((9, 3, 1), 27, 0), ((65, 3, 2), 64, 1), ((65, 3, 2), 63, 0),
], ids=["28-1", "27-0", "65-3-2-64-1", "65-3-2-63-0"])
def test_witnesses_past_the_listing_limit_are_left_out(monkeypatch, args, limit, shown):
    # Shifted (9, 3, 1) settles on its traces at the star pair, C(8, 2) =
    # 28 sets a side; at n <= 64 a side is listed when it holds at most
    # the limit's sets.  Past 64 elements the rule bounds bits: (65, 3, 2)'s
    # sides hold C(63, 1) = 63 sets of 65 bits, and 63 x 65 > 63 x 64.  A
    # witness with a side past the rule is left out and counted in the
    # notes; the max, count and classes stay.
    monkeypatch.setattr(ekrcross.search, "_MATERIALIZE_LIMIT", limit)
    r = max_uniform_product(*args, SearchBudget(restrict_shifted=True))
    n, k, t = args
    best = math.comb(n - t, k - t) ** 2
    assert (r.max_product, r.witness_count, r.witness_classes) == (best, 1, ("F0",))
    assert (len(r.witnesses), r.notes.get("witnesses_omitted")) == (shown, (1 - shown) or None)


@pytest.mark.parametrize("n, k, t, best", [
    (10, 4, 2, 784), (11, 3, 1, 2025), (13, 5, 2, 27225),
])
def test_shifted_reach_above_the_boundary(n, k, t, best):
    # n > (t+1)(k-t+1): the star pair is the unique maximum, C(n-t, k-t)^2.
    r = max_uniform_product(n, k, t, SearchBudget(restrict_shifted=True, time_limit=30))
    assert best == math.comb(n - t, k - t) ** 2
    assert (r.max_product, r.witness_count, r.witness_classes) == (best, 1, ("F0",))


def test_shifted_reach_below_the_boundary():
    # n = 11 < (t+1)(k-t+1) = 12: F1, the 5-sets meeting [4] in at least
    # 3, beats the star's C(9, 3)^2 = 84^2.
    r = max_uniform_product(11, 5, 2, SearchBudget(restrict_shifted=True, time_limit=30))
    assert math.comb(9, 3) ** 2 < r.max_product == 91 ** 2
    assert r.witness_classes == ("F1",)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trace_search_matches_the_layer_search(data):
    # With 2k - t < n, shifted mode runs on the traces over [2k - t]; it
    # must find what shifted mode on the whole layer finds, and when every
    # tie is listed, the same witness families.
    n = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, n - 1))
    t = data.draw(st.integers(max(1, 2 * k - n + 1), k))
    shifted = SearchBudget(restrict_shifted=True)
    layer = subsets_of(n, k)
    want = ekrcross.search._search(layer, None, t, shifted, "F", lambda mask: Family(
        n, tuple(sorted(layer[i] for i in ekrcross.search._bits(mask))), k))
    got = max_uniform_product(n, k, t, shifted)
    assert got.notes["mode"] == want.notes["mode"] == "shifted"
    assert ((got.max_product, got.witness_count, got.witness_classes)
            == (want.max_product, want.witness_count, want.witness_classes))
    if want.witness_count <= len(want.witnesses):
        assert ({frozenset((a.masks, b.masks)) for a, b in got.witnesses}
                == {frozenset((a.masks, b.masks)) for a, b in want.witnesses})


def _trace_label(amask, traces, t):
    """0 if A is the traces holding [t], 1 if it is the traces meeting
    [t+2] in at least t+1 elements, else None: the star and window
    families of a shifted search, read on its traces."""
    core, window = (1 << t) - 1, (1 << t + 2) - 1
    if amask == _holding(traces, lambda c: c & core == core):
        return 0
    if amask == _holding(traces, lambda c: (c & window).bit_count() > t):
        return 1
    return None


@pytest.mark.parametrize("n, k, t, best, count, classes", [
    (30, 15, 14, 256, 2, ("F0", "F1")),
    (45, 16, 14, 216_225, 2, ("F0", "F1")),
    (60, 16, 14, 1_071_225, 1, ("F0",)),
    (15, 6, 2, 511_225, 2, ("F0", "F1")),
    (20, 6, 3, 462_400, 1, ("F0",)),
    (6, 3, 1, 100, 6, ("F0", "F1", "other")),
    (6, 3, 2, 16, 2, ("F0", "F1")),
    (5, 2, 1, 16, 1, ("F0",)),
    (36, 11, 8, 10_732_176, 2, ("F0", "F1")),
    (65, 3, 2, 3_969, 1, ("F0",)),
    (100, 17, 14, 10_473_475_600, 1, ("F0",)),
])
def test_shifted_traces_settle_and_keep_their_labels(monkeypatch, n, k, t, best, count, classes):
    # The first five lie at or above n = (t+1)(k-t+1), where the star is
    # optimal and F1 ties it on the boundary; three have t = 14.  On the
    # layer C(45, 16) sets cannot be listed, and (20, 6, 3)'s byte tables
    # outgrow memory.  The next three are the pinned shifted searches, and
    # (36, 11, 8) is the first boundary rung with k - t = 3.  The last two
    # lie past 64 elements, which n reaches only in binomial weights; their
    # star sides, C(n-t, k-t) sets of n bits, are listed as witnesses.
    # Every symmetric tie is labelled as its trace family: F0 holds [t],
    # F1 meets [t+2] in t+1.
    calls = []
    label = ekrcross.search._construction

    def recorded(amask, cands, t):
        calls.append((amask, cands, label(amask, cands, t)))
        return calls[-1][-1]

    monkeypatch.setattr(ekrcross.search, "_construction", recorded)
    r = max_uniform_product(n, k, t, SearchBudget(restrict_shifted=True, time_limit=30))
    assert r.notes["mode"] == "shifted"
    assert (r.max_product, r.witness_count, r.witness_classes) == (best, count, classes)
    assert all(len(a) * len(b) == best for a, b in r.witnesses)
    assert len(calls) == sum(a == b for a, b in r.witnesses) > 0
    for amask, traces, got in calls:
        assert max(traces) < 1 << 2 * k - t
        assert got == _trace_label(amask, traces, t), (n, k, t, amask)


def test_dominance_preds_on_traces_match_shifts_to():
    # A left shift keeps a trace in its size window lo..k on [m], so the
    # same-size order is shifts_to between traces of one size.  The
    # window misses the covers that add an element to a k-set, so the
    # whole order raises there rather than dropping them.
    for m in range(1, 7):
        for k in range(1, m + 1):
            for lo in range(k + 1):
                masks = [s for size in range(lo, k + 1) for s in subsets_of(m, size)]
                subs = [Subset(m, x) for x in masks]
                want = [sum(1 << j for j, sj in enumerate(subs)
                            if j != i and len(si) == len(sj) and shifts_to(si, sj))
                        for i, si in enumerate(subs)]
                assert ekrcross.search._dominance_preds(masks) == want, (m, lo, k)
                if k < m:
                    with pytest.raises(KeyError):
                        ekrcross.search._dominance_preds(masks, m)


@pytest.mark.parametrize("search, args", [
    (max_uniform_product, (7, 3, 1)),
    (max_weight_product, (5, 2, Fraction(1, 4))),
])
def test_shifted_inputs_match_their_definitions(monkeypatch, search, args):
    # The prefix rows are D({j} + preds[j]) over the same-size shifts and
    # the offset masks the covers read the other way, as handed to the
    # scorer by a real shifted search: on the traces of sizes 1 to 3 on
    # [5], or on the power set of [5].
    scorer, seen = ekrcross.search._best_closed, []
    cands = ([s for size in (1, 2, 3) for s in subsets_of(5, size)]
             if search is max_uniform_product else list(range(1 << 5)))

    def recorded(rows, weights, budget, **kwargs):
        seen.append((rows, kwargs))
        return scorer(rows, weights, budget, **kwargs)

    monkeypatch.setattr(ekrcross.search, "_best_closed", recorded)
    search(*args, SearchBudget(restrict_shifted=True))
    [(rows, kwargs)] = seen
    subs = [Subset(5, x) for x in cands]
    preds = [sum(1 << j for j, sj in enumerate(subs)
                 if j != i and len(si) == len(sj) and shifts_to(si, sj))
             for i, si in enumerate(subs)]
    t = args[2] if search is max_uniform_product else args[1]
    raw, full = compatibility_rows(cands, t), (1 << len(rows)) - 1
    assert rows == [ekrcross.search._partner(1 << j | p, raw, full) for j, p in enumerate(preds)]
    assert _read_back(kwargs["shifts"], len(cands)) == _covered_by(cands)


@st.composite
def _candidate_lists(draw):
    """Random set masks over [n], or one-hot masks of random words."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        return draw(st.lists(st.integers(0, (1 << n) - 1), max_size=14))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    words = draw(st.lists(st.tuples(*[st.integers(1, m)] * n), max_size=14))
    return [ekrcross.seq.onehot_mask(w, m) for w in words]


@given(_candidate_lists(), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_compatibility_rows_match_the_pairwise_definition(cands, t):
    want = [sum(1 << j for j, cj in enumerate(cands) if (ci & cj).bit_count() >= t)
            for ci in cands]
    assert compatibility_rows(cands, t) == want


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_compatibility_rows_match_the_definition_for_every_t_up_to_k(data):
    # Sets of sizes lo..k on [m], as the traces of a shifted search: at
    # t near k each row counts the few elements a candidate misses.
    m = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, m))
    lo, t = data.draw(st.integers(0, k)), data.draw(st.integers(1, k))
    pool = [s for size in range(lo, k + 1) for s in subsets_of(m, size)]
    cands = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    want = [sum(1 << j for j, cj in enumerate(cands) if (ci & cj).bit_count() >= t)
            for ci in cands]
    assert compatibility_rows(cands, t) == want


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_byte_tables_fold_like_the_direct_fold(data):
    # Fresh or partly filled tables fold x like AND from full or OR from
    # 0 over the masks of the bits of x, for L not a multiple of 8 and 0.
    size = data.draw(st.integers(0, 21))
    masks = data.draw(st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size))
    full = (1 << size) - 1
    unit, op = data.draw(st.sampled_from([(full, operator.and_), (0, operator.or_)]))
    tabs, fill = ekrcross.search._byte_tables(masks, unit, op)
    width = len(tabs)
    assert width == -(-size // 8) and all(tab[1:] == [None] * (len(tab) - 1) for tab in tabs)

    def fold(x):  # as the callers fold: one lookup per byte, filled on a TypeError
        raw = x.to_bytes(width, "little")
        try:
            return functools.reduce(op, map(list.__getitem__, tabs, raw), unit)
        except TypeError:
            return fill(raw)

    for x in data.draw(st.lists(st.integers(0, full), min_size=1, max_size=6)):
        want = functools.reduce(op, (masks[i] for i in range(size) if x >> i & 1), unit)
        assert fold(x) == want
        assert fold(x) == want  # now without a TypeError


@pytest.mark.parametrize("size", [0, 5, 8, 19])
def test_byte_tables_fill_only_what_a_fold_reads(size):
    # A fresh table calls op 0 times.  fill(bytes of x) calls it once per
    # slot it fills, at most 8 per byte of x, then once per nonzero byte.
    calls = []

    def op(a, b):
        calls.append(1)
        return a | b

    def filled():
        return sum(v is not None for tab in tabs for v in tab)

    masks = [1 << i for i in range(size)]
    tabs, fill = ekrcross.search._byte_tables(masks, 0, op)
    assert calls == [] and filled() == len(tabs)
    rng = random.Random(size)
    for x in [(1 << size) - 1, *(rng.getrandbits(size) for _ in range(5)), (1 << size) - 1]:
        data = x.to_bytes(len(tabs), "little")
        before, slots = len(calls), filled()
        assert fill(data) == x
        fills = filled() - slots
        assert fills <= 8 * len(data)
        assert len(calls) - before == fills + sum(map(bool, data))
    assert fills == 0  # a second fill of the same x fills nothing


@pytest.mark.parametrize("search, args, nodes", [
    (max_weight_product, (7, 2, Fraction(1, 4)), 119),
    (max_uniform_product, (11, 5, 2), 615),
    (max_uniform_product, (13, 5, 2), 67),
    (max_weight_product, (8, 1, Fraction(1, 3)), 16163),
], ids=["weight-7-2-1_4", "uniform-11-5-2", "uniform-13-5-2", "weight-8-1-1_3"])
def test_shifted_budget_counts_visited_nodes(search, args, nodes):
    # The blocked mask drops only children the canonicity test would
    # drop, so the walk visits exactly this many closed shift-closed sets.
    r = search(*args, SearchBudget(restrict_shifted=True, max_family_bits=nodes))
    assert r.notes["nodes"] == nodes
    with pytest.raises(BudgetExceeded):
        search(*args, SearchBudget(restrict_shifted=True, max_family_bits=nodes - 1))


@pytest.mark.parametrize("walk", [
    lambda: max_uniform_product(11, 5, 2, SearchBudget(restrict_shifted=True, time_limit=0.5)),
    lambda: list(iter_shifted_families(7, k=3, budget=SearchBudget(time_limit=0.5))),
], ids=["shifted-11-5-2", "downsets-7-3"])
def test_time_limit_binds_below_4096_nodes(monkeypatch, walk):
    # 615 and 352 nodes; the clock advances 1 s per reading, so the
    # first deadline check must stop the walk.
    clock = itertools.count()
    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: float(next(clock)))
    with pytest.raises(BudgetExceeded, match="time limit"):
        walk()


def test_downsets_check_the_clock_at_the_first_node(monkeypatch):
    # With no time left the walk must raise before its first family, as
    # the scorer does, not after the 255 it used to yield first.
    clock = itertools.count()
    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: float(next(clock)))
    families = iter_shifted_families(6, budget=SearchBudget(time_limit=0))
    with pytest.raises(BudgetExceeded, match="time limit"):
        next(families)


@pytest.mark.parametrize("walk", ["closed", "downsets"])
def test_time_limit_is_read_at_every_node(monkeypatch, walk):
    # The clock advances 1 s per row read.  A limit 0.5 s past the reads
    # made before the first node must stop either walk at its second
    # node, before the node budget of 2 does; a walk that read the clock
    # at nodes 1, 257, ... ran on into that budget.
    clock = [0.0]

    class Ticking(list):
        def __getitem__(self, j):
            clock[0] += 1.0
            return super().__getitem__(j)

    masks = subsets_of(7, 3)
    rows = Ticking(compatibility_rows(masks, 1) if walk == "closed"
                   else ekrcross.search._dominance_preds(masks))

    def run(budget):
        if walk == "closed":
            return ekrcross.search._best_closed(rows, None, budget)
        return list(ekrcross.search._downsets(rows, budget))

    with pytest.raises(BudgetExceeded, match="max_family_bits=0"):
        run(SearchBudget(max_family_bits=0))
    first, clock[0] = clock[0], 0.0
    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: clock[0])
    with pytest.raises(BudgetExceeded, match="time limit"):
        run(SearchBudget(max_family_bits=2, time_limit=first + 0.5))


PHASES = ["_shifted_rows", "_covers", "_best_closed"]


@pytest.mark.parametrize("slow", PHASES[:-1])
def test_time_limit_counts_each_set_up_phase(monkeypatch, slow):
    # Shifted (9, 4, 2) walks a handful of nodes.  A phase that takes
    # 1 s on the clock under a 0.5 s limit must stop the search before
    # the next phase starts, not at the walk's first node.  The
    # covers loop is timed through _covers, which it calls once per
    # candidate.
    clock, ran = [0.0], []

    def timed(name, phase):
        def run(*args, **kwargs):
            ran.append(name)
            clock[0] += 1.0 if name == slow else 0.0
            return phase(*args, **kwargs)
        return run

    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: clock[0])
    for name in PHASES:
        monkeypatch.setattr(ekrcross.search, name, timed(name, getattr(ekrcross.search, name)))
    budget = SearchBudget(restrict_shifted=True, time_limit=0.5)
    with pytest.raises(BudgetExceeded, match="time limit"):
        max_uniform_product(9, 4, 2, budget)
    assert list(dict.fromkeys(ran)) == PHASES[:PHASES.index(slow) + 1]
    ran.clear()
    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: 0.0)
    assert max_uniform_product(9, 4, 2, budget).notes["mode"] == "shifted"
    assert list(dict.fromkeys(ran)) == PHASES


def test_walk_gets_only_the_time_left(monkeypatch):
    # Set-up takes 0.3 s of a 0.5 s limit, so the walk runs under 0.2 s;
    # a walk checks the clock at its first node.
    clock, scorer, limits = [0.0], ekrcross.search._best_closed, []
    build = ekrcross.search._shifted_rows

    def slow_rows(*args):
        clock[0] += 0.3
        return build(*args)

    def recorded(rows, weights, budget, **kwargs):
        limits.append(budget.time_limit)
        return scorer(rows, weights, budget, **kwargs)

    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(ekrcross.search, "_shifted_rows", slow_rows)
    monkeypatch.setattr(ekrcross.search, "_best_closed", recorded)
    r = max_uniform_product(6, 3, 2, SearchBudget(restrict_shifted=True, time_limit=0.5))
    assert r.notes["mode"] == "shifted" and limits == [pytest.approx(0.2)]
    ticking = itertools.count()
    monkeypatch.setattr(ekrcross.search.time, "monotonic", lambda: float(next(ticking)))
    with pytest.raises(BudgetExceeded, match="time limit"):
        scorer(compatibility_rows(subsets_of(4, 2), 1), None, SearchBudget(time_limit=0.5))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_blocked_mask_admits_exactly_the_canonical_children(data):
    # For A closed under the same-size shifts, child j passes the
    # canonicity prefilter when j forces no candidate below j that A
    # lacks; the mask, read from the offset masks a shifted search hands
    # its walk, must block every other j.
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.none() | st.integers(1, n)) if n <= 6 else data.draw(st.integers(1, n))
    masks = list(range(1 << n)) if k is None else subsets_of(n, k)
    preds = ekrcross.search._dominance_preds(masks)
    picks = data.draw(st.lists(st.integers(0, len(masks) - 1), max_size=6))
    a = functools.reduce(operator.or_, (1 << i | preds[i] for i in picks), 0)
    free = (1 << len(masks)) - 1 & ~a
    want = sum(1 << j for j in range(len(masks))
               if free >> j & 1 and not preds[j] & ~a & (1 << j) - 1)
    with pytest.MonkeyPatch.context() as patch:
        _, shifts = _shifted_inputs(patch, masks, 1)
    assert free & ~ekrcross.search._blocked(shifts, len(masks))(a) == want


@pytest.mark.parametrize("n, k, same", [
    *[(n, None, same) for n in range(1, 7) for same in (False, True)],
    *[(n, k, True) for n in range(1, 8) for k in range(1, n + 1)],
])
def test_dominance_preds_match_shifts_to(n, k, same):
    # The power set (k None) layer by layer or with supersets, and each layer.
    masks = list(range(1 << n)) if k is None else subsets_of(n, k)
    subs = [Subset(n, m) for m in masks]
    want = [sum(1 << j for j, sj in enumerate(subs)
                if j != i and shifts_to(si, sj) and not (same and len(si) != len(sj)))
            for i, si in enumerate(subs)]
    assert ekrcross.search._dominance_preds(masks, 0 if same else n) == want


def _closed_within(x, preds):
    """Each subfamily of x closed under preds, by testing all 2^|x| of
    them at once: bit y of has[i] says whether the y-th one holds i."""
    idx = ekrcross.search._bits(x)
    size = 1 << len(idx)
    has = {i: int(("1" * (1 << r) + "0" * (1 << r)) * (size >> r + 1), 2)
           for r, i in enumerate(idx)}
    ok = (1 << size) - 1
    for i in idx:
        ok &= ~has[i] | functools.reduce(
            operator.and_, (has.get(p, 0) for p in ekrcross.search._bits(preds[i])), ok)
    return {sum(1 << i for r, i in enumerate(idx) if y >> r & 1)
            for y in ekrcross.search._bits(ok)}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_downsets_within_a_downset_are_its_closed_subfamilies(data):
    # On layers with n <= 6 and power sets with n <= 4, under the
    # same-size order and (power sets) the whole one, the walk within a
    # downset x (every candidate when no pick is drawn) must yield each
    # subfamily of x closed under preds exactly once.
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.none() | st.integers(1, n)) if n <= 4 else data.draw(st.integers(1, n))
    masks = list(range(1 << n)) if k is None else subsets_of(n, k)
    preds = ekrcross.search._dominance_preds(masks, n if k is None and data.draw(st.booleans()) else 0)
    picks = data.draw(st.lists(st.integers(0, len(masks) - 1), max_size=3))
    x = functools.reduce(operator.or_, (1 << i | preds[i] for i in picks), 0)
    got = list(ekrcross.search._downsets(preds, SearchBudget(), x if picks else None))
    want = _closed_within(x if picks else (1 << len(masks)) - 1, preds)
    assert len(got) == len(set(got)) and set(got) == want, (masks, x)


class TestPartnerOperator:
    @given(st.data())
    @settings(max_examples=40)
    def test_antitone_and_idempotent(self, data):
        n, k, t = 5, 2, data.draw(st.integers(1, 2))
        layer = subsets_of(n, k)
        masks_a = data.draw(st.sets(st.sampled_from(layer), max_size=5))
        masks_b = data.draw(st.sets(st.sampled_from(layer), max_size=5))
        a = Family(n, tuple(sorted(masks_a)), k)
        b = Family(n, tuple(sorted(masks_b | masks_a)), k)   # a <= b
        da = maximal_cross_partner(a, t, k)
        db = maximal_cross_partner(b, t, k)
        assert set(db.masks) <= set(da.masks)   # antitone
        assert maximal_cross_partner(maximal_cross_partner(da, t, k), t, k) == da

    def test_layer_maximality_of_threshold_families(self):
        # each threshold family is its own maximal partner once the
        # ground set has room (n >= 2k-t+2); below that the whole layer
        # can be t-intersecting and maximality genuinely fails
        for n in range(4, 8):
            for k in range(2, n):
                for t in range(1, k + 1):
                    for i in range(0, k - t + 1):
                        if t + 2 * i > n or n < 2 * k - t + 2:
                            continue
                        f = make_threshold_family(n, t, i, k)
                        if not f.masks:
                            continue
                        assert maximal_cross_partner(f, t, k) == f, (n, k, t, i)

    def test_maximality_needs_room(self):
        # boundary counterexample: all 3-subsets of [4] pairwise meet,
        # so the star is not maximal 1-intersecting there
        star = make_threshold_family(4, 1, 0, 3)
        partner = maximal_cross_partner(star, 1, 3)
        assert len(partner) == 4 and set(star.masks) < set(partner.masks)


class TestShiftedEnumeration:
    def test_counts_small(self):
        assert len(list(iter_shifted_families(3))) == 64
        assert len(list(iter_shifted_families(4))) == 800

    def test_all_shifted_and_complete(self):
        # cross-check the enumerator against brute-force filtering
        n = 4
        enumerated = {f.masks for f in iter_shifted_families(n)}
        brute = set()
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            if is_shifted(Family(n, masks, None)):
                brute.add(masks)
        assert enumerated == brute

    def test_inclusion_maximal_mode(self):
        for f in iter_shifted_families(4, inclusion_maximal=True):
            assert is_shifted(f) and is_inclusion_maximal(f)

    def test_uniform_mode(self):
        fams = list(iter_shifted_families(5, k=2))
        assert all(is_shifted(f) and (f.k == 2) for f in fams)
        assert len(fams) == len({f.masks for f in fams})


class _CountingRandom(random.Random):
    """``random.Random`` that logs the generator's draws.  Overriding
    ``getrandbits`` keeps the base class's bit-based integer draws, so
    the stream is the base class's."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def getrandbits(self, k):
        return super().getrandbits(k)

    def random(self):
        self.draws.append(("random",))
        return super().random()

    def randint(self, a, b):
        self.draws.append(("randint", a, b))
        return super().randint(a, b)

    def sample(self, population, k):
        self.draws.append(("sample", tuple(population), k))
        return super().sample(population, k)


def _reference_stream(n, k, t, count, rng):
    """``generate_shifted_pairs`` with its fixpoint memo keyed by the
    seed's members and no early stop: the loop runs until ``count``
    pairs or the attempt cap.  The checks on emitted pairs are left out."""
    cands = subsets_of(n, k) if k is not None else list(range(1 << n))
    preds = ekrcross.search._dominance_preds(cands, n if k is None else 0)
    index = {m: i for i, m in enumerate(cands)}
    fixpoints = {}
    pairs, seen, attempts = [], set(), 0

    def shrink(masks):
        if len(masks) <= 1 or rng.random() < 0.4:
            return masks
        take = rng.randint(1, len(masks))
        sample = rng.sample(masks, take)
        chosen = 0
        for m in sample:
            i = index[m]
            chosen |= (1 << i) | preds[i]
        return tuple(sorted(cands[i] for i in ekrcross.search._bits(chosen)))

    def fixpoint(members):
        b0 = maximal_cross_partner(Family(n, members, k), t, k)
        if not b0.masks:
            return None
        a0 = maximal_cross_partner(b0, t, k)
        if not a0.masks:
            return None
        a, b, _ = shift_pair_to_fixpoint(a0, b0)
        if not a.masks or not b.masks:
            return None
        return a.masks, b.masks

    while len(pairs) < count and attempts < 400 * count + 100:
        attempts += 1
        seed_masks = rng.sample(cands, rng.randint(1, min(3, len(cands))))
        members = tuple(sorted(set(seed_masks)))
        if members not in fixpoints:
            fixpoints[members] = fixpoint(members)
        shifted = fixpoints[members]
        if shifted is None:
            continue
        key = (shrink(shifted[0]), shrink(shifted[1]))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    return pairs


def _reachable_pairs(n, k, t):
    """Every pair an attempt can emit in the k-layer, from the setfam
    chain of every seed of one to three members: a side of one member
    as it is, else each of its nonempty shifted subfamilies."""
    def shrinks(masks):
        if len(masks) <= 1:
            return [masks]
        subs = (sub for r in range(1, len(masks) + 1) for sub in itertools.combinations(masks, r))
        return [sub for sub in subs if is_shifted(Family(n, sub, k))]

    fixpoints = set()
    for r in (1, 2, 3):
        for seed in itertools.combinations(sorted(subsets_of(n, k)), r):
            b0 = maximal_cross_partner(Family(n, seed, k), t, k)
            a0 = maximal_cross_partner(b0, t, k)
            if b0.masks and a0.masks:
                a, b, _ = shift_pair_to_fixpoint(a0, b0)
                fixpoints.add((a.masks, b.masks))
    return {key for a, b in fixpoints for key in itertools.product(shrinks(a), shrinks(b))}


def _index_mask(n, k, masks):
    """The generator's index mask of ``masks`` among its candidates."""
    cands = subsets_of(n, k) if k is not None else list(range(1 << n))
    return sum(1 << cands.index(m) for m in masks)


def _attempts(rng, n, k):
    cands = tuple(subsets_of(n, k) if k is not None else range(1 << n))
    return sum(d[0] == "sample" and d[1] == cands for d in rng.draws)


CRITERION_7 = ((5, None, 1), (5, None, 2), (6, None, 1), (6, None, 2),
               (6, 3, 1), (6, 3, 2), (6, 2, 1), (5, 2, 1))


class TestGeneratedPairs:
    def test_determinism(self):
        a = generate_shifted_pairs(5, None, 2, 12, seed=7)
        b = generate_shifted_pairs(5, None, 2, 12, seed=7)
        assert [(x.masks, y.masks) for x, y in a] == [(x.masks, y.masks) for x, y in b]
        c = generate_shifted_pairs(5, None, 2, 12, seed=8)
        assert a != c

    def test_postconditions(self):
        for k in (None, 3):
            for a, b in generate_shifted_pairs(6, k, 2, 15, seed=3):
                assert is_shifted(a) and is_shifted(b)
                assert is_cross_t_intersecting(a, b, 2)
                if k is None:
                    assert is_inclusion_maximal(a) and is_inclusion_maximal(b)

    def test_line_level_sum(self):
        for a, b in generate_shifted_pairs(6, None, 2, 15, seed=5):
            assert lambda_family(a) + lambda_family(b) >= 4
        for a, b in generate_shifted_pairs(6, 3, 2, 10, seed=5):
            assert lambda_family(a) + lambda_family(b) >= 4

    # sha256 of repr([(a.masks, b.masks), ...]) for the criterion-7
    # configurations at count 80 and seed 100 + idx, recorded before the
    # generator memoized its fixpoints; any change to the stream shows.
    PINNED_STREAMS = (
        ((5, None, 1), 80, "a32da4c8b8e206db0c11243b5be4b788bbb65c16a2b154211089f06bc06956e6"),
        ((5, None, 2), 80, "ecaafaf2aa6878a5e28d55056885f61d279cba105bf76cb1fc8945cb40ef3929"),
        ((6, None, 1), 80, "81101f2cd021f8ecba297852c58a787b54265187f0052b704d2c68b10efb6fd6"),
        ((6, None, 2), 80, "b321557ed76dc246514b98f506325b52c9d0d626bac25d04625854c198a5e2f0"),
        ((6, 3, 1), 80, "dfaeee98f8acf63c0f1296c4c74aecbf4ec8d6d9d2b6951e2ae4a3f735149fb8"),
        ((6, 3, 2), 64, "ba10b177015ac7bd5f98b71e5d125498c906ab34967424174efa9158c8235aee"),
        ((6, 2, 1), 48, "123f8fbda00525a1342144dbd45d586c72e8de43a0b565f8a03a330ff73e9c81"),
        ((5, 2, 1), 32, "7adb40bdbc7daf0d60fab0247d19e81e7992df822fa4b09e391272d37e94b3eb"),
    )

    def test_pinned_streams(self):
        for idx, ((n, k, t), size, digest) in enumerate(self.PINNED_STREAMS):
            pairs = generate_shifted_pairs(n, k, t, 80, seed=100 + idx)
            masks = [(a.masks, b.masks) for a, b in pairs]
            assert len(masks) == size, (n, k, t)
            assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest, (n, k, t)

    @pytest.mark.parametrize("n, k, t", [(5, None, 1), (6, 3, 2)])
    def test_checks_run_under_the_memo(self, monkeypatch, n, k, t):
        # A single member containing n is never shifted, and a
        # one-member side is never shrunk, so the generator must refuse
        # the first pair it would emit.
        calls = []
        lone = _index_mask(n, k, [mask_of([*range(1, (k or 1)), n], n)])

        def unshifted(x, y, moves):
            calls.append((x, y))
            return lone, lone

        monkeypatch.setattr(ekrcross.search, "_shift_fixpoint", unshifted)
        with pytest.raises(RuntimeError, match="not shifted"):
            generate_shifted_pairs(n, k, t, 10, seed=1)
        assert calls

    @pytest.mark.parametrize("n, k, t", [(5, None, 1), (6, 3, 2)])
    def test_unclosed_fixpoint_gives_up_the_stop(self, monkeypatch, n, k, t):
        # A two-member side that is not closed under the dominance order:
        # shrink can leave it, so the stop set is given up.  The other
        # side is one unshifted member, never shrunk, so the shift check
        # refuses the first pair.  At count 80 there are fewer seeds than
        # attempts, so the seeds are walked and the side is reached.
        base = list(range(1, k or 1))
        side = sorted(mask_of([*base, j], n) for j in (n - 1, n))
        lone = [mask_of([*base, n], n)]
        assert not is_shifted(Family(n, tuple(side), k))
        shifted = _index_mask(n, k, side), _index_mask(n, k, lone)
        monkeypatch.setattr(ekrcross.search, "_shift_fixpoint", lambda x, y, moves: shifted)
        for seed in range(10):
            with pytest.raises(RuntimeError, match="not shifted"):
                generate_shifted_pairs(n, k, t, 80, seed)

    # (5, 2, 1), (6, 2, 1) and (6, 3, 2) hold 32, 48 and 64 reachable
    # pairs, and (4, None, 2), (5, 3, 2) and (7, 3, 2) hold 66, 32 and 105:
    # counts up to that give U up, counts above it stop on U (at these
    # seeds before the cap); then criterion 7 at 80.
    @pytest.mark.parametrize("n, k, t, count, seed", [
        *[(5, 2, 1, c, 0) for c in (20, 32, 33)],
        *[(6, 2, 1, c, 2) for c in (30, 48)],
        *[(6, 3, 2, c, 3) for c in (40, 64)],
        *[(4, None, 2, c, 9) for c in (40, 67)],
        *[(5, 3, 2, c, 5) for c in (20, 33)],
        *[(7, 3, 2, c, 5) for c in (80, 106)],
        *[(*cfg, 80, 7 + idx) for idx, cfg in enumerate(CRITERION_7)],
    ])
    def test_stream_matches_the_reference(self, n, k, t, count, seed):
        pairs = generate_shifted_pairs(n, k, t, count, seed)
        want = _reference_stream(n, k, t, count, random.Random(seed))
        assert [(a.masks, b.masks) for a, b in pairs] == want

    @pytest.fixture
    def counting(self, monkeypatch):
        made = []

        def make(seed):
            made.append(_CountingRandom(seed))
            return made[-1]

        monkeypatch.setattr(ekrcross.search, "random", SimpleNamespace(Random=make))
        return made

    def test_stop_fires_once_every_pair_is_out(self, counting):
        cap = 400 * 80 + 100
        pairs = generate_shifted_pairs(5, 2, 1, 80, seed=0)
        ref = _CountingRandom(0)
        assert [(a.masks, b.masks) for a, b in pairs] == _reference_stream(5, 2, 1, 80, ref)
        assert len(pairs) == 32
        assert _attempts(ref, 5, 2) == cap
        assert _attempts(counting[0], 5, 2) < cap
        assert counting[0].draws == ref.draws[:len(counting[0].draws)]
        # Far more than 80 pairs: the stop is given up, every draw is made.
        generate_shifted_pairs(5, None, 1, 80, seed=0)
        ref = _CountingRandom(0)
        _reference_stream(5, None, 1, 80, ref)
        assert counting[1].draws == ref.draws

    @pytest.mark.parametrize("n, k, t", [(5, 2, 1), (6, 2, 1), (6, 3, 2)])
    def test_stop_set_is_every_reachable_pair(self, counting, n, k, t):
        # Below the cap a run with count above |U| ends only by the stop,
        # which fires once it has emitted all of U, so each run's pairs
        # are U; they must be every pair the chain can reach.
        reachable = _reachable_pairs(n, k, t)
        emitted = set()
        for seed in range(5):
            pairs = {(a.masks, b.masks) for a, b in generate_shifted_pairs(n, k, t, 80, seed)}
            assert _attempts(counting[-1], n, k) < 400 * 80 + 100
            assert pairs == reachable, seed
            emitted |= pairs
        assert emitted == reachable


# The generator's candidate spaces: power sets, and the criterion-7 layers.
SHIFT_SPACES = (*[(n, None, t) for n in range(1, 7) for t in (1, 2)],
                *[cfg for cfg in CRITERION_7 if cfg[1] is not None])


class TestShiftKernel:
    """The generator's index-mask chain against its setfam oracle."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_setfam(self, data):
        n, k, t = data.draw(st.sampled_from(SHIFT_SPACES))
        cands = subsets_of(n, k) if k is not None else list(range(1 << n))
        full = (1 << len(cands)) - 1
        x, y = data.draw(st.integers(0, full)), data.draw(st.integers(0, full))

        def fam(z):
            return Family(n, tuple(sorted(cands[i] for i in ekrcross.search._bits(z))), k)

        a, b, _ = shift_pair_to_fixpoint(fam(x), fam(y))
        sx, sy = ekrcross.search._shift_fixpoint(x, y, ekrcross.search._shift_moves(cands, n))
        assert (fam(sx), fam(sy)) == (a, b)
        partner = ekrcross.search._partner(x, compatibility_rows(cands, t), full)
        assert fam(partner) == maximal_cross_partner(fam(x), t, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shift_targets_lie_below_their_sources(self, n):
        # _shift_fixpoint reads a source's target as x << d, so d > 0.
        for cands in (list(range(1 << n)), *(subsets_of(n, k) for k in range(1, n + 1))):
            index = {m: q for q, m in enumerate(cands)}
            for i, j in itertools.combinations(range(n), 2):
                for q, m in enumerate(cands):
                    if m >> j & 1 and not m >> i & 1:
                        assert index[m ^ (1 << i | 1 << j)] < q, (n, m, i, j)
            assert all(d > 0 for d, _ in ekrcross.search._shift_moves(cands, n))


class TestReferenceFamilyRigidity:
    def test_partner_fixes_threshold_families(self):
        # cross-t partner of equal size forces equality, tested through
        # the partner operator over a sweep of small parameters within
        # the n >= 2k-t+2 room condition
        for n in range(4, 8):
            for k in range(2, min(4, n) + 1):
                for t in range(1, k + 1):
                    for i in range(0, k - t + 1):
                        if t + 2 * i > n or n < 2 * k - t + 2:
                            continue
                        f = make_threshold_family(n, t, i, k)
                        if f.masks:
                            assert maximal_cross_partner(f, t, k) == f

    @staticmethod
    def _preimages(f: Family, i: int, j: int, k):
        """Families g with the (i, j) compression mapping g onto f."""
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        present = set(f.masks)
        movable = [
            m
            for m in f.masks
            if m & bi and not m & bj and ((m ^ bi) | bj) not in present
        ]
        out = []
        for r in range(len(movable) + 1):
            for combo in itertools.combinations(movable, r):
                masks = (set(f.masks) - set(combo)) | {
                    (m ^ bi) | bj for m in combo
                }
                g = Family(f.n, tuple(sorted(masks)), k)
                if shift_ij(g, (i, j)) == f:
                    out.append(g)
        return out

    def test_uniform_compression_uniqueness(self):
        # pairs compressing to the same reference family must coincide
        # with it up to relabeling (needs n >= 2k-t+2, t >= 2)
        for n, k, t, level in ((6, 3, 2, 0), (7, 3, 2, 0), (7, 3, 2, 1)):
            f = make_threshold_family(n, t, level, k)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    pre = self._preimages(f, i, j, k)
                    for a in pre:
                        for b in pre:
                            if is_cross_t_intersecting(a, b, t):
                                assert a == b
                                assert are_isomorphic(a, f) is not None

    def test_weight_compression_uniqueness(self):
        for n, t, level in ((4, 2, 0), (5, 2, 0), (5, 2, 1)):
            f = make_threshold_family(n, t, level)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    pre = self._preimages(f, i, j, None)
                    for a in pre:
                        for b in pre:
                            if is_cross_t_intersecting(a, b, t):
                                assert a == b
                                assert are_isomorphic(a, f) is not None
