"""Exhaustive desk-scale searches for extremal cross t-intersecting pairs.

The key reduction: for a fixed family A, the best partner is the full
compatibility intersection D(A) (every candidate meeting all of A in at
least t elements), and an optimal pair is closed: B = D(A), A = D(B).
This holds for the k-uniform count, for the p-weight product measure
and for sequence families (``seq`` encodes words as one-hot masks), so
one closed-pair engine serves all three searches:

- ``_best_closed`` walks the closed sets (the intersections of the
  per-candidate compatibility rows) depth first by Close-by-One,
  carrying D(A) and both weights, as a branch and bound that maximizes
  the product w(A) w(D(A)) and keeps the tied pairs (full mode);
- ``_downsets`` walks the shift-closed families depth first, carrying
  D(A) and both weights, and ``_best_shifted`` runs it as a branch and
  bound (shifted mode);
- ``_search`` picks the mode (shifted, falling back to every closed set
  when some partner is not shift-closed) and ``_finish`` builds the
  ``SearchResult``.

That is exact: any cross-t pair (A0, B0) embeds into the visited pair
(D(B0), D(D(B0))) with no smaller product.  All objective arithmetic is
integral (weights are scaled to integers), so maxima and ties are exact.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .setfam import (
    BudgetExceeded,
    Family,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    mask_of,
    maximal_cross_partner,
    shift_pair_to_fixpoint,
    shifts_to,  # noqa: F401  kept bound here: perfbench's tracer self-test rebinds it
)

DEFAULT_NODE_CAP = 1 << 22
WITNESS_CAP = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive searches.

    ``max_family_bits`` bounds the number of enumeration nodes visited:
    closed sets in full mode and shift-closed families in shifted mode,
    where the branch and bounds prune many of them, and in
    ``iter_shifted_families``.  ``time_limit`` is wall-clock seconds.
    """

    max_family_bits: int = DEFAULT_NODE_CAP
    restrict_shifted: bool = False
    time_limit: Optional[float] = None


@dataclass
class SearchResult:
    """Outcome of one extremal search.

    ``witnesses`` hold maximal pairs up to the retention cap;
    ``witness_count`` counts all distinct maximal closed pairs found;
    ``witness_classes`` are the construction labels attained by them.
    """

    max_product: Union[int, Fraction]
    witnesses: list[tuple[Family, Family]]
    matched_construction: Optional[str]
    exhaustive: bool
    witness_count: int = 0
    witness_classes: tuple[str, ...] = ()
    elapsed_ms: float = 0.0
    notes: dict = field(default_factory=dict)


class _Deadline:
    def __init__(self, budget: SearchBudget):
        self.t0 = time.monotonic()
        self.limit = budget.time_limit

    def check(self) -> None:
        if self.limit is not None and time.monotonic() - self.t0 > self.limit:
            raise BudgetExceeded("time limit exceeded")


def _weight_sum(mask: int, weights: Sequence[int]) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _partner(mask: int, rows: Sequence[int], full: int) -> int:
    out = full
    while mask:
        low = mask & -mask
        out &= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _chunk_tables(values: Sequence[int], combine: Callable[[int, int], int],
                  unit: int) -> list[list[int]]:
    """tabs[c][v] folds ``combine`` from ``unit`` over values[8c + b] for
    the bits b of the byte v, so a fold over the bits of a mask takes one
    lookup per byte."""
    tabs = []
    for c in range(0, len(values), 8):
        tab = [unit] * 256
        for v in range(1, 256):
            b = c + (v & -v).bit_length() - 1
            tab[v] = combine(tab[v & v - 1], values[b]) if b < len(values) else tab[v & v - 1]
        tabs.append(tab)
    return tabs


def _best_closed(rows: Sequence[int], weights: Optional[Sequence[int]],
                 budget: SearchBudget) -> tuple[int, list, int, int]:
    """Full mode's scorer (see ``_search``): a Close-by-One branch and
    bound over the closed sets, the intersections of rows, as index
    masks; returns (best, pairs, count, nodes visited).

    It walks depth first from (D(full), full), carrying (A, D(A), w(A),
    w(D(A))).  A child adds a j not in A above the one that made A:
    D(A') = D(A) & rows[j] and A' = D(D(A')), a lookup per byte.  It is
    canonical, so each closed set is reached once, when A' holds no new
    candidate below j.  Weights None means counting measure.
    """
    full = (1 << len(rows)) - 1
    and_tabs = _chunk_tables(rows, operator.and_, full)
    size = len(and_tabs)

    def d(x: int) -> int:
        out = full
        for tab, byte in zip(and_tabs, x.to_bytes(size, "little")):
            out &= tab[byte]
        return out

    if weights is None:
        w = int.bit_count
    else:
        sum_tabs = _chunk_tables(weights, operator.add, 0)

        def w(x: int) -> int:
            return sum([tab[byte] for tab, byte in zip(sum_tabs, x.to_bytes(size, "little"))])

    cap = WITNESS_CAP
    deadline = _Deadline(budget)
    best = ties = split = visited = 0
    kept: list[tuple[int, int]] = []  # the cap least tied pairs, negated: a max-heap
    root = d(full)
    stack = [(root, full, w(root), w(full), 0)]
    while stack:
        a, b, wa, wb, start = stack.pop()
        if wb * wb < best:
            continue
        visited += 1
        if visited > budget.max_family_bits:
            raise BudgetExceeded(
                f"closed-set search exceeds max_family_bits={budget.max_family_bits}")
        if visited & 0xFFF == 0:
            deadline.check()
        prod = wa * wb
        if prod > best:
            best, ties, split, kept = prod, 0, 0, []
        if prod == best and (wa < wb or wa == wb and a <= b):
            ties, split = ties + 1, split + (a != b)
            pair = (-a, -b) if a <= b else (-b, -a)
            if len(kept) < cap:
                heapq.heappush(kept, pair)
            else:
                heapq.heappushpop(kept, pair)
        free = full & ~a >> start << start
        while free:
            j = free.bit_length() - 1
            free ^= 1 << j
            nb = b & rows[j]
            wnb = w(nb)
            if wnb * wnb < best:
                continue
            na = d(nb)
            if (na ^ a) & ((1 << j) - 1):
                continue
            wna = w(na)
            if not wna > wnb > 0:
                stack.append((na, nb, wna, wnb, j + 1))
    pairs = sorted((-x, -y) for x, y in kept)
    return best, pairs, ties + split - sum(x != y for x, y in pairs), visited


# ---------------------------------------------------------------------------
# shift-closed enumeration (downsets of the dominance order)
# ---------------------------------------------------------------------------


def _linear_extension(masks: Sequence[int]) -> list[int]:
    """Candidate indices, larger and then lefter sets first: each comes
    after every candidate it forces."""
    return sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), sum(_bits(masks[i]))))


def _dominance_preds(masks: Sequence[int], n: int, same_size_only: bool) -> list[int]:
    """preds[i] = index mask of candidates forced by including candidate i.

    Candidate j is forced by i when the set of i shifts to the set of j
    (``setfam.shifts_to``); a shift-closed family containing i must
    contain j.  The order is generated by its covers (move one element
    one step left; unless ``same_size_only``, add one element), so
    preds[i] is the union of {j} and preds[j] over the covers j of i,
    filled in linear-extension order.  ``masks`` must be a layer or the
    power set, which hold the covers of their members.
    """
    index = {m: i for i, m in enumerate(masks)}
    preds = [0] * len(masks)
    for i in _linear_extension(masks):
        m = masks[i]
        covers = [m - (1 << (b - 1)) for b in _bits(m) if b and not m >> (b - 1) & 1]
        if not same_size_only:
            covers += [m | 1 << e for e in range(n) if not m >> e & 1]
        for c in covers:
            preds[i] |= 1 << index[c] | preds[index[c]]
    return preds


def _downsets(masks: Sequence[int], preds: Sequence[int], rows: Sequence[int],
              weights: Optional[Sequence[int]], budget: SearchBudget,
              prune: Callable[[int, int], bool]) -> Iterable[tuple[int, ...]]:
    """Every family A closed under ``preds``, depth first and each once,
    as (A, D(A), w(A), w(D(A)), the bits D(A) dropped from its parent's)
    with A and D(A) index masks.

    A child adds a candidate later in the linear extension than A's last
    one, with all it forces already in A, so every path prefix is closed.
    It costs one AND with the candidate's row and the weight of the bits
    that drops from D(A).  A node with ``prune(w(A), w(D(A)))`` is
    skipped with its subtree, so ``prune`` must stay true down the tree.
    """
    order = _linear_extension(masks)
    if weights is None:
        weights = [1] * len(masks)
    full = (1 << len(masks)) - 1
    deadline = _Deadline(budget)
    visited = 0
    stack = [(0, 0, full, 0, sum(weights), 0)]
    while stack:
        pos, a, b, wa, wb, dropped = stack.pop()
        if prune(wa, wb):
            continue
        visited += 1
        if visited > budget.max_family_bits:
            raise BudgetExceeded(f"downset search exceeds max_family_bits={budget.max_family_bits}")
        if visited & 0xFFF == 0:
            deadline.check()
        yield a, b, wa, wb, dropped
        for q in range(len(order) - 1, pos - 1, -1):
            i = order[q]
            if not preds[i] & ~a:
                lost = b & ~rows[i]
                stack.append((q + 1, a | 1 << i, b ^ lost, wa + weights[i],
                              wb - _weight_sum(lost, weights), lost))


def _best_shifted(cands: Sequence[int], n: int, t: int, rows: Sequence[int],
                  weights: Optional[Sequence[int]], budget: SearchBudget,
                  same_size_only: bool) -> tuple[int, list, int, int, int]:
    """Shifted mode's ``_best_pairs`` (see ``_search``); also returns the
    number of nodes whose partner D(A) is not shift-closed while their
    parent's is, which is 0 exactly when every visited partner is
    shift-closed.  Given a closed parent partner, D(A) is closed unless
    it holds a candidate forcing one of the bits it dropped."""
    preds = _dominance_preds(cands, n, same_size_only)
    forcers = [0] * len(cands)
    for i, p in enumerate(preds):
        for j in _bits(p):
            forcers[j] |= 1 << i
    core = (1 << t) - 1
    star = sum(1 if weights is None else weights[i]
               for i, c in enumerate(cands) if c & core == core)
    best, count, visited, violations = star * star, 0, 0, 0
    argmax: set[tuple[int, int]] = set()

    def prune(wa: int, wb: int) -> bool:
        return wb * wb < best or wa > wb > 0

    for a, b, wa, wb, dropped in _downsets(cands, preds, rows, weights, budget, prune):
        visited += 1
        violations += any(forcers[j] & b for j in _bits(dropped))
        prod = wa * wb
        if prod < best:
            continue
        pair = (a, b) if a <= b else (b, a)
        if prod > best:
            best, argmax, count = prod, {pair}, 1
        elif pair not in argmax and (len(argmax) < WITNESS_CAP or wa != wb or a <= b):
            count += 1
            if len(argmax) < WITNESS_CAP:
                argmax.add(pair)
    return best, sorted(argmax), count, visited, violations


def _search(cands: Sequence[int], rows: Sequence[int], weights: Optional[Sequence[int]], n: int,
            t: int, budget: SearchBudget, same_size_only: bool) -> tuple[int, list, int, dict]:
    """Run the engine in the budget's mode; returns (best, pairs, count, notes).

    Shifted mode scores the shift-closed families A with w(A) <= w(D(A)),
    starting from the product of the star pair (every candidate holding
    [t], twice), which is cross t-intersecting.  D of a shift-closed family
    is shift-closed (a member compressed still meets each member of A,
    whose compression A holds, in t; a superset meets more), so each
    maximal closed pair is scored from its lighter side, or from both
    when they weigh the same.  w(A) grows and w(D(A)) shrinks down the
    tree, so no tie lies below a node with w(D(A))^2 < best or
    w(A) > w(D(A)) > 0 (the > 0 keeps the product-0 ties when nothing
    cross t-intersects), and both prunes are strict.  So max, ties and
    witnesses are those of every shift-closed A, and ``witness_count``
    counts each maximal closed pair of shift-closed families once: a
    pair scored from both sides is deduplicated against the retained
    witnesses and, past WITNESS_CAP, counted from its A <= D(A) side.

    Every scored partner is checked to be shift-closed; if one is not,
    the restriction is unsound here and every closed set is scored
    instead (``full-fallback``).

    Full mode walks every closed set under the same two strict prunes,
    unseeded: a tie with w(A) <= w(D(A)) lies below no pruned node, as
    each ancestor A'' has w(A'') <= w(A) <= w(D(A)) <= w(D(A'')).  A tie
    counts once, on its side with w(A) < w(D(A)), or w(A) = w(D(A)) and
    A <= D(A).  The WITNESS_CAP least (min, max) index-mask pairs are
    retained, and ``witness_count`` is S + 2P - R over the S ties with
    A = D(A) and the P others, R of them retained: past the cap the
    P - R others not retained count twice, a known over-count that the
    benchmark pins.
    """
    if budget.restrict_shifted:
        best, pairs, count, nodes, violations = _best_shifted(
            cands, n, t, rows, weights, budget, same_size_only
        )
        if not violations:
            notes = {"mode": "shifted", "nodes": nodes, "partner_shift_violations": 0}
            return best, pairs, count, notes
        mode = "full-fallback"
    else:
        mode = "full"
    best, pairs, count, nodes = _best_closed(rows, weights, budget)
    return best, pairs, count, {"mode": mode, "nodes": nodes}


def iter_shifted_families(
    n: int,
    k: Optional[int] = None,
    inclusion_maximal: bool = False,
    budget: Optional[SearchBudget] = None,
) -> Iterable[Family]:
    """Enumerate shifted families exhaustively, each exactly once.

    With k, the k-uniform shifted families; with ``inclusion_maximal``,
    the shifted upward-closed families (downsets of the full dominance
    order); otherwise every shifted family (downsets layer by layer).
    """
    if budget is None:
        budget = SearchBudget()
    if k is not None and inclusion_maximal:
        raise ValueError("uniform families cannot be inclusion maximal")
    masks = uniform_layer(n, k) if k is not None else list(range(1 << n))
    preds = _dominance_preds(masks, n, same_size_only=not inclusion_maximal)
    rows = [(1 << len(masks)) - 1] * len(masks)
    for chosen, *_ in _downsets(masks, preds, rows, None, budget, lambda wa, wb: False):
        yield Family(n, tuple(sorted(masks[i] for i in _bits(chosen))), k)


# ---------------------------------------------------------------------------
# witness classification
# ---------------------------------------------------------------------------


def _star_core(masks: Sequence[int]) -> int:
    core = ~0
    for m in masks:
        core &= m
    return core


def _classify_family(amask: int, cands: Sequence[int], n: int, t: int,
                     window_cache: dict) -> Optional[str]:
    """Label the family A of a symmetric argmax pair (A, A).

    F0: A is the family of all (k-)sets containing a fixed t-set.  F1:
    A is the family meeting a fixed (t+2)-window in at least t+1
    elements.  None when A matches neither.
    """
    members = [cands[i] for i in _bits(amask)]
    if not members:
        return None
    core = _star_core(members)
    if core.bit_count() == t:
        expected = window_cache.setdefault(
            ("star", core),
            frozenset(c for c in cands if c & core == core),
        )
        if frozenset(members) == expected:
            return "F0"
    member_set = frozenset(members)
    for window in itertools.combinations(range(n), t + 2):
        wm = 0
        for e in window:
            wm |= 1 << e
        expected = window_cache.setdefault(
            ("threshold", wm),
            frozenset(c for c in cands if (c & wm).bit_count() >= t + 1),
        )
        if member_set == expected:
            return "F1"
    return None


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _finish(best_scaled: int, pairs: Sequence[tuple[int, int]], count: int,
            label: Callable[[int], Optional[str]], family: Callable[[int], object],
            scale: Optional[Fraction], started: float, notes: dict) -> SearchResult:
    """Assemble a SearchResult from the engine's index-mask pairs.

    ``label`` names the construction that the A of a symmetric pair
    (A, A) matches, or None; every other pair is ``other``.  ``family``
    turns an index mask into a family.  Class names sort with the
    reference constructions first, so the first attained is the match.
    """
    classes = tuple(sorted({(label(a) if a == b else None) or "other" for a, b in pairs}))
    return SearchResult(
        max_product=best_scaled if scale is None else best_scaled * scale,
        witnesses=[(family(a), family(b)) for a, b in pairs[:64]],
        matched_construction=classes[0] if classes else None,
        exhaustive=True,
        witness_count=count,
        witness_classes=classes,
        elapsed_ms=(time.perf_counter() - started) * 1000,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------


def uniform_layer(n: int, k: int) -> list[int]:
    return [mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k)]


def compatibility_rows(cands: Sequence[int], t: int) -> list[int]:
    """rows[i] = index mask of candidates meeting candidate i in >= t."""
    L = len(cands)
    rows = [0] * L
    for i in range(L):
        ci = cands[i]
        acc = 0
        for j in range(L):
            if (ci & cands[j]).bit_count() >= t:
                acc |= 1 << j
        rows[i] = acc
    return rows


def _set_search(n: int, k: Optional[int], t: int, cands: Sequence[int],
                weights: Optional[Sequence[int]], scale: Optional[Fraction],
                budget: SearchBudget, started: float) -> SearchResult:
    """The search over the set candidates ``cands``: the k-layer, or with
    k None the whole power set."""
    rows = compatibility_rows(cands, t)
    best, pairs, count, notes = _search(cands, rows, weights, n, t, budget, k is not None)
    window_cache: dict = {}

    def family(mask: int) -> Family:
        return Family(n, tuple(sorted(cands[i] for i in _bits(mask))), k)

    return _finish(best, pairs, count, lambda a: _classify_family(a, cands, n, t, window_cache),
                   family, scale, started, notes)


def max_uniform_product(
    n: int, k: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of |A| |B| over cross t-intersecting A, B in the
    k-layer of [n], with all maximal pairs retained up to the cap."""
    if t < 1 or not 1 <= k <= n:
        raise ValueError(f"need t >= 1 and 1 <= k <= n, got t={t}, k={k}, n={n}")
    started = time.perf_counter()
    return _set_search(n, k, t, uniform_layer(n, k), None, None,
                       budget or SearchBudget(), started)


def max_weight_product(
    n: int, t: int, p: Fraction, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of the weight product over cross t-intersecting
    pairs in the power set of [n].  Weights are scaled to integers
    (p = a/b gives a^|F| (b-a)^(n-|F|)), so comparisons are exact."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0,1), got {p}")
    started = time.perf_counter()
    cands = list(range(1 << n))
    a, b = p.numerator, p.denominator
    weights = [a ** m.bit_count() * (b - a) ** (n - m.bit_count()) for m in cands]
    return _set_search(n, None, t, cands, weights, Fraction(1, b ** (2 * n)),
                       budget or SearchBudget(), started)


def brute_force_uniform_max(n: int, k: int, t: int) -> int:
    """Reference maximum by sweeping every subfamily A of the layer and
    pairing it with its best partner.  Only for tiny layers."""
    cands = uniform_layer(n, k)
    L = len(cands)
    if L > 16:
        raise BudgetExceeded("brute force capped at 16 layer members")
    rows = compatibility_rows(cands, t)
    full = (1 << L) - 1
    best = 0
    for a in range(1 << L):
        b = _partner(a, rows, full)
        prod = a.bit_count() * b.bit_count()
        if prod > best:
            best = prod
    return best


def brute_force_weight_max(n: int, t: int, p: Fraction) -> Fraction:
    """Reference weighted maximum over every seed family; tiny n only."""
    if n > 4:
        raise BudgetExceeded("brute force capped at n <= 4")
    p = Fraction(p)
    cands = list(range(1 << n))
    rows = compatibility_rows(cands, t)
    a, b = p.numerator, p.denominator
    weights = [a ** m.bit_count() * (b - a) ** (n - m.bit_count()) for m in cands]
    full = (1 << len(cands)) - 1
    best = 0
    for am in range(1 << len(cands)):
        bm = _partner(am, rows, full)
        prod = _weight_sum(am, weights) * _weight_sum(bm, weights)
        if prod > best:
            best = prod
    return best * Fraction(1, b ** (2 * n))


# ---------------------------------------------------------------------------
# pseudorandom shifted cross-t pairs for the lemma harness
# ---------------------------------------------------------------------------


def _dominance_closure(
    members: Sequence[int],
    all_masks: Sequence[int],
    index: dict[int, int],
    preds: Sequence[int],
) -> tuple[int, ...]:
    chosen = 0
    for m in members:
        i = index[m]
        chosen |= (1 << i) | preds[i]
    return tuple(sorted(all_masks[i] for i in _bits(chosen)))


def generate_shifted_pairs(
    n: int,
    k: Optional[int],
    t: int,
    count: int,
    seed: int,
) -> list[tuple[Family, Family]]:
    """Deterministic stream of shifted cross t-intersecting pairs.

    Each pair arises from a random seed family via the partner closure
    (so both sides start mutually maximal), simultaneous compression to
    a shifted fixpoint, and then an optional shrink of either side to
    the dominance closure of a random member subset, which preserves
    shiftedness, the cross property and (in the unrestricted mode)
    upward closure.  Emitted pairs are verified shifted and cross
    t-intersecting; a failure would falsify the compression lemma and
    raises.

    The chain seed -> b0 -> D(b0) -> fixpoint depends only on b0 =
    D(seed), one AND of compatibility rows, so a memo local to the call,
    keyed by b0, runs it once per distinct b0.  The checks run once per
    distinct pair.

    Small configurations run out of new pairs long before the cap.  So
    before drawing, U collects S(a) x S(b) over the fixpoints (a, b) of
    every seed of one to three candidates, where S(x) is {x} for
    |x| <= 1 and otherwise every nonempty subfamily of x closed under
    ``preds``: every result ``shrink`` can return.  The loop stops once
    every key of U is emitted; a new key outside U raises.  U is given
    up (the loop runs to the cap) when there are more seeds than
    attempts, or once it reaches ``count`` keys or a fixpoint side is
    not closed under ``preds``.  The stream cannot change: each draw
    before the stop is the one made without it, every later attempt
    could only repeat a key of ``seen``, and ``rng`` is local.
    """
    rng = random.Random(seed)
    cands = uniform_layer(n, k) if k is not None else list(range(1 << n))
    preds = _dominance_preds(cands, n, same_size_only=k is not None)
    rows = compatibility_rows(cands, t)
    index = {m: i for i, m in enumerate(cands)}
    Masks = tuple[int, ...]
    fixpoints: dict[int, Optional[tuple[Masks, Masks]]] = {}
    pairs: list[tuple[Family, Family]] = []
    seen = set()
    attempts, cap = 0, 400 * count + 100

    def shrink(masks: Masks) -> Masks:
        if len(masks) <= 1 or rng.random() < 0.4:
            return masks
        take = rng.randint(1, len(masks))
        sample = rng.sample(masks, take)
        return _dominance_closure(sample, cands, index, preds)

    def fixpoint(members: Masks) -> Optional[tuple[Masks, Masks]]:
        partner = _partner(sum(1 << index[m] for m in members), rows, (1 << len(cands)) - 1)
        if partner not in fixpoints:
            b0 = maximal_cross_partner(Family(n, members, k), t, k)
            a0 = maximal_cross_partner(b0, t, k) if b0.masks else b0
            a, b, _ = shift_pair_to_fixpoint(a0, b0) if a0.masks else (a0, b0, [])
            fixpoints[partner] = (a.masks, b.masks) if a.masks and b.masks else None
        return fixpoints[partner]

    def shrinks(masks: Masks) -> Optional[list[Masks]]:
        """S(masks), cut off after ``count``; None if not closed under preds."""
        if len(masks) <= 1:
            return [masks]
        local = {index[m]: q for q, m in enumerate(masks)}
        inside = sum(1 << i for i in local)
        if any(preds[i] & ~inside for i in local):
            return None
        sub = [sum(1 << local[j] for j in _bits(preds[i])) for i in local]
        walk = _downsets(masks, sub, [0] * len(masks), None, SearchBudget(), lambda wa, wb: False)
        return [tuple(masks[q] for q in _bits(a)) for a, *_ in itertools.islice(walk, count + 1) if a]

    def universe() -> Optional[set[tuple[Masks, Masks]]]:
        if (len(cands) ** 3 + 5 * len(cands)) // 6 > cap:  # more seeds than attempts
            return None
        keys, walked = set(), set()
        for seed_masks in (c for r in (1, 2, 3) for c in itertools.combinations(cands, r)):
            shifted = fixpoint(tuple(sorted(seed_masks)))
            if shifted is None or shifted in walked:
                continue
            walked.add(shifted)
            sides = [shrinks(x) for x in shifted]
            if None in sides or len(sides[0]) * len(sides[1]) >= count:
                return None
            keys.update(itertools.product(*sides))
            if len(keys) >= count:
                return None
        return keys

    reachable = universe()
    while len(pairs) < count and attempts < cap and (reachable is None or len(seen) < len(reachable)):
        attempts += 1
        seed_masks = rng.sample(cands, rng.randint(1, min(3, len(cands))))
        shifted = fixpoint(tuple(sorted(set(seed_masks))))
        if shifted is None:
            continue
        key = (shrink(shifted[0]), shrink(shifted[1]))
        if key in seen:
            continue
        if reachable is not None and key not in reachable:
            raise RuntimeError("generated pair lies outside the reachable set")
        a, b = Family(n, key[0], k), Family(n, key[1], k)
        if not (is_shifted(a) and is_shifted(b)):
            raise RuntimeError("compression fixpoint is not shifted")
        if not is_cross_t_intersecting(a, b, t):
            raise RuntimeError("compression broke the cross-intersection property")
        if k is None and not (is_inclusion_maximal(a) and is_inclusion_maximal(b)):
            raise RuntimeError("dominance closure failed to stay upward closed")
        seen.add(key)
        pairs.append((a, b))
    return pairs
