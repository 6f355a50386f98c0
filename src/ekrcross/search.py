"""Exhaustive desk-scale searches for extremal cross t-intersecting pairs.

The key reduction: for a fixed family A, the best partner is the full
compatibility intersection D(A) (every candidate meeting all of A in at
least t elements), and an optimal pair is closed: B = D(A), A = D(B).
This holds for the k-uniform count, for the p-weight product measure
and for sequence families (``seq`` encodes words as one-hot masks), so
one closed-pair engine serves all three searches:

- ``_best_closed`` walks a closure system of closed sets depth first
  by Close-by-One, carrying D(A) and both weights, as a branch and
  bound that maximizes the product w(A) w(D(A)) and keeps the tied
  pairs.  Full mode walks every closed set (the intersections of the
  per-candidate compatibility rows).  Shifted mode walks the closed
  shift-closed sets, a closure system since D of a shift-closed family
  is shift-closed (proved in ``_search``), under the same-size shifts
  alone, as closed sets are up-closed; it is seeded with the star
  product.  Uniform searches walk traces (see ``max_uniform_product``);
  the layer is the traces at m = n;
- ``_search`` is the one search of sets and words alike: it builds the
  compatibility rows, folds each candidate's same-size covers, in list
  order, into shifted mode's inputs, keeps full mode's past-the-cap
  count, which the benchmark pins, labels the symmetric ties with
  ``_construction`` and builds the ``SearchResult``;
- ``_downsets`` lists the shift-closed families themselves, for
  ``iter_shifted_families`` and the lemma-harness generator, whose
  compressions ``_shift_fixpoint`` (tested against setfam's), memo key,
  shrinks, ``seen`` and U are index masks; only emitted pairs become families.

That is exact: any cross-t pair (A0, B0) embeds into the visited pair
(D(B0), D(D(B0))) with no smaller product.  All objective arithmetic is
integral (weights are scaled to integers), so maxima and ties are exact.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Optional, Sequence, Union

from .setfam import (
    BudgetExceeded,
    Family,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    mask_of,
    shift_pair_to_fixpoint, shifts_to,  # noqa: F401  perfbench's tracer self-test rebinds both
)

DEFAULT_NODE_CAP = 1 << 22
WITNESS_CAP = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive searches.

    ``max_family_bits`` bounds the number of enumeration nodes visited:
    the closed sets that the branch and bound scores (every closed set
    in full mode, the closed shift-closed sets in shifted mode, less
    those it prunes), and the shift-closed families that
    ``iter_shifted_families`` lists.  ``restrict_shifted`` picks shifted
    mode for the set searches (the sequence search always runs full
    mode).  ``time_limit`` is wall-clock seconds, set-up included.
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

    def check(self) -> Optional[float]:
        """Raise once the time limit is past; else the seconds left (None: no limit)."""
        left = None if self.limit is None else self.limit - (time.monotonic() - self.t0)
        if left is not None and left < 0:
            raise BudgetExceeded("time limit exceeded")
        return left


def _partner(mask: int, rows: Sequence[int], full: int) -> int:
    out = full
    while mask:
        low = mask & -mask
        out &= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _byte_tables(masks: Sequence[int], unit: int, op: Callable[[int, int], int]
                 ) -> tuple[list[list], Callable[[bytes], int]]:
    """(tabs, fill): tabs[c][v] folds ``unit`` with the masks[8c + b] over
    the bits b of the byte v by ``op``, so a fold over the bits of x takes
    one lookup per byte of x.  Entries are filled on first read.  Slot 0
    holds ``unit`` and the rest start as None, so a fold that reads an
    empty slot raises TypeError from op(acc, None); the caller catches it
    around its fold and returns fill(bytes of x), which fills each empty
    slot v those bytes name as op(slot v less its lowest bit, that bit's
    mask), one op per entry, and folds over the nonzero bytes."""
    tabs = [[unit] + [None] * ((1 << min(8, len(masks) - c)) - 1)
            for c in range(0, len(masks), 8)]

    def entry(tab: list, base: int, v: int) -> int:
        if tab[v] is None:
            low = v & -v
            tab[v] = op(entry(tab, base, v ^ low), masks[base + low.bit_length() - 1])
        return tab[v]

    def fill(data: bytes) -> int:
        for c in itertools.compress(itertools.count(), data):
            if tabs[c][data[c]] is None:
                entry(tabs[c], 8 * c, data[c])
        return reduce(op, map(list.__getitem__, itertools.compress(tabs, data),
                              filter(None, data)), unit)
    return tabs, fill


def _blocked(covered_by: Sequence[int]) -> Callable[[int], int]:
    """blocked(A) holds the j with a cover missing from A: the OR of
    covered_by[x] over the x not in A, one lookup per byte of ~A.  For A
    closed under the covers, these are the j that force a candidate A
    lacks (see ``_search``), and no filter is needed, as every cover of
    j lies below j."""
    full = (1 << len(covered_by)) - 1
    tabs, fill = _byte_tables(covered_by, 0, operator.or_)

    def blocked(a: int) -> int:
        data = (full ^ a).to_bytes(len(tabs), "little")
        try:  # ~A is dense: every byte is read, as skipping zero bytes costs more than it saves
            return reduce(operator.or_, map(list.__getitem__, tabs, data), 0)
        except TypeError:
            return fill(data)
    return blocked


def _best_closed(rows: Sequence[int], weights: Optional[Sequence[int]], budget: SearchBudget,
                 dpre: Optional[Sequence[int]] = None, seed: int = 0,
                 covered_by: Optional[Sequence[int]] = None) -> tuple[int, list, int, int, int]:
    """The scorer of both modes (see ``_search``): a Close-by-One branch
    and bound over a closure system of closed sets, as index masks.
    Returns (best, pairs, count, unretained, nodes visited).

    It walks depth first from (D(full), full), carrying (A, D(A), w(A),
    w(D(A))).  A child adds a j not in A above the one that made A:
    D(A') = D(A) & dpre[j] and A' = D(D(A')), a lookup per byte in byte
    tables of the rows that ``_byte_tables`` fills on first read, so a
    walk builds only the entries its closures read.  It is
    canonical, so each closed set of the system is reached once, when A'
    holds no new candidate below j.  With dpre = rows (the default) the
    system is every closed set.  Shifted mode passes dpre[j], the AND of
    the rows over j and all that j forces, so A' is the least closed set
    holding A, j and what j forces, and ``covered_by``: child j is then
    not canonical when a cover of j is missing from A (j forces a
    missing candidate, all of which lie below j), and ``_blocked`` drops
    all such children as one mask.  ``seed`` is a product some pair
    attains, the starting ``best``.

    Weights None means counting measure; otherwise w(x) sums v times
    the size of x & mask_v over one mask_v per distinct weight v.  The
    rows are symmetric and the weights positive, so a child weighs more
    than A, and D(D(A')) = A'.  Three strict rules drop what holds no
    counted tie (lo is the least weight):
    - j not in A = D(D(A)) means some x in D(A) misses j, so each strict
      descendant drops x: no child is walked if (w(D(A)) - lo)^2 < best.
    - a canonical descendant of child j adds only candidates >= j, so its
      weight is at most ``grown``, w(A) plus the free candidates >= j,
      blocked or not: child j is skipped when grown w(D(A')) < best, and
      before D(A') is taken when grown (w(D(A)) - lo) < best.
    - the mirror rule: a child is not pushed when w(A') > w(D(A')) > 0,
      or w(A') = w(D(A')) and A' > D(A').  Its mirror D(A') is a closed
      set of the system with partner A' and the same product, counted
      from that side, and each strict descendant weighs more than its
      partner.  Both cases are ruled out before the closure, as
      w(A') >= w(A) + w(j), with A' = A + j at equality.

    ``count`` is S + P over the S ties with A = D(A) and the P others,
    each counted once, from the side the mirror rule keeps.  The
    WITNESS_CAP least (min, max) pairs are kept, as int keys min << L |
    max over L candidates, which order like the tuples; R of them have
    A != D(A), and ``unretained`` is P - R.
    """
    deadline, span = _Deadline(budget), len(rows)
    full = (1 << span) - 1
    dpre = dpre or rows
    unit = weights or [1] * span
    lo = min(unit, default=1)
    and_tabs, fill = _byte_tables(rows, full, operator.and_)
    size = len(and_tabs)
    blocked = _blocked(covered_by) if covered_by else None

    if weights is None:
        w = int.bit_count
    else:
        levels: dict[int, int] = {}
        for i, v in enumerate(weights):
            levels[v] = levels.get(v, 0) | 1 << i
        level_masks = list(levels.items())

        def w(x: int) -> int:
            out = 0
            for v, m in level_masks:
                out += v * (x & m).bit_count()
            return out

    cap = WITNESS_CAP
    best, ties, split, visited = seed, 0, 0, 0
    kept: list[int] = []  # the cap least tie keys, negated: a max-heap
    root = _partner(full, rows, full)
    stack = [(root, full, w(root), w(full), 0)]
    while stack:
        a, b, wa, wb, start = stack.pop()
        if wb * wb < best:
            continue
        visited += 1
        if visited > budget.max_family_bits:
            raise BudgetExceeded(
                f"closed-set search exceeds max_family_bits={budget.max_family_bits}")
        if visited & 0xFF == 1:
            deadline.check()
        prod = wa * wb
        if prod > best:
            best, ties, split, kept = prod, 0, 0, []
        if prod == best and wa <= wb:
            ties, split = ties + 1, split + (a != b)
            key = -(a << span | b if a <= b else b << span | a)
            if len(kept) < cap:
                heapq.heappush(kept, key)
            elif key > kept[0]:
                heapq.heapreplace(kept, key)
        if (wb - lo) * (wb - lo) < best:
            continue
        free = full & ~a >> start << start
        todo = free & ~blocked(a) if blocked else free
        grown = wa
        while todo:
            j = todo.bit_length() - 1
            todo ^= 1 << j
            grown = wa + w(free >> j << j) if blocked else grown + unit[j]
            if (wb - lo) * grown < best:
                continue
            nb = b & dpre[j]
            wnb = w(nb)
            if wnb * wnb < best or wnb * grown < best:
                continue
            if wnb and (wa + unit[j] > wnb or wa + unit[j] == wnb and a | 1 << j > nb):
                continue
            data = nb.to_bytes(size, "little")
            try:
                na, c = full, 0
                for byte in data:
                    na &= and_tabs[c][byte]
                    c += 1
            except TypeError:
                na = fill(data)
            if (na ^ a) & ((1 << j) - 1):
                continue
            wna = w(na)
            if wna < wnb or wna == wnb and na <= nb or not wnb:
                stack.append((na, nb, wna, wnb, j + 1))
    pairs = sorted(divmod(-key, 1 << span) for key in kept)
    return best, pairs, ties, split - sum(x != y for x, y in pairs), visited


# ---------------------------------------------------------------------------
# shift-closed enumeration (downsets of the dominance order)
# ---------------------------------------------------------------------------


def _linear_extension(masks: Sequence[int]) -> list[int]:
    """Candidate indices, larger and then lefter sets first: each comes
    after every candidate it forces."""
    return sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), sum(_bits(masks[i]))))


def _covers(m: int, n: int = 0) -> list[int]:
    """The sets that the set ``m`` covers in the dominance order, all of
    which a shift-closed family holding m holds: m with one element moved
    one step left (the same-size order), and with n > 0 also m plus one
    element of [n] (the whole order on the power set of [n])."""
    return ([m - (1 << (b - 1)) for b in _bits(m) if b and not m >> (b - 1) & 1]
            + [m | 1 << e for e in range(n) if not m >> e & 1])


def _dominance_preds(masks: Sequence[int], n: int = 0) -> list[int]:
    """preds[i] = index mask of the candidates that candidate i forces,
    for ``_downsets``: the j whose set the set of i shifts to
    (``setfam.shifts_to``), as a shift-closed family holding i holds j.
    n = 0 gives the same-size order and n > 0 the whole order on the
    power set of [n] (see ``_covers``).  preds[i] is the union of {c}
    and preds[c] over the covers c of i, in linear-extension order.  A
    left shift keeps the size and the ground set, so a layer, the power
    set and the traces of a size window hold every same-size cover, and
    the power set every other; a missing cover raises KeyError."""
    index = {m: i for i, m in enumerate(masks)}
    preds = [0] * len(masks)
    for i in _linear_extension(masks):
        for c in map(index.__getitem__, _covers(masks[i], n)):
            preds[i] |= 1 << c | preds[c]
    return preds


def _downsets(masks: Sequence[int], preds: Sequence[int],
              budget: SearchBudget) -> Iterable[int]:
    """Every family A closed under ``preds``, depth first and each once,
    as an index mask.

    A child adds a candidate later in the linear extension than A's last
    one, with all it forces already in A, so every path prefix is closed.
    """
    order = _linear_extension(masks)
    deadline = _Deadline(budget)
    visited = 0
    stack = [(0, 0)]
    while stack:
        pos, a = stack.pop()
        visited += 1
        if visited > budget.max_family_bits:
            raise BudgetExceeded(f"downset search exceeds max_family_bits={budget.max_family_bits}")
        if visited & 0xFF == 1:
            deadline.check()
        yield a
        for q in range(len(order) - 1, pos - 1, -1):
            i = order[q]
            if not preds[i] & ~a:
                stack.append((q + 1, a | 1 << i))


def _search(cands: Sequence[int], weights: Optional[Sequence[int]], t: int,
            budget: SearchBudget, prefix: str, family: Callable[[int], object],
            scale: Optional[Fraction] = None, notes: Optional[dict] = None) -> SearchResult:
    """The ``SearchResult`` of ``_best_closed`` over ``cands`` in the
    budget's mode: the traces of a uniform search (``max_uniform_product``;
    the k-layer is the traces at m = n), the power set of [n], or the
    one-hot words of ``seq``.

    Shifted mode walks the closed pairs of shift-closed families, under
    the same-size order: a family is shift-closed when it holds each
    cover of its members (``_covers``: one element moved one step left).
    Every list it is given holds those covers, as a left shift keeps the
    size and the ground set.  The lemma: D of a shift-closed A is
    shift-closed.  Take T in D(A) and its cover T' = T - j + i, where T
    holds j and misses i = j - 1.  A member S of A meets T' less than T
    only when S holds j and misses i; then S' = S - j + i is a cover of
    S, so in A, and |T' & S| = |T & S'| >= t.  So T' is in D(A).  The
    closed sets and the shift-closed families are both closed under
    intersection, so the closed shift-closed sets are a closure system,
    and the least one above X is D(D(X + forced(X))).
    That one order serves every candidate set: a closed set is up-closed
    in ``cands``, as D of anything is, so closed under the same-size
    shifts is closed under the whole dominance order.  Close-by-One
    walks any closure system (Kuznetsov 1993), so shifted mode is the
    same walk with dpre[j] = D({j} + forced(j)) in place of rows[j]; its
    canonicity test and both subtree bounds hold unchanged, as a
    descendant of child j still adds only candidates >= j.  Its ``best``
    starts at the product of the star pair (every candidate holding [t],
    twice), which is cross t-intersecting.

    What j forces is its covers and what they force, so dpre[j] is rows[j]
    AND dpre[c] over the covers c of j, folded in list order, and
    covered_by[c] gains j, for ``_blocked``.  List order is a linear
    extension: in a layer or a trace window in ``uniform_layer`` order a
    left shift gives a lexicographically smaller combination, and in the
    power set, ordered by mask, it lowers the mask.  A cover whose index
    is not below its candidate's raises ValueError, and a missing cover
    KeyError.

    The time limit counts set-up: its clock is read after each phase, and
    the walk (from its first node) gets the time left.

    Full mode walks every closed set, unseeded.  Both modes count each
    tied closed pair once, from its side A with w(A) < w(D(A)), or
    w(A) = w(D(A)) and A <= D(A), which the mirror rule keeps.  That A
    lies below no pruned or dropped node, as each strict ancestor A''
    has w(A'') < w(A) <= w(D(A)) <= w(D(A'')), and the subtree bounds
    spare it (w(D(A)) <= w(D(A'')) - lo, and A lies within A'' plus the
    candidates >= j when it lies below the child of A'' that adds j).
    Shifted mode reports that true count, S + P.  Full mode reports
    S + 2P - R over the S ties with A = D(A) and the P others, R of
    them retained: past WITNESS_CAP it counts the P - R others not
    retained twice, as the breadth-first scorer it replaced did,
    because the benchmark pins those counts; dropping the term needs a
    benchmark re-pin.

    A symmetric pair (A, A) is named ``prefix`` + the ``_construction``
    label of A (F0, F1 for sets, H0, H1 for words); every other pair is
    ``other``.  Class names sort with the reference constructions first,
    so the first attained is the match.  ``family`` turns an index mask
    into a family, ``scale`` turns the integer product into the measure,
    and ``notes`` follow the mode's own.
    """
    started, deadline = time.perf_counter(), _Deadline(budget)
    rows = compatibility_rows(cands, t)
    deadline.check()
    shifted = {}
    if budget.restrict_shifted:
        index = {c: i for i, c in enumerate(cands)}
        dpre, covered_by = list(rows), [0] * len(cands)
        for j, m in enumerate(cands):
            for c in map(index.__getitem__, _covers(m)):
                if c >= j:
                    raise ValueError(f"cover {c} of candidate {j} is listed after it")
                dpre[j] &= dpre[c]
                covered_by[c] |= 1 << j
        deadline.check()
        core = (1 << t) - 1
        star = sum(1 if weights is None else weights[i]
                   for i, c in enumerate(cands) if c & core == core)
        shifted = {"dpre": dpre, "seed": star * star, "covered_by": covered_by}
    best, pairs, count, unretained, nodes = _best_closed(
        rows, weights, replace(budget, time_limit=deadline.check()), **shifted)
    labels = {_construction(a, cands, t) if a == b else None for a, b in pairs}
    classes = tuple(sorted("other" if i is None else f"{prefix}{i}" for i in labels))
    return SearchResult(
        max_product=best if scale is None else best * scale,
        witnesses=[(family(a), family(b)) for a, b in pairs[:64]],
        matched_construction=classes[0] if classes else None,
        exhaustive=True,
        witness_count=count if shifted else count + unretained,
        witness_classes=classes,
        elapsed_ms=(time.perf_counter() - started) * 1000,
        notes={"mode": "shifted" if shifted else "full", "nodes": nodes, **(notes or {})},
    )


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
    if k is not None and inclusion_maximal:
        raise ValueError("uniform families cannot be inclusion maximal")
    masks = uniform_layer(n, k) if k is not None else list(range(1 << n))
    preds = _dominance_preds(masks, n if inclusion_maximal else 0)
    for chosen in _downsets(masks, preds, budget or SearchBudget()):
        yield Family(n, tuple(sorted(masks[i] for i in _bits(chosen))), k)


# ---------------------------------------------------------------------------
# witness classification
# ---------------------------------------------------------------------------


def _construction(amask: int, cands: Sequence[int], t: int) -> Optional[int]:
    """0 or 1 when the closed family A = D(A) of a symmetric argmax pair
    (A, A) is the star or the (t+2)-window family over ``cands``, else
    None.  The elements are the candidates' bits: ground elements of
    sets, or one-hot (position, symbol) bits of words, where the star
    and window families are H0 and H1.

    Label 0: the AND of A's members holds exactly t bits, and A is every
    candidate holding them (a degree test would call the one-set layer
    k = n a star, but it is the window family).  Label 1: A is {c : |c & W|
    >= t+1} for W the t+2 bits of highest degree in A.  One W suffices.
    For sets, a window's elements have at least the degree of any other,
    and two that tie are swapped by a symmetry of A, so any top t+2 gives
    the same family.  For words, H1's window bits strictly outrank every
    other bit.  At n = t+1 the top bits may put two symbols at one
    position, but a word family that then matches is not closed.
    """
    members = [cands[i] for i in _bits(amask)]
    if not members:
        return None

    def holding(test: Callable[[int], bool]) -> int:
        return sum(1 << i for i, c in enumerate(cands) if test(c))

    core = reduce(operator.and_, members)
    if core.bit_count() == t and amask == holding(lambda c: c & core == core):
        return 0
    width = max(cands).bit_length()
    degree = [sum(c >> e & 1 for c in members) for e in range(width)]
    top = sorted(range(width), key=degree.__getitem__, reverse=True)[:t + 2]
    window = sum(1 << e for e in top)
    if len(top) == t + 2 and amask == holding(lambda c: (c & window).bit_count() > t):
        return 1
    return None


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# public searches
# ---------------------------------------------------------------------------


def uniform_layer(n: int, k: int) -> list[int]:
    return [mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k)]


def compatibility_rows(cands: Sequence[int], t: int) -> list[int]:
    """rows[i] = index mask of candidates meeting candidate i in >= t.

    Bit-sliced over elements: col[e] marks the candidates holding e.  A
    candidate meets the s elements of candidate i in >= t when it misses
    at most s - t of them, or when it is not one that holds at most t - 1;
    whichever bound is less is ``few``.  Over the elements e of i, le[q],
    the candidates missing (holding) at most q of them, keeps those
    holding (missing) e and takes in le[q-1], q from ``few`` down to 1."""
    full = (1 << len(cands)) - 1
    elems = [_bits(c) for c in cands]
    cols = [0] * max(cands, default=0).bit_length()
    for i, es in enumerate(elems):
        for e in es:
            cols[e] |= 1 << i
    rows = []
    for es in elems:
        few, flip = (len(es) - t, 0) if len(es) < 2 * t else (t - 1, full)
        if few < 0:
            rows.append(flip)
            continue
        le = [full] * (few + 1)
        for e in es:
            col = cols[e] ^ flip
            for q in range(few, 0, -1):
                le[q] = le[q] & col | le[q - 1]
            le[0] &= col
        rows.append(le[few] ^ flip)
    return rows


def max_uniform_product(
    n: int, k: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of |A| |B| over cross t-intersecting A, B in the
    k-layer of [n], with all maximal pairs retained up to the cap.

    Shifted cross t-intersecting A, B meet in t elements of [m], m = 2k - t
    (Frankl 1987): else a pair meets in fewer there and in a j > m; an
    i <= m lies in neither, as |(A | B) & [m]| <= 2k - |A & B| - 1 < m, so
    shifting j to i in A stays in A and keeps A & B & [m]; repeat until
    A & B lies in [m], where |A & B| < t.  So a closed shifted pair holds
    each k-set whose trace on [m] a member has.  Every mode walks the
    traces S on [m], max(t, k - n + m) <= |S| <= k, weighing C(n - m,
    k - |S|), under the same-size shifts (see ``_search``): shifted mode
    with t <= k takes m = min(2k - t, n); full mode counts unshifted pairs
    too, so it and t > k (product 0) take m = n, the layer in
    ``uniform_layer`` order, with weights None (counting measure).
    """
    if t < 1 or not 1 <= k <= n:
        raise ValueError(f"need t >= 1 and 1 <= k <= n, got t={t}, k={k}, n={n}")
    budget = budget or SearchBudget()
    m = min(2 * k - t, n) if budget.restrict_shifted and t <= k else n
    traces = [s for size in range(max(min(t, k), k - n + m), k + 1) for s in uniform_layer(m, size)]
    return _search(traces, [math.comb(n - m, k - s.bit_count()) for s in traces] if m < n else None,
                   t, budget, "F", lambda mask: Family(n, tuple(sorted(
                       s | sum(1 << e for e in rest) for s in map(traces.__getitem__, _bits(mask))
                       for rest in itertools.combinations(range(m, n), k - s.bit_count()))), k))


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
    a, b = p.numerator, p.denominator
    weights = [a ** m.bit_count() * (b - a) ** (n - m.bit_count()) for m in range(1 << n)]
    # Candidate i is the set with mask i, so an index mask's bits are its members, in order.
    return _search(range(1 << n), weights, t, budget or SearchBudget(), "F",
                   lambda mask: Family(n, tuple(_bits(mask)), None), Fraction(1, b ** (2 * n)))


# ---------------------------------------------------------------------------
# pseudorandom shifted cross-t pairs for the lemma harness
# ---------------------------------------------------------------------------


def _shift_moves(cands: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Per (i, j) in lex order, moves (d, g): the sources in g have their targets d > 0 below."""
    index = {m: q for q, m in enumerate(cands)}
    groups: dict[tuple[int, int, int], int] = {}
    for (i, j), (q, m) in itertools.product(itertools.combinations(range(n), 2), enumerate(cands)):
        if m >> j & 1 and not m >> i & 1:
            key = (i, j, q - index[m ^ (1 << i | 1 << j)])
            groups[key] = groups.get(key, 0) | 1 << q
    return [(d, g) for (_, _, d), g in groups.items()]


def _shift_fixpoint(x: int, y: int, moves: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """``setfam.shift_pair_to_fixpoint``'s sweep on index masks: x << d lifts targets to sources."""
    while True:
        x0, y0 = x, y
        for d, g in moves:
            sx, sy = x & g & ~(x << d), y & g & ~(y << d)
            x, y = x ^ (sx | sx >> d), y ^ (sy | sy >> d)
        if x == x0 and y == y0:
            return x, y


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

    The chain seed -> b0 = D(seed) -> a0 = D(b0) -> fixpoint depends only
    on b0, so a call-local memo keyed by b0's index mask runs it once per
    b0 and keeps each side as its index mask and sorted members; ``shrink``
    ORs the closures of a sample of those members.  ``seen`` and U hold
    pairs of index masks; only a new key becomes two families, then checked.

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
    preds = _dominance_preds(cands, n if k is None else 0)
    rows = compatibility_rows(cands, t)
    bit = {m: 1 << i for i, m in enumerate(cands)}
    down = {m: bit[m] | preds[i] for i, m in enumerate(cands)}
    full, moves = (1 << len(cands)) - 1, _shift_moves(cands, n)
    Side = tuple[int, tuple[int, ...]]  # index mask, sorted members
    fixpoints: dict[int, Optional[tuple[Side, Side]]] = {}
    pairs: list[tuple[Family, Family]] = []
    seen = set()
    attempts, cap = 0, 400 * count + 100

    def members(x: int) -> tuple[int, ...]:
        return tuple(sorted(cands[i] for i in _bits(x)))

    def shrink(side: Side) -> int:
        x, masks = side
        if len(masks) <= 1 or rng.random() < 0.4:
            return x
        closed = 0
        for m in rng.sample(masks, rng.randint(1, len(masks))):
            closed |= down[m]
        return closed

    def fixpoint(seed_mask: int) -> Optional[tuple[Side, Side]]:
        b0 = _partner(seed_mask, rows, full)
        if b0 not in fixpoints:
            a0 = _partner(b0, rows, full) if b0 else 0
            shifted = _shift_fixpoint(a0, b0, moves) if a0 else ()
            fixpoints[b0] = tuple((x, members(x)) for x in shifted) or None
        return fixpoints[b0]

    def shrinks(x: int) -> Optional[list[int]]:
        """S(x) as index masks, cut off after ``count``; None if not closed under preds."""
        idx = _bits(x)
        if len(idx) <= 1:
            return [x]
        if any(preds[i] & ~x for i in idx):
            return None
        local = {i: q for q, i in enumerate(idx)}
        sub = [sum(1 << local[j] for j in _bits(preds[i])) for i in idx]
        walk = _downsets([cands[i] for i in idx], sub, SearchBudget())
        return [sum(1 << idx[q] for q in _bits(a)) for a in itertools.islice(walk, count + 1) if a]

    def universe() -> Optional[set[tuple[int, int]]]:
        if (len(cands) ** 3 + 5 * len(cands)) // 6 > cap:  # more seeds than attempts
            return None
        keys, walked = set(), set()
        for seed_bits in (c for r in (1, 2, 3) for c in itertools.combinations(bit.values(), r)):
            shifted = fixpoint(sum(seed_bits))
            if shifted is None or shifted in walked:
                continue
            walked.add(shifted)
            sides = [shrinks(x) for x, _ in shifted]
            if None in sides or len(sides[0]) * len(sides[1]) >= count:
                return None
            keys.update(itertools.product(*sides))
            if len(keys) >= count:
                return None
        return keys

    reachable = universe()
    while len(pairs) < count and attempts < cap and (reachable is None or len(seen) < len(reachable)):
        attempts += 1
        seed_mask = 0
        for m in rng.sample(cands, rng.randint(1, min(3, len(cands)))):
            seed_mask |= bit[m]
        shifted = fixpoint(seed_mask)
        if shifted is None:
            continue
        key = (shrink(shifted[0]), shrink(shifted[1]))
        if key in seen:
            continue
        if reachable is not None and key not in reachable:
            raise RuntimeError("generated pair lies outside the reachable set")
        a, b = Family(n, members(key[0]), k), Family(n, members(key[1]), k)
        if not (is_shifted(a) and is_shifted(b)):
            raise RuntimeError("compression fixpoint is not shifted")
        if not is_cross_t_intersecting(a, b, t):
            raise RuntimeError("compression broke the cross-intersection property")
        if k is None and not (is_inclusion_maximal(a) and is_inclusion_maximal(b)):
            raise RuntimeError("dominance closure failed to stay upward closed")
        seen.add(key)
        pairs.append((a, b))
    return pairs
