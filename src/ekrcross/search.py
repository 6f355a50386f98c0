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
  pairs: every closed set in full mode, the closed shift-closed sets in
  shifted mode, seeded with the star product (see ``_search``).  It
  scores each set where it makes it, and pushes only the sets whose
  subtree can still hold a counted tie.  Uniform searches walk traces
  (see ``max_uniform_product``), the layer at m = n;
- ``_search`` is the one search of sets and words alike: it builds the
  rows (``_shifted_rows`` in shifted mode), keeps full mode's past-the-cap
  count, which the benchmark pins, labels the symmetric ties with
  ``_construction`` and builds the ``SearchResult``;
- ``_dominance_preds`` reads the dominance order off ``_prefix_table``,
  as ``_shifted_rows`` reads its rows, and ``_downsets`` walks its
  downsets, the shift-closed families, by Close-by-One, for
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
    _MATERIALIZE_LIMIT, MAX_GROUND,
    BudgetExceeded,
    Family,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    shift_pair_to_fixpoint, shifts_to,  # noqa: F401  perfbench's tracer self-test rebinds both
    subsets_of,
)

DEFAULT_NODE_CAP = 1 << 22
WITNESS_CAP = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive searches.

    ``max_family_bits`` bounds the number of enumeration nodes visited:
    the closed sets that the branch and bound scores (every closed set
    in full mode, the closed shift-closed sets in shifted mode, less
    those it prunes or drops unscored), and the shift-closed families
    that ``iter_shifted_families`` lists.  ``restrict_shifted`` picks
    shifted mode for the set searches (the sequence search always runs
    full mode).  ``time_limit`` is wall-clock seconds, set-up included; a
    walk under one reads the clock at every node visited, one without none.
    """

    max_family_bits: int = DEFAULT_NODE_CAP
    restrict_shifted: bool = False
    time_limit: Optional[float] = None


@dataclass
class SearchResult:
    """Outcome of one extremal search.

    The search keeps the WITNESS_CAP least maximal pairs; ``witnesses``
    hold the first 64 of them (the CLI prints 8) less any with a side of
    members x max(n, 64) > _MATERIALIZE_LIMIT x 64 bits (over the limit's
    sets at n <= 64), which notes["witnesses_omitted"] counts;
    ``witness_classes`` are the construction labels attained by all kept,
    and ``witness_count`` counts all distinct maximal closed pairs found.
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
        self.limit = budget.time_limit
        self.t0 = None if self.limit is None else time.monotonic()

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


def _blocked(shifts: Sequence[tuple[int, int]], span: int) -> Callable[[int], int]:
    """blocked(A) holds the j with a cover missing from A: the OR over
    the offsets (d, g_d) of (~A << d) & g_d, g_d holding each j with a
    cover at j - d.  For A closed under the covers, these are the j that
    force a candidate A lacks (see ``_search``), and no filter is
    needed, as every cover of j lies below j."""
    full = (1 << span) - 1

    def blocked(a: int) -> int:
        lack = full ^ a
        return reduce(operator.or_, [lack << d & g for d, g in shifts], 0)
    return blocked


def _best_closed(rows: Sequence[int], weights: Optional[Sequence[int]], budget: SearchBudget,
                 seed: int = 0, shifts: Optional[Sequence[tuple[int, int]]] = None
                 ) -> tuple[int, list, int, int, int]:
    """The scorer of both modes (see ``_search``): a Close-by-One branch
    and bound over a closure system of closed sets, as index masks.
    Returns (best, pairs, count, unretained, nodes visited).

    It walks depth first from (D(full), full), carrying (A, D(A), w(A),
    w(D(A))).  A child adds a j not in A above the one that made A:
    D(A') = D(A) & rows[j] and A' = D(D(A')), a lookup per byte in byte
    tables of the rows that ``_byte_tables`` fills on first read, so a
    walk builds only the entries its closures read.  It is canonical, so
    each closed set of the system is reached once, when A' holds no new
    candidate below j.  With the compatibility rows the system is every
    closed set.  Shifted mode passes rows[j] = D({j} + what j forces)
    (see ``_search``), so A' is the least closed set holding A, j and
    what j forces, and ``shifts``: child j is then not canonical when a
    cover of j is missing from A (j forces a missing candidate, all of
    which lie below j), and ``_blocked`` drops all such children as one
    mask.  ``seed`` is a product some pair attains, the starting ``best``.

    Weights None means counting measure; otherwise w(x) sums v times
    the size of x & mask_v over one mask_v per distinct weight v.  The
    relation is symmetric and the weights positive, so a child weighs
    more than A, and D(D(A')) = A'.  Four strict rules drop what holds no
    counted tie (lo is the least weight, r = w(D(A')) - lo for child A'):
    - j not in A = D(D(A)) means some x in D(A) misses j, so each strict
      descendant drops x: A' is not pushed if r^2 < best, and a popped A
      walks no child if (w(D(A)) - lo)^2 < best, as best may have risen.
    - a canonical descendant of child j adds only candidates >= j, so its
      weight is at most ``grown``, w(A) plus the free candidates >= j,
      blocked or not: child j is skipped when grown w(D(A')) < best, and
      before D(A') is taken when grown (w(D(A)) - lo) < best.  A' and its
      descendants lie there too: with the first rule, no push if r grown < best.
    - the mirror rule: a child is not pushed when w(A') > w(D(A')) > 0,
      or w(A') = w(D(A')) and A' > D(A').  Its mirror D(A') is a closed
      set of the system with partner A' and the same product, counted
      from that side, and each strict descendant weighs more than its
      partner.  Both cases are ruled out before the closure, as
      w(A') >= w(A) + w(j), with A' = A + j at equality.
    - mirror order: a strict descendant A'' of A' adds a candidate above
      j, so as ints A'' >= A' + 2^(j+1), and D(A'') <= D(A').  So if
      A' + 2^(j+1) > D(A'), a counted tie below has w(A'') < w(D(A'')) <= r,
      a product <= r (r - 1) as weights are integers: no push if < best.
    Each set is scored where it is made (the root as the child made at
    j = -1), a child not pushed only if its product reaches best.  The
    sets scored are the nodes visited, which ``max_family_bits`` caps,
    and each reads the clock under a time limit.

    ``count`` is S + P over the S ties with A = D(A) and the P others,
    each counted once, from the side the mirror rule keeps.  The
    WITNESS_CAP least (min, max) pairs are kept, as int keys min << L |
    max over L candidates, which order like the tuples; R of them have
    A != D(A), and ``unretained`` is P - R.
    """
    deadline, limited, span = _Deadline(budget), budget.time_limit is not None, len(rows)
    full = (1 << span) - 1
    unit = weights or [1] * span
    lo = min(unit, default=1)
    and_tabs, fill = _byte_tables(rows, full, operator.and_)
    size = len(and_tabs)
    blocked = None if shifts is None else _blocked(shifts, span)

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

    best, ties, split, visited = seed, 0, 0, 0
    kept: list[int] = []  # the WITNESS_CAP least tie keys, negated: a max-heap
    stack, todo = [], 0
    na = _partner(full & ~reduce(operator.or_, [g >> d for d, g in shifts or ()], 0), rows, full)
    nb, wna, wnb, j, deep = full, w(na), w(full), -1, True
    r, prod = wnb - lo, wna * wnb
    while True:
        visited += 1
        if visited > budget.max_family_bits:
            raise BudgetExceeded(
                f"closed-set search exceeds max_family_bits={budget.max_family_bits}")
        if limited:
            deadline.check()
        if prod > best:
            best, ties, split, kept = prod, 0, 0, []
        if prod == best and wna <= wnb:
            ties, split = ties + 1, split + (na != nb)
            key = -(na << span | nb if na <= nb else nb << span | na)
            (heapq.heappush if len(kept) < WITNESS_CAP else heapq.heappushpop)(kept, key)
        if deep:
            stack.append((na, nb, wna, r, j + 1))
        while True:  # on to the next child worth scoring
            while not todo:
                if not stack:
                    pairs = sorted(divmod(-key, 1 << span) for key in kept)
                    return best, pairs, ties, split - sum(x != y for x, y in pairs), visited
                a, b, wa, rb, start = stack.pop()
                if rb * rb < best:
                    continue
                free = full & ~a >> start << start
                todo = free & ~blocked(a) if blocked else free
                grown = wa
            j = todo.bit_length() - 1
            todo ^= 1 << j
            grown = wa + w(free >> j << j) if blocked else grown + unit[j]
            if rb * grown < best:
                continue
            nb = b & rows[j]
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
            r, prod = wnb - lo, wna * wnb
            deep = (r * r >= best and r * grown >= best
                    and (na + (2 << j) <= nb or r * (r - 1) >= best))
            if (wna < wnb or wna == wnb and na <= nb or not wnb) and (deep or prod >= best):
                break


# ---------------------------------------------------------------------------
# the dominance order and its downsets (the shift-closed families)
# ---------------------------------------------------------------------------


def _prefix_table(cands: Sequence[int]) -> list[list[int]]:
    """P[p][q], q <= p: the index mask of the candidates with at least q
    elements in [0, p), bit-sliced over the element columns (q in
    [0, p + 1) is q in [0, p), or q - 1 there and p)."""
    table = [[(1 << len(cands)) - 1]]
    for col in _columns(cands):
        table.append([a | b & col for a, b in zip(table[-1] + [0], [0] + table[-1])])
    return table


def _covers(m: int) -> list[int]:
    """The sets that the set ``m`` covers in the same-size dominance
    order, for ``_search``: m with one element moved one step left."""
    return [m - (1 << (b - 1)) for b in _bits(m) if b and not m >> (b - 1) & 1]


def _dominance_preds(masks: Sequence[int], n: int = 0) -> list[int]:
    """preds[i] = index mask of the candidates that candidate i forces,
    the j whose set the set of i shifts to (``setfam.shifts_to``): n = 0
    gives the same-size order, n > 0 the whole one on the power set of
    [n], which may add elements (any other list raises KeyError).

    Write S = masks[i] as s_0 < s_1 < ..., from 0.  S forces T when
    t_r <= s_r for each r < |S|, that is, when |T & [0, s_r]| >= r + 1:
    t_0 < ... < t_r lie in [0, s_r] when t_r does, and the least r + 1
    elements of T there are t_0..t_r.  So preds[i] is the AND over r of
    P[s_r + 1][r + 1] (``_prefix_table``), within S's layer P[w][|S|]
    less P[w][|S| + 1] when n = 0, less i.  The run ends of S suffice:
    if s_{r+1} = s_r + 1, r + 2 elements in [0, s_r + 1] leave r + 1 in
    [0, s_r]."""
    if n and sorted(masks) != list(range(1 << n)):
        raise KeyError(f"the whole dominance order needs the power set of [{n}]")
    table = _prefix_table(masks)
    sizes = table[-1] + [0]
    preds = []
    for i, s in enumerate(masks):
        layer = table[0][0] if n else sizes[s.bit_count()] & ~sizes[s.bit_count() + 1]
        preds.append(reduce(operator.and_, [table[e + 1][(s & (2 << e) - 1).bit_count()]
                                            for e in _bits(s & ~(s >> 1))], layer) & ~(1 << i))
    return preds


def _downsets(preds: Sequence[int], budget: SearchBudget,
              within: Optional[int] = None) -> Iterable[int]:
    """Every family closed under ``preds`` within the closed family
    ``within`` (default: all candidates), depth first and each once, as
    an index mask.  Close-by-One (Kuznetsov 1993), as ``_best_closed``
    walks, in list order: preds is transitive, so a closed A and j close
    to A + j + preds[j].  A child adds a j >= the one that made A, kept
    only when it adds nothing below j.  So each closed A is reached once:
    at the least j with A the closure of its members up to j, from the
    closure of those below j."""
    deadline, limited = _Deadline(budget), budget.time_limit is not None
    allowed = (1 << len(preds)) - 1 if within is None else within
    visited = 0
    stack = [(0, 0)]
    while stack:
        a, start = stack.pop()
        visited += 1
        if visited > budget.max_family_bits:
            raise BudgetExceeded(f"downset search exceeds max_family_bits={budget.max_family_bits}")
        if limited:
            deadline.check()
        yield a
        todo = allowed & ~a >> start << start
        while todo:
            j = todo.bit_length() - 1
            todo ^= 1 << j
            if not preds[j] & ~a & (1 << j) - 1:
                stack.append((a | 1 << j | preds[j], j + 1))


def _search(cands: Sequence[int], weights: Optional[Sequence[int]], t: int,
            budget: SearchBudget, prefix: str, family: Callable[[int], object],
            scale: Optional[Fraction] = None, notes: Optional[dict] = None) -> SearchResult:
    """The ``SearchResult`` of ``_best_closed`` over ``cands`` in the
    budget's mode: the traces of a uniform search (``max_uniform_product``;
    the k-layer is the traces at m = n), the power set of [n], or the
    one-hot words of ``seq``.

    Shifted mode walks the closed pairs of shift-closed families, under
    the same-size order: a family is shift-closed when it holds each
    cover of its members (``_covers``: one element moved one step left),
    and every list given holds them, as a left shift keeps the size and
    the ground set.  The lemma: D of a shift-closed A is shift-closed.
    Take T in D(A) and its cover T' = T - j + i, where T holds j and
    misses i = j - 1.  A member S of A meets T' less than T only when S
    holds j and misses i; then S' = S - j + i is a cover of S, so in A,
    and |T' & S| = |T & S'| >= t.  So T' is in D(A).  The closed sets
    and the shift-closed families are both closed under intersection, so
    the closed shift-closed sets are a closure system, and the least one
    above X is D(D(X + forced(X))).  One order serves every list: a
    closed set is up-closed in ``cands``, as D of anything is, so closed
    under the same-size shifts is closed under the whole dominance order.
    Close-by-One walks any closure system (Kuznetsov 1993), so shifted
    mode is the same walk on rows[j] = D({j} + forced(j)); its canonicity
    test and its rules hold unchanged, as a descendant of child j still
    adds only candidates >= j.  Its ``best`` starts at the product of the
    star pair (every candidate holding [t], twice), which is cross
    t-intersecting.

    ``_shifted_rows`` builds them by the prefix lemma.  Write S = cands[j]
    as s_0 < s_1 < ..., from 0: {j} + forced(j) is each same-size T with
    all t_i <= s_i, all listed.  The fewest elements of X in such a T is
    the max of 0 and each f(i) = |X & [0, s_i]| - (s_i - i): T has i + 1
    elements in [0, s_i], at most s_i + 1 - |X & [0, s_i]| outside X, and
    the T taking for t_i the least element above t_{i-1} outside X if at
    most s_i, else t_{i-1} + 1, skips none outside X, so holds f(i) of X
    for the last i where it takes one of X.  So X is in rows[j] when some
    f(i) >= t, and only the last i of each run of S counts, as f(i) <=
    f(i + 1) when s_{i+1} = s_i + 1.  The closure and the root read these
    rows too, exactly: their AND over X is D(X + forced(X)), so D(X) for
    X shift-closed, which each set the walk closes is: the whole list, and
    D(A) & rows[j] = D(A + j + forced(j)), by the lemma, as A is.  The
    root ANDs only the candidates no cover of another: rows[c] holds
    rows[j] for a cover c of j, and covers chain up the list to one kept.

    The covers loop puts j in g_d for each cover j - d, for ``_blocked``;
    a cover listed after its candidate raises ValueError, and a missing
    one KeyError.  List order is a linear extension: a left shift gives
    a lexicographically smaller combination in ``subsets_of`` order,
    and a lower mask in the power set.  The time limit counts set-up: its
    clock is read after each phase, and the walk gets the time left.

    Full mode walks every closed set, unseeded.  Both modes count each
    tied closed pair once, from its side A with w(A) < w(D(A)), or
    w(A) = w(D(A)) and A <= D(A), which the mirror rule keeps.  That A
    lies below no pruned or dropped node, as each strict ancestor A''
    has w(A'') < w(A) <= w(D(A)) <= w(D(A'')), and the rules of
    ``_best_closed`` keep every subtree that holds it.  Shifted mode
    reports that true count, S + P.  Full mode reports S + 2P - R over
    the S ties with A = D(A) and the P others, R of them retained: past
    WITNESS_CAP it counts the P - R others not retained twice, as the
    breadth-first scorer it replaced did, because the benchmark pins
    those counts; dropping the term needs a benchmark re-pin.

    A symmetric pair (A, A) is named ``prefix`` + the ``_construction``
    label of A (F0, F1 for sets, H0, H1 for words); every other pair is
    ``other``.  Class names sort with the reference constructions first,
    so the first attained is the match.  ``family`` turns an index mask
    into a family, or None when it is too large to list, ``scale`` turns
    the integer product into the measure, and ``notes`` follow the mode's.
    """
    started, deadline = time.perf_counter(), _Deadline(budget)
    rows = (_shifted_rows if budget.restrict_shifted else compatibility_rows)(cands, t)
    deadline.check()
    shifted = {}
    if budget.restrict_shifted:
        index, offsets = {c: i for i, c in enumerate(cands)}, {}
        for j, m in enumerate(cands):
            for c in map(index.__getitem__, _covers(m)):
                if c >= j:
                    raise ValueError(f"cover {c} of candidate {j} is listed after it")
                offsets[j - c] = offsets.get(j - c, 0) | 1 << j
        deadline.check()
        core = (1 << t) - 1
        star = sum(1 if weights is None else weights[i]
                   for i, c in enumerate(cands) if c & core == core)
        shifted = {"seed": star * star, "shifts": list(offsets.items())}
    best, pairs, count, unretained, nodes = _best_closed(
        rows, weights, replace(budget, time_limit=deadline.check()), **shifted)
    labels = {_construction(a, cands, t) if a == b else None for a, b in pairs}
    classes = tuple(sorted("other" if i is None else f"{prefix}{i}" for i in labels))
    shown = [(family(a), family(b)) for a, b in pairs[:64]]
    witnesses = [pair for pair in shown if None not in pair]
    if len(witnesses) < len(shown):
        notes = {**(notes or {}), "witnesses_omitted": len(shown) - len(witnesses)}
    return SearchResult(
        max_product=best if scale is None else best * scale,
        witnesses=witnesses,
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
    masks = subsets_of(n, k)
    preds = _dominance_preds(masks, n if inclusion_maximal else 0)
    for chosen in _downsets(preds, budget or SearchBudget()):
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


def _columns(cands: Sequence[int]) -> list[int]:
    """cols[e] = index mask of the candidates holding e, in linear time."""
    width = max(cands, default=0).bit_length()
    digits = "".join(format(c, f"0{width}b") for c in reversed(cands))
    return [int(digits[width - 1 - e::width], 2) for e in range(width)]


def compatibility_rows(cands: Sequence[int], t: int) -> list[int]:
    """rows[i] = index mask of candidates meeting candidate i in >= t:
    at[q] holds those with >= q of the elements of i so far."""
    full, cols, rows = (1 << len(cands)) - 1, _columns(cands), []
    for c in cands:
        at = [full] + [0] * t
        for e in _bits(c):
            for q in range(t, 0, -1):
                at[q] |= at[q - 1] & cols[e]
        rows.append(at[t])
    return rows


def _shifted_rows(cands: Sequence[int], t: int) -> list[int]:
    """rows[j], the OR of P[s_i + 1][s_i - i + t] over the run ends s_i of
    S = cands[j] (see ``_search``), P the ``_prefix_table``."""
    table = _prefix_table(cands)
    keys = [tuple((s + 1, q) for s in _bits(c & ~(c >> 1))
                  if (q := t + s - (c & (1 << s) - 1).bit_count()) <= s + 1) for c in cands]
    rows = {key: reduce(operator.or_, (table[p][q] for p, q in key), 0) for key in set(keys)}
    return [rows[key] for key in keys]


def max_uniform_product(
    n: int, k: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of |A| |B| over cross t-intersecting A, B in the
    k-layer of [n], with the witnesses ``SearchResult`` describes.

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
    ``subsets_of`` order, with weights None (counting measure).
    """
    if t < 1 or not 1 <= k <= n:
        raise ValueError(f"need t >= 1 and 1 <= k <= n, got t={t}, k={k}, n={n}")
    budget = budget or SearchBudget()
    m = min(2 * k - t, n) if budget.restrict_shifted and t <= k else n
    traces = [s for size in range(max(min(t, k), k - n + m), k + 1) for s in subsets_of(m, size)]
    sizes = [math.comb(n - m, k - s.bit_count()) for s in traces]  # the k-sets with each trace
    most = _MATERIALIZE_LIMIT * MAX_GROUND // max(n, MAX_GROUND)  # members a listed side may hold
    return _search(traces, sizes if m < n else None, t, budget, "F", lambda mask: None if sum(
        sizes[i] for i in _bits(mask)) > most else Family(n, tuple(sorted(
            s | sum(1 << e for e in rest) for s in map(traces.__getitem__, _bits(mask))
            for rest in itertools.combinations(range(m, n), k - s.bit_count()))), k))


def max_weight_product(
    n: int, t: int, p: Fraction, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of the weight product over cross t-intersecting
    pairs in the power set of [n].  Weights are scaled to integers
    (p = a/b gives a^|F| (b-a)^(n-|F|)), so comparisons are exact."""
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0,1), got {p}")
    a, b = p.numerator, p.denominator
    cands = subsets_of(n)
    weights = [a ** m.bit_count() * (b - a) ** (n - m.bit_count()) for m in cands]
    # Candidate i is the set with mask i, so an index mask's bits are its members, in order.
    return _search(cands, weights, t, budget or SearchBudget(), "F",
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
    cands = subsets_of(n, k)
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
        return [a for a in itertools.islice(_downsets(preds, SearchBudget(), x), count + 1) if a]

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
