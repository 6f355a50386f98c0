"""Exhaustive desk-scale searches for extremal cross t-intersecting pairs.

The key reduction: for a fixed family A, the best partner is the full
compatibility intersection D(A) (every candidate meeting all of A in at
least t elements), and an optimal pair satisfies B = D(A), A = D(B).
The engine therefore walks the closure system generated by the
per-candidate compatibility rows: every intersection of rows is visited
exactly once, and the product w(A) w(D(A)) is maximized over it.  That
is exact: any cross-t pair (A0, B0) embeds into the visited pair
(D(B0), D(D(B0))) with no smaller product.

All objective arithmetic is integral (weights are scaled to integers),
so maxima and ties are exact.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .setfam import (
    BudgetExceeded,
    Family,
    Subset,
    is_cross_t_intersecting,
    is_inclusion_maximal,
    is_shifted,
    mask_of,
    maximal_cross_partner,
    shift_pair_to_fixpoint,
    shifts_to,
    upward_closure,
)

DEFAULT_NODE_CAP = 1 << 22
WITNESS_CAP = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exhaustive searches.

    ``max_family_bits`` bounds the number of enumeration nodes (closed
    sets in full mode, shift-closed families in shifted mode);
    ``time_limit`` is wall-clock seconds.
    """

    max_ground_n: int = 8
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


def _closure_max(
    rows: Sequence[int],
    weights: Optional[Sequence[int]],
    budget: SearchBudget,
) -> tuple[int, list[tuple[int, int]], int, int]:
    """Maximize w(A) w(D(A)) over the closure system of the rows.

    Returns (best, argmax pairs as unordered index-mask pairs capped at
    WITNESS_CAP, distinct argmax count, number of closed sets).
    Weights None means counting measure.
    """
    L = len(rows)
    full = (1 << L) - 1
    deadline = _Deadline(budget)
    uniformw = weights is None

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
        if len(seen) > budget.max_family_bits:
            raise BudgetExceeded(
                f"closure system exceeds max_family_bits={budget.max_family_bits}"
            )
        deadline.check()
        frontier = nxt

    best = 0
    argmax: set[tuple[int, int]] = set()
    count = 0
    tick = 0
    for a in seen:
        tick += 1
        if tick & 0xFFF == 0:
            deadline.check()
        b = _partner(a, rows, full)
        wa = a.bit_count() if uniformw else _weight_sum(a, weights)
        wb = b.bit_count() if uniformw else _weight_sum(b, weights)
        prod = wa * wb
        if prod < best:
            continue
        pair = (a, b) if a <= b else (b, a)
        if prod > best:
            best = prod
            argmax = {pair}
            count = 1
        elif pair not in argmax:
            count += 1
            if len(argmax) < WITNESS_CAP:
                argmax.add(pair)
    return best, sorted(argmax), count, len(seen)


# ---------------------------------------------------------------------------
# shift-closed enumeration (downsets of the dominance order)
# ---------------------------------------------------------------------------


def _dominance_preds(masks: Sequence[int], n: int, same_size_only: bool) -> list[int]:
    """preds[i] = index mask of candidates forced by including candidate i.

    Candidate j is forced by i when the set of i shifts to the set of j;
    a shift-closed family containing i must contain j.
    """
    subs = [Subset(n, m) for m in masks]
    preds = [0] * len(masks)
    for i, si in enumerate(subs):
        for j, sj in enumerate(subs):
            if i == j:
                continue
            if same_size_only and len(si) != len(sj):
                continue
            if shifts_to(si, sj):
                preds[i] |= 1 << j
    return preds


def _iter_shift_closed(
    masks: Sequence[int], n: int, budget: SearchBudget, same_size_only: bool
) -> Iterable[int]:
    """All shift-closed subfamilies, as index masks over ``masks``.

    Candidates are processed along a linear extension of the dominance
    order (larger, then lefter, sets first), so a family may include a
    candidate only once everything it forces is already in.
    """
    order = sorted(
        range(len(masks)),
        key=lambda i: (-masks[i].bit_count(), sum(Subset(n, masks[i]).members)),
    )
    preds = _dominance_preds(masks, n, same_size_only)
    deadline = _Deadline(budget)
    produced = 0
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        pos, chosen = stack.pop()
        if pos == len(order):
            produced += 1
            if produced > budget.max_family_bits:
                raise BudgetExceeded(
                    f"shifted enumeration exceeds max_family_bits={budget.max_family_bits}"
                )
            if produced & 0xFFF == 0:
                deadline.check()
            yield chosen
            continue
        idx = order[pos]
        stack.append((pos + 1, chosen))
        if preds[idx] & ~chosen == 0:
            stack.append((pos + 1, chosen | (1 << idx)))


def _shifted_max(
    masks: Sequence[int],
    rows: Sequence[int],
    weights: Optional[Sequence[int]],
    n: int,
    budget: SearchBudget,
    same_size_only: bool,
) -> tuple[int, list[tuple[int, int]], int, int, int]:
    """Maximize over shift-closed families A with partner D(A).

    The partner of a shift-closed family is itself expected to be
    shift-closed; that is asserted on every node, and a violation count
    is returned so callers can fall back to the unrestricted engine.
    """
    L = len(rows)
    full = (1 << L) - 1
    preds = _dominance_preds(masks, n, same_size_only)
    uniformw = weights is None
    best = 0
    argmax: set[tuple[int, int]] = set()
    count = 0
    nodes = 0
    violations = 0
    for a in _iter_shift_closed(masks, n, budget, same_size_only):
        nodes += 1
        b = _partner(a, rows, full)
        rest = b
        while rest:
            low = rest & -rest
            if preds[low.bit_length() - 1] & ~b:
                violations += 1
                break
            rest ^= low
        wa = a.bit_count() if uniformw else _weight_sum(a, weights)
        wb = b.bit_count() if uniformw else _weight_sum(b, weights)
        prod = wa * wb
        if prod < best:
            continue
        pair = (a, b) if a <= b else (b, a)
        if prod > best:
            best, argmax, count = prod, {pair}, 1
        elif pair not in argmax:
            count += 1
            if len(argmax) < WITNESS_CAP:
                argmax.add(pair)
    return best, sorted(argmax), count, nodes, violations


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
        budget = SearchBudget(max_ground_n=n)
    if k is not None and inclusion_maximal:
        raise ValueError("uniform families cannot be inclusion maximal")
    masks = uniform_layer(n, k) if k is not None else list(range(1 << n))
    same_size = not inclusion_maximal
    for chosen in _iter_shift_closed(masks, n, budget, same_size_only=same_size):
        yield Family(n, tuple(sorted(masks[i] for i in _bits(chosen))), k)


# ---------------------------------------------------------------------------
# witness classification
# ---------------------------------------------------------------------------


def _star_core(masks: Sequence[int]) -> int:
    core = ~0
    for m in masks:
        core &= m
    return core


def _classify_pair(
    amask: int,
    bmask: int,
    cands: Sequence[int],
    n: int,
    t: int,
    k: Optional[int],
    window_cache: dict,
) -> str:
    """Label an argmax pair against the two reference constructions.

    F0: both sides equal the family of all (k-)sets containing a fixed
    t-set.  F1: both equal the family meeting a fixed (t+2)-window in
    at least t+1 elements.  Anything else is ``other``.
    """
    if amask != bmask:
        return "other"
    members = [cands[i] for i in _bits(amask)]
    if not members:
        return "other"
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
    return "other"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _index_pair_to_families(
    pair: tuple[int, int], cands: Sequence[int], n: int, k: Optional[int]
) -> tuple[Family, Family]:
    a = Family(n, tuple(sorted(cands[i] for i in _bits(pair[0]))), k)
    b = Family(n, tuple(sorted(cands[i] for i in _bits(pair[1]))), k)
    return a, b


def _finish(
    best_scaled: int,
    pairs: Sequence[tuple[int, int]],
    count: int,
    cands: Sequence[int],
    n: int,
    t: int,
    k: Optional[int],
    scale: Optional[Fraction],
    started: float,
    notes: dict,
) -> SearchResult:
    window_cache: dict = {}
    labels = [_classify_pair(a, b, cands, n, t, k, window_cache) for a, b in pairs]
    classes = tuple(sorted(set(labels)))
    matched = None
    if "F0" in classes:
        matched = "F0"
    elif "F1" in classes:
        matched = "F1"
    elif classes:
        matched = "other"
    witnesses = [
        _index_pair_to_families(p, cands, n, k) for p in pairs[: min(len(pairs), 64)]
    ]
    product: Union[int, Fraction] = best_scaled if scale is None else best_scaled * scale
    return SearchResult(
        max_product=product,
        witnesses=witnesses,
        matched_construction=matched,
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


def max_uniform_product(
    n: int, k: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of |A| |B| over cross t-intersecting A, B in the
    k-layer of [n], with all maximal pairs retained up to the cap."""
    if budget is None:
        budget = SearchBudget(max_ground_n=n)
    if t < 1 or not 1 <= k <= n:
        raise ValueError(f"need t >= 1 and 1 <= k <= n, got t={t}, k={k}, n={n}")
    started = time.perf_counter()
    cands = uniform_layer(n, k)
    rows = compatibility_rows(cands, t)
    if budget.restrict_shifted:
        best, pairs, count, nodes, violations = _shifted_max(
            cands, rows, None, n, budget, same_size_only=True
        )
        notes = {"mode": "shifted", "nodes": nodes, "partner_shift_violations": violations}
        if violations:
            best, pairs, count, closed = _closure_max(rows, None, budget)
            notes = {"mode": "full-fallback", "closed_sets": closed}
    else:
        best, pairs, count, closed = _closure_max(rows, None, budget)
        notes = {"mode": "full", "closed_sets": closed}
    return _finish(best, pairs, count, cands, n, t, k, None, started, notes)


def max_weight_product(
    n: int, t: int, p: Fraction, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of the weight product over cross t-intersecting
    pairs in the power set of [n].  Weights are scaled to integers
    (p = a/b gives a^|F| (b-a)^(n-|F|)), so comparisons are exact."""
    if budget is None:
        budget = SearchBudget(max_ground_n=n)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0,1), got {p}")
    started = time.perf_counter()
    cands = list(range(1 << n))
    rows = compatibility_rows(cands, t)
    a, b = p.numerator, p.denominator
    weights = [a ** m.bit_count() * (b - a) ** (n - m.bit_count()) for m in cands]
    scale = Fraction(1, b ** (2 * n))
    if budget.restrict_shifted:
        best, pairs, count, nodes, violations = _shifted_max(
            cands, rows, weights, n, budget, same_size_only=False
        )
        notes = {"mode": "shifted", "nodes": nodes, "partner_shift_violations": violations}
        if violations:
            best, pairs, count, closed = _closure_max(rows, weights, budget)
            notes = {"mode": "full-fallback", "closed_sets": closed}
    else:
        best, pairs, count, closed = _closure_max(rows, weights, budget)
        notes = {"mode": "full", "closed_sets": closed}
    return _finish(best, pairs, count, cands, n, t, None, scale, started, notes)


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

    Small configurations run out of new pairs long before the attempt
    cap, so repeats are made cheap without changing the stream.  The
    chain seed -> partner -> partner -> fixpoint depends only on the
    seed's member set, so a memo local to the call computes it once per
    distinct seed.  The checks depend only on the pair's masks, so they
    run once per distinct pair, on its first appearance; a repeat is
    dropped by the ``seen`` lookup before any family is built.  Every
    random draw is made exactly as without the memo, so the output is
    the same.
    """
    rng = random.Random(seed)
    cands = uniform_layer(n, k) if k is not None else list(range(1 << n))
    preds = _dominance_preds(cands, n, same_size_only=k is not None)
    index = {m: i for i, m in enumerate(cands)}
    Masks = tuple[int, ...]
    fixpoints: dict[Masks, Optional[tuple[Masks, Masks]]] = {}
    pairs: list[tuple[Family, Family]] = []
    seen = set()
    attempts = 0

    def shrink(masks: Masks) -> Masks:
        if len(masks) <= 1 or rng.random() < 0.4:
            return masks
        take = rng.randint(1, len(masks))
        sample = rng.sample(masks, take)
        return _dominance_closure(sample, cands, index, preds)

    def fixpoint(members: Masks) -> Optional[tuple[Masks, Masks]]:
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
