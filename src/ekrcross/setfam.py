"""Subsets of a ground set, set families, and compression machinery.

A subset of [n] = {1, ..., n} is stored as an n-bit mask (element e is
bit e-1), so intersection sizes, left-compressions, closure sweeps and
exhaustive enumeration all reduce to integer bit arithmetic.  Families
keep their members sorted by bit pattern, which makes family equality a
plain tuple comparison and fixpoint detection cheap.

Everything here is an immutable value; all operations are pure
functions and safe to use concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

MAX_GROUND = 64
# Families are materialized member-by-member; refuse ground sets whose
# power set (or binomial layer) would not fit in memory.
_MATERIALIZE_LIMIT = 1 << 20


class GroundSetMismatch(ValueError):
    """Raised when two objects over different ground sets are combined."""


class BudgetExceeded(RuntimeError):
    """Raised when a search or enumeration would exceed its stated budget."""


def _check_ground(n: int) -> None:
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {n}")


def mask_of(elements: Iterable[int], n: int) -> int:
    """Pack 1-based elements into a bit mask, validating the range."""
    m = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set [1, {n}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, order=True)
class Subset:
    """A subset of [n], doubling as an n-step up/right lattice walk."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_ground(self.n)
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has bits outside [1, {self.n}]")

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "Subset":
        return cls(n, mask_of(elements, n))

    @property
    def members(self) -> tuple[int, ...]:
        return elements_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.n and bool(self.mask >> (e - 1) & 1)

    def element(self, i: int) -> int:
        """The i-th smallest element (1-based); the sets are ordered."""
        if not 1 <= i <= len(self):
            raise ValueError(f"element index {i} out of range for a {len(self)}-set")
        m = self.mask
        for _ in range(i - 1):
            m &= m - 1
        return (m & -m).bit_length()

    def intersection_size(self, other: "Subset") -> int:
        if other.n != self.n:
            raise GroundSetMismatch("ground-set mismatch")
        return (self.mask & other.mask).bit_count()

    def complement(self) -> "Subset":
        return Subset(self.n, ((1 << self.n) - 1) ^ self.mask)

    def __repr__(self) -> str:
        return f"Subset({self.n}, {{{','.join(map(str, self.members))}}})"


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of subsets of a common ground set.

    ``masks`` is always sorted ascending by bit pattern, so two families
    are equal exactly when their fields are.  ``k`` marks a k-uniform
    family; ``None`` means no uniformity constraint.
    """

    n: int
    masks: tuple[int, ...]
    k: Optional[int] = None

    def __post_init__(self) -> None:
        _check_ground(self.n)
        prev = -1
        for m in self.masks:
            if m <= prev:
                raise ValueError("family masks must be strictly increasing")
            if m < 0 or m >> self.n:
                raise ValueError("family member outside ground set")
            if self.k is not None and m.bit_count() != self.k:
                raise ValueError(
                    f"member of size {m.bit_count()} in {self.k}-uniform family"
                )
            prev = m

    @classmethod
    def of(cls, n: int, sets: Iterable, k: Optional[int] = None) -> "Family":
        masks = set()
        for s in sets:
            if isinstance(s, Subset):
                if s.n != n:
                    raise GroundSetMismatch("ground-set mismatch")
                masks.add(s.mask)
            elif isinstance(s, int):
                masks.add(s)
            else:
                masks.add(mask_of(s, n))
        return cls(n, tuple(sorted(masks)), k)

    @classmethod
    def empty(cls, n: int, k: Optional[int] = None) -> "Family":
        return cls(n, (), k)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Subset]:
        return (Subset(self.n, m) for m in self.masks)

    def __contains__(self, item) -> bool:
        m = item.mask if isinstance(item, Subset) else item
        return m in set(self.masks)

    def member_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.masks)

    def __repr__(self) -> str:
        body = ", ".join("{" + ",".join(map(str, elements_of(m))) + "}" for m in self.masks)
        tag = f", k={self.k}" if self.k is not None else ""
        return f"Family(n={self.n}{tag}, [{body}])"


# ---------------------------------------------------------------------------
# cross intersection and compression operators
# ---------------------------------------------------------------------------


def is_cross_t_intersecting(a: Family, b: Family, t: int) -> bool:
    """True iff every pair from a x b shares at least t elements.

    Empty families satisfy the condition vacuously.
    """
    if a.n != b.n:
        raise GroundSetMismatch("ground-set mismatch")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    for ma in a.masks:
        for mb in b.masks:
            if (ma & mb).bit_count() < t:
                return False
    return True


def _shift_masks(masks: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    bi = 1 << (i - 1)
    bj = 1 << (j - 1)
    present = set(masks)
    out = []
    for m in masks:
        if m & bj and not m & bi:
            moved = (m ^ bj) | bi
            out.append(m if moved in present else moved)
        else:
            out.append(m)
    res = tuple(sorted(out))
    assert len(set(res)) == len(masks), "compression must preserve cardinality"
    return res


def shift_ij(fam: Family, idx: tuple[int, int]) -> Family:
    """Apply the (i, j) compression, replacing j by i where possible, to
    every member of the family; needs 1 <= i < j <= n."""
    i, j = idx
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= {fam.n}, got ({i}, {j})")
    return Family(fam.n, _shift_masks(fam.masks, i, j), fam.k)


def is_shifted(fam: Family) -> bool:
    """True iff the family is fixed under every (i, j) compression.

    Equivalently: for every member containing j but not i < j, the set
    with j replaced by i is also a member.
    """
    present = set(fam.masks)
    for m in fam.masks:
        rest = m
        while rest:
            low = rest & -rest
            j = low.bit_length()
            rest ^= low
            below = m & (low - 1)
            absent = (low - 1) ^ below   # positions < j not in m
            while absent:
                lo2 = absent & -absent
                absent ^= lo2
                if ((m ^ low) | lo2) not in present:
                    return False
    return True


def shift_pair_to_fixpoint(
    a: Family, b: Family
) -> tuple[Family, Family, list[tuple[int, int]]]:
    """Compress both families simultaneously until both are shifted.

    Sweeps (i, j) in lexicographic order and repeats until a full pass
    leaves both families unchanged.  Termination is guaranteed because
    the total element sum over both families strictly decreases with
    every applied compression.  The trace records every (i, j) that
    changed at least one family.
    """
    if a.n != b.n:
        raise GroundSetMismatch("ground-set mismatch")
    n = a.n
    trace = []
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                na = _shift_masks(a.masks, i, j)
                nb = _shift_masks(b.masks, i, j)
                if na != a.masks or nb != b.masks:
                    a = Family(a.n, na, a.k)
                    b = Family(b.n, nb, b.k)
                    trace.append((i, j))
                    changed = True
    return a, b, trace


def upward_closure(fam: Family) -> Family:
    """All supersets of members.  The result carries no uniformity tag."""
    seen = set(fam.masks)
    stack = list(fam.masks)
    bits = [1 << e for e in range(fam.n)]
    while stack:
        m = stack.pop()
        for bit in bits:
            up = m | bit
            if up != m and up not in seen:
                seen.add(up)
                stack.append(up)
    return Family(fam.n, tuple(sorted(seen)), None)


def is_inclusion_maximal(fam: Family) -> bool:
    """True iff the family is closed under taking supersets."""
    present = set(fam.masks)
    for m in fam.masks:
        for e in range(fam.n):
            up = m | (1 << e)
            if up != m and up not in present:
                return False
    return True


def shifts_to(a: Subset, b: Subset) -> bool:
    """Dominance order: |a| <= |b| and (a)_i >= (b)_i for i <= |a|."""
    if a.n != b.n:
        raise GroundSetMismatch("ground-set mismatch")
    ea, eb = a.members, b.members
    if len(ea) > len(eb):
        return False
    return all(x >= y for x, y in zip(ea, eb))


# ---------------------------------------------------------------------------
# duals and prefixes
# ---------------------------------------------------------------------------


def dual_t(a: Subset, t: int) -> Subset:
    """The canonical non-partner of a: [(a)_t - 1] joined with [n] \\ a.

    Always meets a in exactly t - 1 elements, so no family cross
    t-intersecting with one containing a may contain it.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if len(a) < t:
        raise ValueError("t-th element undefined")
    at = a.element(t)
    below = (1 << (at - 1)) - 1
    full = (1 << a.n) - 1
    return Subset(a.n, below | (full ^ a.mask))


def first_k(a: Subset, k: int) -> Subset:
    """The k smallest elements of a."""
    if k < 0 or len(a) < k:
        raise ValueError(f"first_k needs at least {k} elements, set has {len(a)}")
    m = a.mask
    keep = 0
    for _ in range(k):
        low = m & -m
        keep |= low
        m ^= low
    return Subset(a.n, keep)


def dual_t_k(a: Subset, t: int, k: int) -> Subset:
    """k-uniform dual: the k smallest elements of the dual of a."""
    if len(a) != k:
        raise ValueError(f"dual_t_k expects |a| = k = {k}, got {len(a)}")
    if k < t:
        raise ValueError(f"need k >= t, got k={k} < t={t}")
    d = dual_t(a, t)
    if len(d) < k:
        raise ValueError("dual has fewer than k elements")
    return first_k(d, k)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------


def make_threshold_family(n: int, t: int, i: int) -> Family:
    """All subsets of [n] meeting [t+2i] in at least t+i elements.

    i = 0 is the star of all supersets of [t].
    """
    _check_ground(n)
    if t < 1 or i < 0:
        raise ValueError(f"need t >= 1 and i >= 0, got t={t}, i={i}")
    w = t + 2 * i
    if w > n:
        raise ValueError(f"window t+2i = {w} exceeds ground set {n}")
    if 1 << n > _MATERIALIZE_LIMIT:
        raise BudgetExceeded(f"2^{n} members exceed the materialization limit")
    masks = []
    for head in range(1 << w):
        if head.bit_count() < t + i:
            continue
        for tail in range(1 << (n - w)):
            masks.append(head | (tail << w))
    return Family(n, tuple(sorted(masks)), None)


def make_threshold_family_uniform(n: int, k: int, t: int, i: int) -> Family:
    """All k-subsets of [n] meeting [t+2i] in at least t+i elements."""
    _check_ground(n)
    if not (1 <= t <= k <= n):
        raise ValueError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if not 0 <= i <= k - t:
        raise ValueError(f"need 0 <= i <= k-t, got i={i}")
    w = t + 2 * i
    if w > n:
        raise ValueError(f"window t+2i = {w} exceeds ground set {n}")
    window = list(range(1, w + 1))
    outside = list(range(w + 1, n + 1))
    masks = []
    for j in range(t + i, min(w, k) + 1):
        if k - j > len(outside):
            continue
        for head in itertools.combinations(window, j):
            hm = mask_of(head, n)
            for tail in itertools.combinations(outside, k - j):
                masks.append(hm | mask_of(tail, n))
    if len(masks) > _MATERIALIZE_LIMIT:
        raise BudgetExceeded("family too large to materialize")
    return Family(n, tuple(sorted(masks)), k)


def superset_family(n: int, core: Iterable[int], k: Optional[int] = None) -> Family:
    """All (k-)subsets of [n] containing the given core set."""
    cm = mask_of(core, n)
    rest = [e for e in range(1, n + 1) if not cm >> (e - 1) & 1]
    c = cm.bit_count()
    masks = []
    if k is None:
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                masks.append(cm | mask_of(extra, n))
    else:
        if k < c:
            return Family(n, (), k)
        for extra in itertools.combinations(rest, k - c):
            masks.append(cm | mask_of(extra, n))
    return Family(n, tuple(sorted(masks)), k)


def make_saturated_walk(n: int, u: int) -> Subset:
    """The dominance-greatest set whose walk never climbs above y = x + u.

    Starts with [u] and then alternates right/up to the end of the
    ground set: [u] together with u+2, u+4, ... inside [n].
    """
    _check_ground(n)
    if u < 0 or u > n:
        raise ValueError(f"level u must be in [0, {n}], got {u}")
    m = (1 << u) - 1
    e = u + 2
    while e <= n:
        m |= 1 << (e - 1)
        e += 2
    return Subset(n, m)


def make_uniform_counterexample(n: int, k: int, t: int) -> Family:
    """A shifted t-intersecting k-uniform family close to the star bound
    yet contained in no relabeled star: start from the star over [t],
    drop the members avoiding [t+1, k+1] entirely, and add the t sets
    [k+1] minus one element of [t]."""
    if not (k >= t >= 1):
        raise ValueError(f"need k >= t >= 1, got k={k}, t={t}")
    if n <= (t + 1) * k:
        raise ValueError(f"need n > (t+1)k = {(t + 1) * k}, got n={n}")
    star = make_threshold_family_uniform(n, k, t, 0)
    window = mask_of(range(t + 1, k + 2), n)
    kept = [m for m in star.masks if m & window]
    hole_sets = [mask_of(set(range(1, k + 2)) - {i}, n) for i in range(1, t + 1)]
    return Family(n, tuple(sorted(set(kept) | set(hole_sets))), k)


def make_weight_counterexample(n: int, t: int) -> Family:
    """The unrestricted analogue: the star of all supersets of [t] with
    [t] itself removed and the t co-singletons [n] minus one element of
    [t] added.  Shifted, inclusion maximal, t-intersecting, and of
    weight p^t - p^t q^(n-t) + t p^(n-1) q."""
    if not (n > t >= 1):
        raise ValueError(f"need n > t >= 1, got n={n}, t={t}")
    star = make_threshold_family(n, t, 0)
    t_mask = (1 << t) - 1
    full = (1 << n) - 1
    co_singletons = [full ^ (1 << (i - 1)) for i in range(1, t + 1)]
    return Family(
        n, tuple(sorted((set(star.masks) - {t_mask}) | set(co_singletons))), None
    )


# ---------------------------------------------------------------------------
# isomorphism and maximal partners
# ---------------------------------------------------------------------------

ISO_GROUND_LIMIT = 12


def are_isomorphic(a: Family, b: Family) -> Optional[tuple[int, ...]]:
    """A relabeling permutation f of [n] with a = {f(B) : B in b}, if any.

    Returned as a tuple perm with perm[e-1] = f(e).  Prunes with member
    size multisets and per-element incidence signatures before the
    assignment search; identical families yield the identity first.
    """
    if a.n != b.n:
        raise GroundSetMismatch("ground-set mismatch")
    n = a.n
    if n > ISO_GROUND_LIMIT:
        raise BudgetExceeded("iso search budget exceeded")
    if len(a) != len(b):
        return None
    sizes_a = sorted(m.bit_count() for m in a.masks)
    sizes_b = sorted(m.bit_count() for m in b.masks)
    if sizes_a != sizes_b:
        return None

    def signature(fam: Family, e: int) -> tuple:
        bit = 1 << (e - 1)
        return tuple(sorted(m.bit_count() for m in fam.masks if m & bit))

    sig_a = {e: signature(a, e) for e in range(1, n + 1)}
    sig_b = {e: signature(b, e) for e in range(1, n + 1)}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None

    a_masks = set(a.masks)
    b_members = b.masks

    perm = [0] * (n + 1)   # perm[e] = f(e), 1-based
    used = [False] * (n + 1)

    def partial_ok(depth: int, image_mask: int) -> bool:
        # Multiset of (mapped prefix of member, member size) must agree
        # between the two families for the current partial assignment.
        from collections import Counter

        lhs = Counter()
        for m in b_members:
            mapped = 0
            mm = m
            while mm:
                low = mm & -mm
                e = low.bit_length()
                mm ^= low
                if e <= depth:
                    mapped |= 1 << (perm[e] - 1)
            lhs[(mapped, m.bit_count())] += 1
        rhs = Counter()
        for m in a_masks:
            rhs[(m & image_mask, m.bit_count())] += 1
        return lhs == rhs

    def dfs(e: int, image_mask: int) -> bool:
        if e > n:
            mapped = set()
            for m in b_members:
                out = 0
                mm = m
                while mm:
                    low = mm & -mm
                    out |= 1 << (perm[low.bit_length()] - 1)
                    mm ^= low
                mapped.add(out)
            return mapped == a_masks
        for y in range(1, n + 1):
            if used[y] or sig_b[e] != sig_a[y]:
                continue
            perm[e] = y
            used[y] = True
            if partial_ok(e, image_mask | (1 << (y - 1))) and dfs(
                e + 1, image_mask | (1 << (y - 1))
            ):
                return True
            used[y] = False
            perm[e] = 0
        return False

    if dfs(1, 0):
        return tuple(perm[1:])
    return None


def maximal_cross_partner(a: Family, t: int, k: Optional[int] = None) -> Family:
    """The largest family cross t-intersecting with a.

    Over the k-uniform layer when k is given, over the full power set
    otherwise.  An empty input yields the whole candidate space: the
    condition is vacuous, and the closure searches rely on that.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    n = a.n
    if k is None:
        if 1 << n > _MATERIALIZE_LIMIT:
            raise BudgetExceeded("power set too large to materialize")
        candidates: Iterable[int] = range(1 << n)
    else:
        candidates = (mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k))
    out = []
    for c in candidates:
        if all((c & m).bit_count() >= t for m in a.masks):
            out.append(c)
    return Family(n, tuple(sorted(out)), k)


# ---------------------------------------------------------------------------
# serialization: header "n=<n> k=<k|*>", one comma-separated set per line
# ---------------------------------------------------------------------------


def family_to_text(fam: Family) -> str:
    lines = [f"n={fam.n} k={fam.k if fam.k is not None else '*'}"]
    for m in fam.masks:
        lines.append(",".join(map(str, elements_of(m))))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty family serialization")
    header = lines[0].split()
    try:
        n = int(header[0].removeprefix("n="))
        k_str = header[1].removeprefix("k=")
        k = None if k_str == "*" else int(k_str)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad family header: {lines[0]!r}") from exc
    masks = []
    for line in lines[1:]:
        line = line.strip()
        elems = [int(x) for x in line.split(",")] if line else []
        masks.append(mask_of(elems, n))
    return Family(n, tuple(sorted(set(masks))), k)
