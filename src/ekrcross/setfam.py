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
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

# ``subsets_of`` alone bounds every listing: at most MAX_GROUND elements,
# which bounds every candidate mask, and at most _MATERIALIZE_LIMIT sets.
MAX_GROUND = 64
_MATERIALIZE_LIMIT = 1 << 20


class GroundSetMismatch(ValueError):
    """Raised when two objects over different ground sets are combined."""


class BudgetExceeded(RuntimeError):
    """Raised when a search or enumeration would exceed its stated budget."""


def _check_ground(n: int) -> None:
    if n < 1:
        raise ValueError(f"ground set size must be >= 1, got {n}")


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


def subsets_of(n: int, k: Optional[int] = None) -> Sequence[int]:
    """The masks of the k-subsets of [n], in lexicographic order of their
    elements, or every subset as range(2^n) when k is None.  Raises
    BudgetExceeded, reading n before any 2^n or C(n, k), rather than list
    from over MAX_GROUND elements or list over _MATERIALIZE_LIMIT sets."""
    if n > MAX_GROUND:
        raise BudgetExceeded(f"subsets of [{n}] exceed the {MAX_GROUND}-element listing limit")
    size = 1 << n if k is None else math.comb(n, k)
    if size > _MATERIALIZE_LIMIT:
        raise BudgetExceeded(f"{size} subsets of [{n}] exceed the materialization limit")
    if k is None:
        return range(1 << n)
    return [mask_of(c, n) for c in itertools.combinations(range(1, n + 1), k)]


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


def sweep_to_fixpoint(a: tuple, b: tuple, moves: Sequence, move: Callable) -> tuple[tuple, tuple, list]:
    """Apply ``move`` to both member tuples for each move in turn, until a
    full pass changes neither.  The trace lists each move that changed one."""
    trace, traced = [], None
    while traced != len(trace):
        traced = len(trace)
        for mv in moves:
            na, nb = move(a, mv), move(b, mv)
            if na != a or nb != b:
                a, b = na, nb
                trace.append(mv)
    return a, b, trace


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
    na, nb, trace = sweep_to_fixpoint(a.masks, b.masks, list(itertools.combinations(range(1, a.n + 1), 2)),
                                      lambda masks, ij: _shift_masks(masks, *ij))
    return Family(a.n, na, a.k), Family(b.n, nb, b.k), trace


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


def make_threshold_family(n: int, t: int, i: int, k: Optional[int] = None) -> Family:
    """All (k-)subsets of [n] meeting [t+2i] in at least t+i elements.

    i = 0 is the star of all supersets of [t].
    """
    if k is None and (t < 1 or i < 0):
        raise ValueError(f"need t >= 1 and i >= 0, got t={t}, i={i}")
    if k is not None and not (1 <= t <= k <= n):
        raise ValueError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if k is not None and not 0 <= i <= k - t:
        raise ValueError(f"need 0 <= i <= k-t, got i={i}")
    w = t + 2 * i
    if w > n:
        raise ValueError(f"window t+2i = {w} exceeds ground set {n}")
    window = (1 << w) - 1
    masks = (m for m in subsets_of(n, k) if (m & window).bit_count() >= t + i)
    return Family(n, tuple(sorted(masks)), k)


def superset_family(n: int, core: Iterable[int], k: Optional[int] = None) -> Family:
    """All (k-)subsets of [n] containing the given core set."""
    cm = mask_of(core, n)
    return Family(n, tuple(sorted(m for m in subsets_of(n, k) if m & cm == cm)), k)


def make_saturated_walk(n: int, u: int) -> Subset:
    """The dominance-greatest set whose walk never climbs above y = x + u.

    Starts with [u] and then alternates right/up to the end of the
    ground set: [u] together with u+2, u+4, ... inside [n].
    """
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
    star = make_threshold_family(n, t, 0, k)
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

    b_members = b.masks

    perm = [0] * (n + 1)   # perm[e] = f(e), 1-based
    used = [False] * (n + 1)

    def partial_ok(depth: int, image_mask: int) -> bool:
        # Multiset of (mapped prefix of member, member size) must agree
        # between the two families for the current partial assignment.
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
        for m in a.masks:
            rhs[(m & image_mask, m.bit_count())] += 1
        return lhs == rhs

    def dfs(e: int, image_mask: int) -> bool:
        if e > n:
            # partial_ok at depth n matched the full images with a's
            # members as multisets; both families are duplicate-free.
            return True
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
    return Family(a.n, tuple(sorted(c for c in subsets_of(a.n, k)
                                    if all((c & m).bit_count() >= t for m in a.masks))), k)


# ---------------------------------------------------------------------------
# serialization: a header line of "<key>=<value>" fields ("n=<n> k=<k|*>" for
# sets), then one comma-separated row of ints per member
# ---------------------------------------------------------------------------


def rows_to_text(header: dict, rows: Iterable[Iterable[int]]) -> str:
    head = " ".join(f"{key}={value}" for key, value in header.items())
    return "\n".join([head, *(",".join(map(str, row)) for row in rows)]) + "\n"


def rows_from_text(text: str, what: str, keys: Sequence[str], read_header: Callable) -> tuple[tuple, list]:
    """``read_header`` of the values of the header's ``keys``, and the rows
    of ``rows_to_text``, with a blank line for the empty row."""
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"empty {what} serialization")
    fields = lines[0].split()
    try:
        header = read_header(*(fields[i].removeprefix(f"{key}=") for i, key in enumerate(keys)))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad {what} header: {lines[0]!r}") from exc
    return header, [tuple(int(x) for x in line.split(",")) if line.strip() else () for line in lines[1:]]


def family_to_text(fam: Family) -> str:
    return rows_to_text({"n": fam.n, "k": "*" if fam.k is None else fam.k}, map(elements_of, fam.masks))


def family_from_text(text: str) -> Family:
    (n, k), rows = rows_from_text(text, "family", ("n", "k"),
                                  lambda n, k: (int(n), None if k == "*" else int(k)))
    return Family(n, tuple(sorted({mask_of(row, n) for row in rows})), k)
