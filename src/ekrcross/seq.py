"""Cross t-intersecting families of integer sequences over [m]^n.

Sequences intersect where they agree coordinatewise.  The bridge to set
families is the projection onto the positions holding the symbol 1:
counting preimages turns sequence-family sizes into power-set weights
at p = 1/m, which is how the weighted product bound transfers here.

``verify_seq_theorem`` runs the set searches' engine on one-hot masks,
whose star and (t+2)-window families are the cylinders H0 and H1, so
``search._construction`` labels them too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from .measure import WeightParams, mu
from .search import SearchBudget, SearchResult, _bits, _search
from .setfam import BudgetExceeded, Family, Subset, make_threshold_family

ENUM_LIMIT = 10**6


@dataclass(frozen=True)
class Sequence:
    """A word of length n over the alphabet {1, ..., m}."""

    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.m}")
        if not self.values:
            raise ValueError("sequences must have length >= 1")
        for a in self.values:
            if not 1 <= a <= self.m:
                raise ValueError(f"symbol {a} outside [1, {self.m}]")

    @property
    def n(self) -> int:
        return len(self.values)

    def agreement(self, other: "Sequence") -> int:
        if other.m != self.m or other.n != self.n:
            raise ValueError("sequence shape mismatch")
        return sum(a == b for a, b in zip(self.values, other.values))


@dataclass(frozen=True)
class SeqFamily:
    """A duplicate-free family of sequences of a common shape."""

    m: int
    n: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        prev: Optional[tuple[int, ...]] = None
        for w in self.members:
            if len(w) != self.n:
                raise ValueError("member length differs from family length")
            for a in w:
                if not 1 <= a <= self.m:
                    raise ValueError(f"symbol {a} outside [1, {self.m}]")
            if prev is not None and w <= prev:
                raise ValueError("members must be strictly increasing")
            prev = w

    @classmethod
    def of(cls, m: int, n: int, members: Iterable) -> "SeqFamily":
        out = set()
        for w in members:
            if isinstance(w, Sequence):
                out.add(w.values)
            else:
                out.add(tuple(w))
        return cls(m, n, tuple(sorted(out)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w) -> bool:
        v = w.values if isinstance(w, Sequence) else tuple(w)
        return v in set(self.members)


def sigma(s: Sequence) -> Subset:
    """Positions holding the symbol 1."""
    return Subset.of(s.n, (i + 1 for i, a in enumerate(s.values) if a == 1))


def sigma_family(fam: SeqFamily) -> Family:
    masks = set()
    for w in fam.members:
        masks.add(sum(1 << i for i, a in enumerate(w) if a == 1))
    return Family(fam.n, tuple(sorted(masks)), None)


def seq_cross_t_intersecting(a: SeqFamily, b: SeqFamily, t: int) -> bool:
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("sequence family shape mismatch")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    for wa in a.members:
        for wb in b.members:
            if sum(x == y for x, y in zip(wa, wb)) < t:
                return False
    return True


def make_H(n: int, m: int, t: int, i: int) -> SeqFamily:
    """Sequences whose 1-positions form a member of the threshold family
    with window t+2i.  Built by expanding each projection fiber: a set x
    pulls back to (m-1)^(n-|x|) sequences."""
    if m**n > ENUM_LIMIT:
        raise BudgetExceeded(f"{m}^{n} sequences exceed the enumeration budget")
    base = make_threshold_family(n, t, i)
    members = []
    other = tuple(range(2, m + 1))
    for mask in base.masks:
        free = [pos for pos in range(n) if not mask >> pos & 1]
        for fill in itertools.product(other, repeat=len(free)):
            w = [1] * n
            for pos, val in zip(free, fill):
                w[pos] = val
            members.append(tuple(w))
    return SeqFamily(m, n, tuple(sorted(members)))


def expected_H_size(n: int, m: int, t: int, i: int) -> Fraction:
    """m^n times the weight of the threshold family at p = 1/m."""
    base = make_threshold_family(n, t, i)
    return m**n * mu(base, WeightParams(n, Fraction(1, m)))


def shift_S(fam: SeqFamily, j: int, c: int) -> SeqFamily:
    """Symbol compression: rewrite coordinate j from c to 1 wherever the
    rewritten sequence is not already present."""
    if not 1 <= j <= fam.n:
        raise ValueError(f"coordinate {j} outside [1, {fam.n}]")
    if not 1 <= c <= fam.m:
        raise ValueError(f"symbol {c} outside [1, {fam.m}]")
    present = set(fam.members)
    out = []
    for w in fam.members:
        if w[j - 1] == c:
            moved = w[: j - 1] + (1,) + w[j:]
            out.append(w if moved in present else moved)
        else:
            out.append(w)
    result = tuple(sorted(set(out)))
    assert len(result) == len(fam.members), "symbol compression must preserve size"
    return SeqFamily(fam.m, fam.n, result)


def is_seq_shifted(fam: SeqFamily) -> bool:
    for j in range(1, fam.n + 1):
        for c in range(2, fam.m + 1):
            if shift_S(fam, j, c).members != fam.members:
                return False
    return True


def seq_shift_pair_to_fixpoint(
    a: SeqFamily, b: SeqFamily
) -> tuple[SeqFamily, SeqFamily, list[tuple[int, int]]]:
    """Compress both sequence families simultaneously until shifted.

    The total symbol sum strictly decreases with each applied rewrite,
    so the sweep terminates."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("sequence family shape mismatch")
    trace = []
    changed = True
    while changed:
        changed = False
        for j in range(1, a.n + 1):
            for c in range(2, a.m + 1):
                na, nb = shift_S(a, j, c), shift_S(b, j, c)
                if na.members != a.members or nb.members != b.members:
                    a, b = na, nb
                    trace.append((j, c))
                    changed = True
    return a, b, trace


def onehot_mask(word: tuple[int, ...], m: int) -> int:
    """Bit j*m + a - 1 marks symbol a at position j, so two words agree in
    as many positions as their masks share bits."""
    return sum(1 << (j * m + a - 1) for j, a in enumerate(word))


def verify_seq_theorem(
    n: int, m: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchResult:
    """Exact maximum of |A| |B| over cross t-intersecting sequence
    families, with witnesses classified against the two reference
    cylinder constructions and compared to (m^(n-t))^2."""
    if budget is None:
        budget = SearchBudget()
    if t < 1 or n < t or m < 2:
        raise ValueError(f"need n >= t >= 1 and m >= 2, got n={n}, m={m}, t={t}")
    total = m**n
    if total > 20:
        raise BudgetExceeded(f"{m}^{n} = {total} sequences exceed the search budget")
    words = list(itertools.product(range(1, m + 1), repeat=n))
    if m == 2:
        layer = "skipped: alphabet 2 leaves the layer index undefined"
    else:
        r = (t - 1) // (m - 2)
        layer = {"r": r, "applicable": n >= t + 2 * r}
    # Shifted mode's dominance order is on sets, not words: run full mode.
    return _search([onehot_mask(w, m) for w in words], None, n, t,
                   replace(budget, restrict_shifted=False), False, "H",
                   lambda mask: SeqFamily(m, n, tuple(sorted(words[i] for i in _bits(mask)))),
                   notes={"target": (m ** (n - t)) ** 2, "layer_comparison": layer})


# ---------------------------------------------------------------------------
# serialization: header "m=<m> n=<n>", one comma-separated word per line
# ---------------------------------------------------------------------------


def seq_family_to_text(fam: SeqFamily) -> str:
    lines = [f"m={fam.m} n={fam.n}"]
    for w in fam.members:
        lines.append(",".join(map(str, w)))
    return "\n".join(lines) + "\n"


def seq_family_from_text(text: str) -> SeqFamily:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty sequence family serialization")
    header = lines[0].split()
    try:
        m = int(header[0].removeprefix("m="))
        n = int(header[1].removeprefix("n="))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad sequence family header: {lines[0]!r}") from exc
    members = []
    for line in lines[1:]:
        line = line.strip()
        if line:
            members.append(tuple(int(x) for x in line.split(",")))
    return SeqFamily(m, n, tuple(sorted(set(members))))
