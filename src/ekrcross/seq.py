"""Cross t-intersecting families of integer sequences over [m]^n.

Sequences intersect where they agree coordinatewise.  The bridge to set
families is the projection onto the positions holding the symbol 1:
counting preimages turns sequence-family sizes into power-set weights
at p = 1/m, which is how the weighted product bound transfers here.

``verify_seq_theorem`` runs the set searches' engine on the one-hot
masks of ``words_of``'s guarded listing of [m]^n, whose star and
(t+2)-window families are the cylinders H0 and H1, so
``search._construction`` labels them too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from .measure import WeightParams, mu
from .search import SearchBudget, SearchResult, _bits, _search
from .setfam import (_MATERIALIZE_LIMIT, BudgetExceeded, Family, Subset, make_threshold_family,
                     rows_from_text, rows_to_text, sweep_to_fixpoint)


def words_of(n: int, m: int) -> list[tuple[int, ...]]:
    """The words of [m]^n in lexicographic order.  Raises BudgetExceeded
    before listing more than the materialization limit."""
    # m^n >= 2^n passes the limit by n = 21, and m**n is slow at a huge n.
    if m ** min(n, _MATERIALIZE_LIMIT.bit_length()) > _MATERIALIZE_LIMIT:
        raise BudgetExceeded(f"{m}^{n} words exceed the materialization limit")
    return list(itertools.product(range(1, m + 1), repeat=n))


def _check_words(m: int, n: int, words: Iterable[tuple[int, ...]]) -> None:
    if m < 2:
        raise ValueError(f"alphabet size must be >= 2, got {m}")
    if n < 1:
        raise ValueError("sequences must have length >= 1")
    for w in words:
        if len(w) != n:
            raise ValueError("member length differs from family length")
        for a in w:
            if not 1 <= a <= m:
                raise ValueError(f"symbol {a} outside [1, {m}]")


@dataclass(frozen=True)
class Sequence:
    """A word of length n over the alphabet {1, ..., m}."""

    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_words(self.m, len(self.values), (self.values,))

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
        _check_words(self.m, self.n, self.members)
        if any(v <= w for w, v in zip(self.members, self.members[1:])):
            raise ValueError("members must be strictly increasing")

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


def _ones(word: tuple[int, ...]) -> int:
    return sum(1 << i for i, a in enumerate(word) if a == 1)


def sigma(s: Sequence) -> Subset:
    """Positions holding the symbol 1."""
    return Subset(s.n, _ones(s.values))


def sigma_family(fam: SeqFamily) -> Family:
    return Family(fam.n, tuple(sorted({_ones(w) for w in fam.members})), None)


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
    with window t+2i."""
    words = words_of(n, m)
    base = set(make_threshold_family(n, t, i).masks)
    return SeqFamily(m, n, tuple(w for w in words if _ones(w) in base))


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
    return SeqFamily(fam.m, fam.n, _shift_words(fam.members, (j, c)))


def _shift_words(words: tuple[tuple[int, ...], ...], jc: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    j, c = jc
    present = set(words)
    out = []
    for w in words:
        if w[j - 1] == c:
            moved = w[: j - 1] + (1,) + w[j:]
            out.append(w if moved in present else moved)
        else:
            out.append(w)
    result = tuple(sorted(set(out)))
    assert len(result) == len(words), "symbol compression must preserve size"
    return result


def is_seq_shifted(fam: SeqFamily) -> bool:
    return all(shift_S(fam, j, c) == fam for j in range(1, fam.n + 1) for c in range(2, fam.m + 1))


def seq_shift_pair_to_fixpoint(
    a: SeqFamily, b: SeqFamily
) -> tuple[SeqFamily, SeqFamily, list[tuple[int, int]]]:
    """Compress both sequence families simultaneously until shifted.

    The total symbol sum strictly decreases with each applied rewrite,
    so the sweep terminates."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("sequence family shape mismatch")
    moves = list(itertools.product(range(1, a.n + 1), range(2, a.m + 1)))
    na, nb, trace = sweep_to_fixpoint(a.members, b.members, moves, _shift_words)
    return SeqFamily(a.m, a.n, na), SeqFamily(b.m, b.n, nb), trace


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
    words = words_of(n, m)
    if m == 2:
        layer = "skipped: alphabet 2 leaves the layer index undefined"
    else:
        r = (t - 1) // (m - 2)
        layer = {"r": r, "applicable": n >= t + 2 * r}
    # Shifted mode's dominance order is on sets, not words: run full mode.
    return _search([onehot_mask(w, m) for w in words], None, t, replace(budget, restrict_shifted=False),
                   "H", lambda mask: SeqFamily(m, n, tuple(sorted(words[i] for i in _bits(mask)))),
                   notes={"target": (m ** (n - t)) ** 2, "layer_comparison": layer})


# ---------------------------------------------------------------------------
# serialization: header "m=<m> n=<n>", one comma-separated word per line
# ---------------------------------------------------------------------------


def seq_family_to_text(fam: SeqFamily) -> str:
    return rows_to_text({"m": fam.m, "n": fam.n}, fam.members)


def seq_family_from_text(text: str) -> SeqFamily:
    (m, n), rows = rows_from_text(text, "sequence family", ("m", "n"), lambda m, n: (int(m), int(n)))
    return SeqFamily(m, n, tuple(sorted({row for row in rows if row})))
