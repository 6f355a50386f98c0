"""Lattice-walk view of subsets: line levels, touch classification,
reflection, probe walks, and closed-form walk counts with an
enumeration oracle.

The walk of F takes an up step at positions in F and a right step
otherwise, so after j steps it sits at height ``2|F cap [j]| - j``.
The walk touches the line y = x + u exactly at prefixes of height u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .setfam import (
    Family,
    GroundSetMismatch,
    Subset,
    first_k,
    is_cross_t_intersecting,
    is_shifted,
    mask_of,
)

ENUM_STEP_LIMIT = 24


def prefix_heights(f: Subset) -> list[int]:
    """Heights y - x after 0..n steps; starts at 0, steps by +-1."""
    h = [0] * (f.n + 1)
    cur = 0
    m = f.mask
    for j in range(1, f.n + 1):
        cur += 1 if m >> (j - 1) & 1 else -1
        h[j] = cur
    return h


def lambda_set(f: Subset) -> int:
    """The highest line the walk touches (0 if it never climbs)."""
    return max(prefix_heights(f))


def lambda_family(fam: Family) -> int:
    """Largest u such that every member's walk touches y = x + u."""
    if not fam.masks:
        raise ValueError("λ undefined")
    return min(lambda_set(Subset(fam.n, m)) for m in fam.masks)


class WalkTag(Enum):
    """Position of a walk relative to the line y = x + u."""

    CROSSES = "crosses"        # climbs above the line (touches u+1)
    TOUCH_ONCE = "touch-once"  # touches the line exactly once, never above
    TOUCH_MANY = "touch-many"  # touches at least twice, never above
    BELOW = "below"            # never reaches the line


@dataclass(frozen=True)
class WalkClass:
    tag: WalkTag
    s_index: Optional[int] = None

    def __post_init__(self) -> None:
        touching = self.tag in (WalkTag.TOUCH_ONCE, WalkTag.TOUCH_MANY)
        if touching != (self.s_index is not None):
            raise ValueError("s_index present iff the walk touches without crossing")
        if self.s_index is not None and self.s_index < 0:
            raise ValueError("s_index must be >= 0")


def classify(f: Subset, u: int) -> WalkClass:
    """Classify the walk of f against the line y = x + u (u >= 1).

    For touching walks, s_index is the x-coordinate of the first touch,
    i.e. the least s with |f cap [u+2s]| >= u+s.
    """
    if u < 1:
        raise ValueError(f"line index must be >= 1, got {u}")
    heights = prefix_heights(f)
    if max(heights) >= u + 1:
        return WalkClass(WalkTag.CROSSES)
    touches = [j for j, h in enumerate(heights) if h == u]
    if not touches:
        return WalkClass(WalkTag.BELOW)
    s = (touches[0] - u) // 2
    tag = WalkTag.TOUCH_ONCE if len(touches) == 1 else WalkTag.TOUCH_MANY
    return WalkClass(tag, s)


# ---------------------------------------------------------------------------
# the unique touch indices of a shifted cross-t-intersecting pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureViolation:
    """Witness that the touch indices of a pair fail to be unique/aligned.

    Such a witness should never arise from a shifted cross
    t-intersecting pair with balanced line levels; producing one
    refutes the structural uniqueness statement for the input pair.
    """

    reason: str
    members: tuple[Subset, ...]


def structure_indices(
    a: Family, b: Family, u: int, v: int
) -> Union[tuple[int, int], StructureViolation]:
    """The unique (s, s') with s - s' = (v-u)/2 such that every non-crossing
    line-u walk of a touches at x = s and every non-crossing line-v walk
    of b touches at x = s'.

    Preconditions (checked, all failures reported together): a and b are
    shifted, cross t-intersecting with t = (u+v)/2, u and v are their
    family line levels, and both single-touch classes are nonempty.
    """
    problems = []
    if a.n != b.n:
        raise GroundSetMismatch("ground-set mismatch")
    if (u + v) % 2 != 0:
        problems.append(f"u + v = {u + v} must be even")
    t = (u + v) // 2
    if t < 1:
        problems.append("t = (u+v)/2 must be >= 1")
    if not a.masks or not b.masks:
        problems.append("both families must be nonempty")
    if problems:
        raise ValueError("; ".join(problems))
    if not is_shifted(a):
        problems.append("first family is not shifted")
    if not is_shifted(b):
        problems.append("second family is not shifted")
    if not is_cross_t_intersecting(a, b, t):
        problems.append(f"families are not cross {t}-intersecting")
    if lambda_family(a) != u:
        problems.append(f"first family line level is {lambda_family(a)}, not {u}")
    if lambda_family(b) != v:
        problems.append(f"second family line level is {lambda_family(b)}, not {v}")

    def split(fam: Family, level: int):
        once, many = [], []
        for m in fam.masks:
            cls = classify(Subset(fam.n, m), level)
            if cls.tag is WalkTag.TOUCH_ONCE:
                once.append((Subset(fam.n, m), cls.s_index))
            elif cls.tag is WalkTag.TOUCH_MANY:
                many.append((Subset(fam.n, m), cls.s_index))
        return once, many

    once_a, many_a = split(a, u)
    once_b, many_b = split(b, v)
    if not once_a:
        problems.append("first family has no single-touch walk")
    if not once_b:
        problems.append("second family has no single-touch walk")
    if problems:
        raise ValueError("; ".join(problems))

    s_values = {s for _, s in once_a}
    if len(s_values) > 1:
        ws = sorted(once_a, key=lambda p: p[1])
        return StructureViolation("single-touch walks disagree on s", (ws[0][0], ws[-1][0]))
    sp_values = {s for _, s in once_b}
    if len(sp_values) > 1:
        ws = sorted(once_b, key=lambda p: p[1])
        return StructureViolation("single-touch walks disagree on s'", (ws[0][0], ws[-1][0]))
    s = s_values.pop()
    sp = sp_values.pop()
    if 2 * (s - sp) != v - u:
        return StructureViolation(
            f"s - s' = {s - sp} differs from (v-u)/2 = {(v - u) // 2}",
            (once_a[0][0], once_b[0][0]),
        )
    # Multi-touch walks must include a touch at the same coordinate.
    for sub, _ in many_a:
        if prefix_heights(sub)[u + 2 * s] != u:
            return StructureViolation("multi-touch walk misses the shared s touch", (sub,))
    for sub, _ in many_b:
        if prefix_heights(sub)[v + 2 * sp] != v:
            return StructureViolation("multi-touch walk misses the shared s' touch", (sub,))
    return s, sp


# ---------------------------------------------------------------------------
# walk counts: closed forms with an exhaustive oracle
# ---------------------------------------------------------------------------


def _check_count_range(x0: int, y0: int, c: int) -> None:
    if not 0 < c < y0 < x0 + c:
        raise ValueError(
            f"closed form needs 0 < c < y0 < x0 + c, got x0={x0}, y0={y0}, c={c}"
        )


def count_hit(x0: int, y0: int, c: int) -> int:
    """Walks from the origin to (x0, y0) touching y = x + c."""
    _check_count_range(x0, y0, c)
    return math.comb(x0 + y0, y0 - c)


def count_miss(x0: int, y0: int, c: int) -> int:
    """Walks from the origin to (x0, y0) avoiding y = x + c."""
    _check_count_range(x0, y0, c)
    return math.comb(x0 + y0, x0) - math.comb(x0 + y0, y0 - c)


def enumerate_walks(x0: int, y0: int, predicate: Callable[[Subset], bool]) -> int:
    """Count walks to (x0, y0) satisfying the predicate, by enumeration.

    Each walk is handed to the predicate as the subset of up-step
    positions inside [x0 + y0].
    """
    steps = x0 + y0
    if steps > ENUM_STEP_LIMIT:
        raise ValueError(f"enumeration capped at {ENUM_STEP_LIMIT} steps, got {steps}")
    if y0 < 0 or x0 < 0:
        raise ValueError("endpoint coordinates must be nonnegative")
    bits = [1 << j for j in range(steps)]
    count = 0
    for ups in itertools.combinations(bits, y0):
        if predicate(Subset(steps, sum(ups))):
            count += 1
    return count


# ---------------------------------------------------------------------------
# reflection between the first and second touch
# ---------------------------------------------------------------------------


def reflect_after_first_touch(f: Subset, c: int) -> Subset:
    """Swap up/right steps between the first two touches of y = x + c.

    Defined on walks that touch the line at least twice without ever
    climbing above it; the image climbs above (touches y = x + c + 1)
    and has the same number of up steps, hence the same size and the
    same product weight for every p.
    """
    if c < 1:
        raise ValueError(f"line index must be >= 1, got {c}")
    heights = prefix_heights(f)
    if max(heights) > c:
        raise ValueError("walk climbs above the line; outside the reflection domain")
    touches = [j for j, h in enumerate(heights) if h == c]
    if len(touches) < 2:
        raise ValueError("walk touches the line fewer than twice")
    j1, j2 = touches[0], touches[1]
    segment = ((1 << j2) - 1) ^ ((1 << j1) - 1)   # positions j1+1 .. j2
    return Subset(f.n, f.mask ^ segment)


# ---------------------------------------------------------------------------
# probe walks: the extremal members whose presence drives the case analysis
# ---------------------------------------------------------------------------

PROBE_KINDS = ("low", "high", "diag")


def make_probe_walk(
    kind: str,
    n: int,
    t: int,
    i: int,
    s: Optional[int] = None,
    k: Optional[int] = None,
) -> Subset:
    """Construct the i-th probe walk of the given kind.

    * ``low``:  [t-2] + {t, t+1} + {t+1+i+2l}, a single-touch walk on
      the line t-1 first touching at x = 1;
    * ``high``: [t+1] + {t+1+i+2l}, a single-touch walk on the line t+1
      first touching at x = 0;
    * ``diag``: [t-1] + {t+s, t+2s} + {t+2s+i+2l} for s in {0, 1}, a
      single-touch walk on the line t first touching at x = s.

    With k given, the walk is truncated to its first k elements and the
    index range tightens accordingly.
    """
    if kind not in PROBE_KINDS:
        raise ValueError(f"kind must be one of {PROBE_KINDS}, got {kind!r}")
    if kind == "diag":
        if s not in (0, 1):
            raise ValueError(f"diag probe walks need s in {{0, 1}}, got {s}")
    elif s is not None:
        raise ValueError(f"{kind!r} probe walks take no s parameter")
    if kind == "low" and t < 2:
        raise ValueError("low probe walks need t >= 2")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")

    if kind == "diag":
        i_max = n - t - 2 * s - 1 if k is None else k - t - s
    elif kind == "low":
        i_max = n - t - 2 if k is None else n - 2 * k + t - 1
    else:
        i_max = n - t - 2 if k is None else n - 2 * k + t + 1
    if not 1 <= i <= i_max:
        raise ValueError(f"index {i} outside [1, {i_max}] for kind {kind!r}")

    if kind == "low":
        base = list(range(1, t - 1)) + [t, t + 1]
        tail_start = t + 1 + i
    elif kind == "high":
        base = list(range(1, t + 2))
        tail_start = t + 1 + i
    else:
        base = list(range(1, t)) + sorted({t + s, t + 2 * s})
        tail_start = t + 2 * s + i
    elems = set(base)
    e = tail_start + 2
    while e <= n:
        elems.add(e)
        e += 2
    walk = Subset(n, mask_of(elems, n))
    return first_k(walk, k) if k is not None else walk
