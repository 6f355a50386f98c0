"""Disjointness graphs on uniform layers, direct products, and the
connectivity / bipartiteness checks the compression arguments lean on.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .setfam import BudgetExceeded

KNESER_VERTEX_LIMIT = 5000
PRODUCT_VERTEX_LIMIT = 10**6


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..num_vertices-1."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) outside vertex range")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def kneser_graph(n: int, k: int) -> Graph:
    """k-subsets of [n], adjacent when disjoint."""
    if k < 1 or n < 1:
        raise ValueError("need n, k >= 1")
    size = math.comb(n, k)
    if size > KNESER_VERTEX_LIMIT:
        raise BudgetExceeded(f"{size} vertices exceed the {KNESER_VERTEX_LIMIT} cap")
    verts = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if not verts[i] & verts[j]
    ]
    return Graph(len(verts), tuple(edges))


def kneser_spread_cycle(k: int) -> list[frozenset[int]]:
    """An explicit odd cycle in the disjointness graph of k-sets of
    [2k+1]: consecutive arcs of length k, stepping by k around the
    cycle of 2k+1 points."""
    m = 2 * k + 1
    cycle = []
    for i in range(m):
        start = (i * k) % m
        cycle.append(frozenset((start + j) % m + 1 for j in range(k)))
    return cycle


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(m, tuple((i, (i + 1) % m) for i in range(m)))


def is_connected(g: Graph) -> bool:
    if g.num_vertices == 0:
        return True
    adj = g.adjacency()
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.num_vertices


def is_bipartite(g: Graph) -> bool:
    """2-colorability by BFS; a False verdict means an odd closed walk
    was found in some component."""
    adj = g.adjacency()
    color = [-1] * g.num_vertices
    for root in range(g.num_vertices):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def direct_product(g: Graph, h: Graph) -> Graph:
    """Tensor product: (u,v) ~ (u',v') iff u ~ u' and v ~ v'."""
    size = g.num_vertices * h.num_vertices
    if size > PRODUCT_VERTEX_LIMIT:
        raise BudgetExceeded(f"{size} product vertices exceed the cap")
    edges = []
    for (gu, gv) in g.edges:
        for (hu, hv) in h.edges:
            a = gu * h.num_vertices + hu
            b = gv * h.num_vertices + hv
            edges.append((min(a, b), max(a, b)))
            a = gu * h.num_vertices + hv
            b = gv * h.num_vertices + hu
            edges.append((min(a, b), max(a, b)))
    return Graph(size, tuple(sorted(set(edges))))
