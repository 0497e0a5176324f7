"""Undirected graphs on vertices 1..n with a fixed incidence orientation.

Edges are stored canonically as (i, j) with i < j, sorted lexicographically.
The incidence matrix orients every edge i -> j (row: -1 at i, +1 at j), so it
is reproducible byte for byte; rigidity ranks do not depend on orientation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InputError("vertex count n must be a positive integer")
        canon = []
        for e in self.edges:
            pair = tuple(int(v) for v in e)
            if len(pair) != 2:
                raise InputError(f"edge {e!r} is not a pair")
            i, j = pair
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise InputError(f"edge ({i},{j}) has an endpoint outside 1..{self.n}")
            canon.append((min(i, j), max(i, j)))
        if len(set(canon)) != len(canon):
            raise InputError("duplicate edges")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        adj = [[] for _ in range(self.n + 1)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        # 0-based ends of the canonical edges, and the key a*n + b of edge (a, b),
        # ascending because the edges are sorted
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T - 1
        keys = ends[0] * self.n + ends[1]
        ends.setflags(write=False)
        keys.setflags(write=False)
        object.__setattr__(self, "_ends", tuple(ends))
        object.__setattr__(self, "_keys", keys)

    @property
    def m(self) -> int:
        return len(self.edges)

    def _edge_ids(self, u, v) -> np.ndarray:
        """Canonical edge index of each pair of 0-based ends, in either order,
        or -1 where the pair is not an edge (ends outside 0..n-1 included)."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * self.n + hi
        if not self.m:
            return np.full(key.shape, -1)
        pos = np.searchsorted(self._keys, key)
        hit = (lo >= 0) & (lo < hi) & (hi < self.n) & (self._keys.take(pos, mode="clip") == key)
        return np.where(hit, pos, -1)


def neighbors(g: Graph, i: int) -> set[int]:
    """Vertices adjacent to i (1-based)."""
    if not 1 <= i <= g.n:
        raise InputError(f"vertex {i} outside 1..{g.n}")
    return set(g._adj[i])


def is_connected(g: Graph) -> bool:
    """True iff one component spans all vertices (a single vertex counts)."""
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in g._adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def incidence(g: Graph) -> np.ndarray:
    """(m, n) incidence matrix; row per canonical edge with -1 at i, +1 at j."""
    h = np.zeros((g.m, g.n))
    for row, (i, j) in enumerate(g.edges):
        h[row, i - 1] = -1.0
        h[row, j - 1] = 1.0
    return h


def spanning_tree(g: Graph) -> Graph:
    """BFS tree from vertex 1, visiting neighbors in ascending order."""
    if not is_connected(g):
        raise DomainError("spanning tree requires a connected graph")
    seen = {1}
    queue = deque([1])
    tree_edges = []
    while queue:
        u = queue.popleft()
        for v in g._adj[u]:
            if v not in seen:
                seen.add(v)
                tree_edges.append((min(u, v), max(u, v)))
                queue.append(v)
    return Graph(g.n, tuple(tree_edges))
