"""Undirected graphs on vertices 1..n with a fixed incidence orientation.

Edges are stored canonically as (i, j) with i < j, sorted lexicographically.
The incidence matrix orients every edge i -> j (row: -1 at i, +1 at j), so it
is reproducible byte for byte; rigidity ranks do not depend on orientation.
"""

from __future__ import annotations

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


def _bfs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from vertex 1, visiting neighbours in ascending order.

    Returns the 0-based vertices in visit order and the 0-based parent of each
    vertex: vertex 1 is its own parent, and an unreached vertex has parent -1.
    """
    parent = [-1] * g.n
    parent[0] = 0
    order = [0]
    for u in order:  # the visit order doubles as the queue
        for v in g._adj[u + 1]:
            if parent[v - 1] < 0:
                parent[v - 1] = u
                order.append(v - 1)
    return np.array(order), np.array(parent)


def is_connected(g: Graph) -> bool:
    """True iff one component spans all vertices (a single vertex counts)."""
    return _bfs(g)[0].size == g.n


def incidence(g: Graph) -> np.ndarray:
    """(m, n) incidence matrix; row per canonical edge with -1 at i, +1 at j."""
    h = np.zeros((g.m, g.n))
    h[np.arange(g.m)[:, None], np.stack(g._ends, axis=1)] = (-1.0, 1.0)
    return h


def spanning_tree(g: Graph) -> Graph:
    """BFS tree from vertex 1, visiting neighbors in ascending order."""
    order, parent = _bfs(g)
    if order.size < g.n:
        raise DomainError("spanning tree requires a connected graph")
    child = order[1:]
    return Graph(g.n, tuple(zip((parent[child] + 1).tolist(), (child + 1).tolist())))
