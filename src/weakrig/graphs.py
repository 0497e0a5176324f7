"""Undirected graphs on vertices 1..n with a fixed incidence orientation.

Edges are stored canonically as (i, j) with i < j, sorted lexicographically.
The incidence matrix orients every edge i -> j (row: -1 at i, +1 at j), so it
is reproducible byte for byte; rigidity ranks do not depend on orientation.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError


def _int_rows(items, width: int, noun: str, shape: str):
    """``items`` as an (m, width) integer array, and None. Input that numpy does
    not type as integer rows of that width is read one entry at a time, with
    ``operator.index``, up to its first malformed entry: then the rows before
    it and the InputError naming it are returned. Callers check those rows and
    raise the error only if they pass. The array keeps an integer input's
    dtype, and holds a label beyond int64 as uint64 or object, so callers check
    the range before they cast to int64."""
    try:
        arr = np.array(items)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.dtype.kind in "iu" and arr.ndim == 2 and arr.shape[1] == width:
        return arr, None
    rows, err = [], None
    for t in items:
        try:
            labels = tuple(t)
        except TypeError:  # an entry that is not a sequence
            err = InputError(f"{noun} {t!r} is not {shape}")
            break
        try:
            rows.append(tuple(map(operator.index, labels)))
        except TypeError:
            err = InputError(f"{noun} {labels!r} has a non-integer label")
            break
        if len(rows[-1]) != width:
            err = InputError(f"{noun} {rows.pop()!r} is not {shape}")
            break
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    return arr.reshape(-1, width), err


def _raise_first_failing(arr: np.ndarray, checks) -> None:
    """Raise InputError for the first row of ``arr`` that fails any of the
    (mask, message template) ``checks``, with the first message it fails."""
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if failing.any():
        row = failing.argmax()
        msg = next(text for bad, text in checks if bad[row])
        raise InputError(msg.format(*arr[row]))


def _vertex_count(n) -> int:
    """``n`` as an int, if it is a valid vertex count."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError("vertex count n must be a positive integer")
    if n > 3_037_000_499:  # isqrt(2**63 - 1): edge keys a*n + b stay below n*n
        raise InputError(f"vertex count n must be at most 3037000499, got {n}")
    return int(n)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _vertex_count(self.n)
        ends, err = _int_rows(self.edges, 2, "edge", "a pair")
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        _raise_first_failing(ends, ((lo == hi, "self-loop at vertex {}"),
                                    ((lo < 1) | (hi > n),
                                     f"edge ({{}},{{}}) has an endpoint outside 1..{n}")))
        if err is not None:
            raise err
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        # the key a*n + b of each edge (a, b), 0-based with a < b; ascending
        # keys list the canonical edges in order
        keys = np.sort((lo - 1) * n + hi - 1)
        if (keys[1:] == keys[:-1]).any():
            raise InputError("duplicate edges")
        lo, hi = np.divmod(keys, n)
        for a in (keys, lo, hi):
            a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(zip((lo + 1).tolist(), (hi + 1).tolist())))
        object.__setattr__(self, "_ends", (lo, hi))
        object.__setattr__(self, "_keys", keys)

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency as half-edges src -> nbr, 0-based: (start, src, nbr).
        Vertex v's neighbours, ascending, are nbr[start[v]:start[v + 1]], and
        src is v along that slice."""
        a, b = self._ends
        src = np.concatenate([b, a])
        # a stable sort by src lists each vertex's smaller neighbours (edges
        # (a, v), a ascending) before its larger ones (edges (v, b), b ascending)
        order = np.argsort(src, kind="stable")
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=start[1:])
        return start, src[order], np.concatenate([a, b])[order]

    @functools.cached_property
    def _angle_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(apex, first, second): every pair of half-edges that leave the same
        vertex, as half-edge positions first < second, so the legs are
        ascending; ordered by apex, then first, then second."""
        start, src, _ = self._csr
        pos = np.arange(src.size)
        later = start[src + 1] - pos - 1  # half-edges after each one at its vertex
        first = np.repeat(pos, later)
        offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        return src[first], first, first + 1 + offset

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


def _bfs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from vertex 1, visiting neighbours in ascending order.

    Returns the 0-based vertices in visit order and the 0-based parent of each
    vertex: vertex 1 is its own parent, and an unreached vertex has parent -1.
    """
    start, nbr = g._csr[0].tolist(), g._csr[2].tolist()
    parent = [-1] * g.n
    parent[0] = 0
    order = [0]
    for u in order:  # the visit order doubles as the queue
        for v in nbr[start[u]:start[u + 1]]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return np.array(order), np.array(parent)


def is_connected(g: Graph) -> bool:
    """True iff one component spans all vertices (a single vertex counts)."""
    return _bfs(g)[0].size == g.n


def spanning_tree(g: Graph) -> Graph:
    """BFS tree from vertex 1, visiting neighbors in ascending order."""
    order, parent = _bfs(g)
    if order.size < g.n:
        raise DomainError("spanning tree requires a connected graph")
    child = order[1:]
    return Graph(g.n, np.stack([parent[child], child], axis=1) + 1)
