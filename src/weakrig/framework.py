"""Frameworks (graph + coordinates) and the rigidity machinery on them.

Constraints are triples (i, j, k) with apex i and legs j <= k. A triple with
j == k encodes the squared length of edge {i, j}; j < k encodes the inner
product of the displacements from i to j and from i to k. Edge vectors follow
e_ij = p_i - p_j throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    DomainError,
    InputError,
    UnsupportedRegimeError,
)
from .graphs import Graph, is_connected
from .linalg import numerical_rank


@dataclass(frozen=True, eq=False)
class Configuration:
    """Points p_1..p_n as an immutable (n, d) float array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise InputError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def stacked(self) -> np.ndarray:
        """Coordinates as one vector (p_1^T, ..., p_n^T)^T of length n*d."""
        return self.points.reshape(-1).copy()

    @classmethod
    def from_stacked(cls, vec, d: int) -> "Configuration":
        vec = np.asarray(vec, dtype=float)
        if d < 1 or vec.ndim != 1 or vec.size % d != 0:
            raise InputError("stacked vector length must be a multiple of d")
        return cls(vec.reshape(-1, d))


@dataclass(frozen=True, eq=False)
class Framework:
    graph: Graph
    config: Configuration

    def __post_init__(self):
        if self.graph.n != self.config.n:
            raise InputError(
                f"graph has {self.graph.n} vertices but configuration has {self.config.n}"
            )

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.config.d

    @property
    def points(self) -> np.ndarray:
        return self.config.points


def distance_triple(i: int, j: int) -> tuple[int, int, int]:
    """Canonical distance constraint of edge {i, j}: apex is the larger label."""
    return (max(i, j), min(i, j), min(i, j))


@dataclass(frozen=True)
class TripleSet:
    """Ordered constraint triples; order fixes the component order of the
    constraint function and the rows of the weak rigidity matrix."""

    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        canon = []
        seen = set()
        for t in self.triples:
            trip = tuple(int(v) for v in t)
            if len(trip) != 3:
                raise InputError(f"triple {t!r} is not an (i, j, k) triple")
            i, j, k = trip
            if j > k:
                raise InputError(f"triple ({i},{j},{k}) must have legs ordered j <= k")
            if i == j or i == k:
                raise InputError(f"triple ({i},{j},{k}) apex equals a leg")
            key = ("d", min(i, j), max(i, j)) if j == k else ("a", i, j, k)
            if key in seen:
                raise InputError(f"duplicate constraint ({i},{j},{k})")
            seen.add(key)
            canon.append(trip)
        object.__setattr__(self, "triples", tuple(canon))
        if canon:
            arr = np.array(canon, dtype=int) - 1
            idx = (arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())
        else:
            z = np.zeros(0, dtype=int)
            idx = (z, z.copy(), z.copy())
        object.__setattr__(self, "_idx", idx)

    @property
    def s(self) -> int:
        return len(self.triples)

    def require_valid_for(self, graph: Graph) -> None:
        for i, j, k in self.triples:
            if not graph.has_edge(i, j) or not graph.has_edge(i, k):
                raise InputError(f"triple ({i},{j},{k}) references a non-edge")


def required_rank(n: int, d: int) -> int:
    """Rank certifying that all first-order motions are rigid-body motions."""
    return n * d - d * (d + 1) // 2


class _ConstraintOperator:
    """The row scatter behind every constraint Jacobian, compiled once.

    The row of triple (i, j, k) reads e1 = p_i - p_j and e2 = p_i - p_k. Each
    slot adds sign * e1 or sign * e2 to one column block of one row. Slots are
    grouped by kind in the order apex·e1, apex·e2, leg j·(-e2), leg k·(-e1).
    ``np.bincount`` adds in input order, so this order fixes the rounding of
    every sum.

    A slot with sign -1 reads its edge with head and tail swapped, which is
    exact, so one gather of ``_idx`` and one subtraction give every signed
    slot vector. On vertex columns the first 2s slots are the e1 and e2 table.
    """

    def __init__(self, t: TripleSet, d: int, ncols: int, row, col, head, tail, neg):
        self.s, self.d, self.ncols = t.s, d, ncols
        self._row, self._col = row, col
        # slot vectors are pts[_idx[:K]] - pts[_idx[K:]]
        self._idx = np.concatenate([np.where(neg, tail, head), np.where(neg, head, tail)])

    @classmethod
    def on_vertices(cls, t: TripleSet, n: int, d: int, barred: bool = False):
        """R_w over vertex columns; Rbar when ``barred`` (leg slots on distance rows only)."""
        ap, l1, l2 = t._idx
        s = t.s
        rows = np.arange(s)
        legs = rows[l1 == l2] if barred else rows
        return cls(t, d, n,
                   row=np.concatenate([rows, rows, legs, legs]),
                   col=np.concatenate([ap, ap, l1[legs], l2[legs]]),
                   head=np.concatenate([ap, ap, ap[legs], ap[legs]]),
                   tail=np.concatenate([l1, l2, l2[legs], l1[legs]]),
                   neg=np.arange(2 * s + 2 * legs.size) >= 2 * s)

    @classmethod
    def on_tree_edges(cls, t: TripleSet, tree: Graph, d: int):
        """Leg slots only, on the column of the tree edge from the apex to the
        leg, signed by that edge's incidence orientation."""
        ap, l1, l2 = t._idx
        rows = np.arange(t.s)
        ends = np.array(tree.edges, dtype=int).reshape(-1, 2) - 1
        apex = np.concatenate([ap, ap])
        legs = np.concatenate([l1, l2])
        col = np.searchsorted(ends[:, 0] * tree.n + ends[:, 1],
                              np.minimum(apex, legs) * tree.n + np.maximum(apex, legs))
        return cls(t, d, tree.m,
                   row=np.concatenate([rows, rows]),
                   col=col,
                   head=apex,
                   tail=np.concatenate([l2, l1]),
                   neg=apex < legs)

    def slots(self, pts: np.ndarray) -> np.ndarray:
        """(K, d) signed slot vectors at the (n, d) points."""
        g = pts.take(self._idx, axis=0)
        return g[:self._row.size] - g[self._row.size:]

    def dense(self, pts: np.ndarray) -> np.ndarray:
        """The (s, ncols*d) matrix at the (n, d) points."""
        width = self.ncols * self.d
        cells = ((self._row * self.ncols + self._col) * self.d)[:, None] + np.arange(self.d)
        return np.bincount(cells.ravel(), self.slots(pts).ravel(),
                           minlength=self.s * width).reshape(self.s, width)


def _distance_triples(g: Graph) -> TripleSet:
    """One distance triple per edge, in canonical edge order."""
    return TripleSet(tuple(distance_triple(i, j) for i, j in g.edges))


def _triple_values(p: np.ndarray, t: TripleSet) -> np.ndarray:
    ap, l1, l2 = t._idx
    return np.einsum("ij,ij->i", p[ap] - p[l1], p[ap] - p[l2])


def rigidity_function(f: Framework) -> np.ndarray:
    """Squared edge lengths in canonical edge order."""
    return _triple_values(f.points, _distance_triples(f.graph))


def rigidity_matrix(f: Framework) -> np.ndarray:
    """(m, n*d) Jacobian of the squared edge lengths with respect to p."""
    t = _distance_triples(f.graph)
    return _ConstraintOperator.on_vertices(t, f.n, f.d).dense(f.points)


def weak_rigidity_function(f: Framework, t: TripleSet) -> np.ndarray:
    """Components e_ij^T e_ik in triple order; equals squared length when j == k."""
    t.require_valid_for(f.graph)
    return _triple_values(f.points, t)


def weak_rigidity_matrix(f: Framework, t: TripleSet) -> np.ndarray:
    """(s, n*d) Jacobian of the triple constraints with respect to p.

    Row of (i, j, k): (e_ij + e_ik)^T in apex block, -e_ik^T at j, -e_ij^T at
    k; for j == k the leg contributions accumulate to -2 e_ij^T.
    """
    t.require_valid_for(f.graph)
    return _ConstraintOperator.on_vertices(t, f.n, f.d).dense(f.points)


def require_spanning_tree(tree: Graph, graph: Graph) -> None:
    if tree.n != graph.n:
        raise DomainError("tree and graph must share the vertex set")
    if tree.m != graph.n - 1 or not is_connected(tree):
        raise DomainError("not a spanning tree: need n-1 edges forming one component")
    for e in tree.edges:
        if e not in graph._edge_set:
            raise DomainError(f"tree edge {e} is not an edge of the graph")


def restrict_triples_to_tree(tree: Graph, t: TripleSet) -> TripleSet:
    """Keep triples whose two defining edges both lie in the tree."""
    kept = [trip for trip in t.triples
            if tree.has_edge(trip[0], trip[1]) and tree.has_edge(trip[0], trip[2])]
    return TripleSet(tuple(kept))


def edge_weak_rigidity_matrix(f: Framework, tree: Graph, t: TripleSet) -> np.ndarray:
    """Jacobian of the tree-restricted constraints with respect to the stacked
    tree-edge vectors (the chain-rule factor through the tree incidence).

    Tree-edge vectors follow the incidence orientation, so the column vector of
    edge (a, b) with a < b is p_b - p_a and the identity
    ``edge_matrix @ kron(H_tree, I_d) == weak_rigidity_matrix`` holds row-wise
    on the restricted triple set.
    """
    t.require_valid_for(f.graph)
    require_spanning_tree(tree, f.graph)
    kept = restrict_triples_to_tree(tree, t)
    return _ConstraintOperator.on_tree_edges(kept, tree, f.d).dense(f.points)


def trivial_motion_basis(c: Configuration) -> np.ndarray:
    """Orthonormal (n*d, d(d+1)/2) basis of rigid-body velocity fields.

    d translation columns plus d(d-1)/2 infinitesimal rotations; for d = 2 the
    rotation generator sends p_i to (-y_i, x_i).
    """
    n, d = c.n, c.d
    p = c.points
    cols = []
    for a in range(d):
        col = np.zeros((n, d))
        col[:, a] = 1.0
        cols.append(col.reshape(-1))
    for a in range(d):
        for b in range(a + 1, d):
            gen = np.zeros((d, d))
            gen[a, b] = -1.0
            gen[b, a] = 1.0
            cols.append((p @ gen.T).reshape(-1))
    basis = np.column_stack(cols)
    if numerical_rank(basis) < basis.shape[1]:
        raise DegenerateConfigurationError(
            "rigid-motion columns are linearly dependent for this configuration"
        )
    q, _ = np.linalg.qr(basis)
    return q


def _require_enough_points(n: int, d: int) -> None:
    if n <= d:
        raise UnsupportedRegimeError(f"need n >= d+1 points (got n={n}, d={d})")


def is_infinitesimally_rigid(f: Framework) -> bool:
    _require_enough_points(f.n, f.d)
    return numerical_rank(rigidity_matrix(f)) == required_rank(f.n, f.d)


def is_infinitesimally_weakly_rigid(f: Framework, t: TripleSet) -> bool:
    _require_enough_points(f.n, f.d)
    return numerical_rank(weak_rigidity_matrix(f, t)) == required_rank(f.n, f.d)


def check_iwr_via_spanning_tree(f: Framework, tree: Graph, t: TripleSet) -> bool:
    """Sufficient test via the tree-edge Jacobian; False is inconclusive for d >= 3."""
    r = edge_weak_rigidity_matrix(f, tree, t)
    return numerical_rank(r) == required_rank(f.n, f.d)


def points_span_full_dimension(c: Configuration) -> bool:
    """True iff the points do not lie in a hyperplane of R^d."""
    _require_enough_points(c.n, c.d)
    m = np.hstack([np.ones((c.n, 1)), c.points])
    return numerical_rank(m) == c.d + 1
