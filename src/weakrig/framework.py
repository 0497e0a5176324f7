"""Frameworks (graph + coordinates) and the rigidity machinery on them.

Constraints are triples (i, j, k) with apex i and legs j <= k. A triple with
j == k encodes the squared length of edge {i, j}; j < k encodes the inner
product of the displacements from i to j and from i to k. Edge vectors follow
e_ij = p_i - p_j throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    DomainError,
    InputError,
    UnsupportedRegimeError,
)
from .graphs import Graph, _int_rows, _raise_first_failing, is_connected
from .linalg import _rank_of, numerical_rank


@dataclass(frozen=True, eq=False)
class Configuration:
    """Points p_1..p_n as an immutable (n, d) float array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points)
        if pts.dtype.kind == "c":
            raise InputError("points must be real")
        pts = pts.astype(float, copy=False)
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


class TripleSet:
    """Ordered constraint triples; order fixes the component order of the
    constraint function and the rows of the weak rigidity matrix.

    Built from a sequence of (i, j, k) triples of integer labels or an (s, 3)
    integer array, and immutable. A set is invalid if a triple has legs out of order (j > k), an
    apex equal to a leg, or repeats an earlier constraint (a distance triple
    stands for its unordered edge); the error names the first such triple.
    """

    def __init__(self, triples):
        arr, err = _int_rows(triples, 3, "triple", "an (i, j, k) triple")
        if arr.dtype != np.int64:  # a uint64 or Python int label can leave the int64 range
            big = np.flatnonzero(((arr < -2**63) | (arr >= 2**63)).any(axis=1))
            if big.size:  # that ends the set like a malformed triple
                err = InputError("triple ({},{},{}) has a label outside the int64 range"
                                 .format(*arr[big[0]]))
                arr = arr[:big[0]]
        arr = arr.astype(np.int64, copy=False)
        _require_valid_triples(arr)
        if err is not None:
            raise err
        arr.setflags(write=False)
        self.__dict__["_arr"] = arr
        self.__dict__["_idx"] = tuple(arr[:, c] - 1 for c in range(3))

    def __setattr__(self, name, value):
        raise AttributeError("TripleSet is immutable")

    @functools.cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(map(tuple, self._arr.tolist()))

    def __eq__(self, other):
        if not isinstance(other, TripleSet):
            return NotImplemented
        return np.array_equal(self._arr, other._arr)

    def __hash__(self):
        return hash(self._arr.tobytes())

    def __repr__(self):
        return f"TripleSet(triples={self.triples!r})"

    @property
    def s(self) -> int:
        return self._arr.shape[0]

    def require_valid_for(self, graph: Graph) -> None:
        ap, l1, l2 = self._idx
        bad = (graph._edge_ids(ap, l1) < 0) | (graph._edge_ids(ap, l2) < 0)
        if bad.any():
            i, j, k = self._arr[bad.argmax()]
            raise InputError(f"triple ({i},{j},{k}) references a non-edge")


def _require_valid_triples(arr: np.ndarray) -> None:
    """Raise for the first triple of the (s, 3) array, in row order, that has
    legs out of order, an apex equal to a leg, or an earlier duplicate."""
    i, j, k = arr.T
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # a distance triple stands for its edge, so compare it in the canonical form
    key = (np.where(j == k, hi, i), np.where(j == k, lo, j), np.where(j == k, lo, k))
    # one int64 per key: base ``span`` digits, or its number if labels spread too far
    low = int(arr.min(initial=0))
    span = int(arr.max(initial=0)) - low + 1
    packed = (((key[0] - low) * span + key[1] - low) * span + key[2] - low
              if span ** 3 <= np.iinfo(np.int64).max
              else np.unique(np.stack(key, axis=1), axis=0, return_inverse=True)[1].ravel())
    order = np.argsort(packed, kind="stable")  # the first of equal keys comes first
    dup = np.zeros(arr.shape[0], dtype=bool)
    dup[order[1:]] = np.diff(packed[order]) == 0
    _raise_first_failing(arr, ((j > k, "triple ({},{},{}) must have legs ordered j <= k"),
                               ((i == j) | (i == k), "triple ({},{},{}) apex equals a leg"),
                               (dup, "duplicate constraint ({},{},{})")))


def required_rank(n: int, d: int) -> int:
    """Rank certifying that all first-order motions are rigid-body motions."""
    return n * d - d * (d + 1) // 2


class _ConstraintOperator:
    """The row scatter behind every constraint Jacobian, compiled once.

    The row of triple (i, j, k) reads e1 = p_i - p_j and e2 = p_i - p_k. Each
    slot adds sign * e1 or sign * e2 to one column block of one row. Slots are
    grouped by kind in the order apex·e1, apex·e2, leg j·(-e2), leg k·(-e1).
    ``np.add.at`` adds in input order, so this order fixes the rounding of
    every sum.

    A slot with sign -1 reads its edge with head and tail swapped, which is
    exact, so one gather of ``_idx`` and one subtraction give every signed
    slot vector. On vertex columns the first 2s slots are the e1 and e2 table.

    Every row is zero outside the columns its apex's slots touch, so rank
    tests reduce each apex's rows to an R factor (``reduced``) and never form
    the dense matrix.
    """

    def __init__(self, t: TripleSet, d: int, ncols: int, row, col, head, tail):
        self.s, self.d, self.ncols = t.s, d, ncols
        self._row, self._col = row, col
        self._apex = t._idx[0]  # of each row
        # slot vectors are pts[_idx[:K]] - pts[_idx[K:]]
        self._idx = np.concatenate([head, tail])

    @classmethod
    def on_vertices(cls, t: TripleSet, n: int, d: int, barred: bool = False):
        """R_w over vertex columns; Rbar when ``barred`` (leg slots on distance rows only)."""
        ap, l1, l2 = t._idx
        rows = np.arange(t.s)
        legs = rows[l1 == l2] if barred else rows
        return cls(t, d, n,
                   row=np.concatenate([rows, rows, legs, legs]),
                   col=np.concatenate([ap, ap, l1[legs], l2[legs]]),
                   head=np.concatenate([ap, ap, l2[legs], l1[legs]]),
                   tail=np.concatenate([l1, l2, ap[legs], ap[legs]]))

    @classmethod
    def on_tree_edges(cls, t: TripleSet, tree: Graph, d: int):
        """Leg slots only, on the column of the tree edge from the apex to the
        leg, signed by that edge's incidence orientation."""
        ap, l1, l2 = t._idx
        rows = np.arange(t.s)
        apex = np.concatenate([ap, ap])
        legs = np.concatenate([l1, l2])
        other = np.concatenate([l2, l1])
        neg = apex < legs
        return cls(t, d, tree.m,
                   row=np.concatenate([rows, rows]),
                   col=tree._edge_ids(apex, legs),
                   head=np.where(neg, other, apex),
                   tail=np.where(neg, apex, other))

    def slots(self, pts: np.ndarray) -> np.ndarray:
        """(K, d) signed slot vectors at the (n, d) points."""
        g = pts.take(self._idx, axis=0)
        return g[:self._row.size] - g[self._row.size:]

    def dense(self, pts: np.ndarray) -> np.ndarray:
        """The (s, ncols*d) matrix at the (n, d) points."""
        width = self.ncols * self.d
        cells = (self._row * self.ncols + self._col) * self.d
        return _scatter_add(cells, self.slots(pts), np.zeros(self.s * width)).reshape(self.s, width)

    def reduced(self, pts: np.ndarray) -> np.ndarray:
        """A short matrix with the singular values of ``dense(pts)``.

        The rows of one apex touch only its local columns, the distinct
        columns of its slots, and form its block. A block taller than wide is
        replaced by its R factor: orthogonal row transforms keep the singular
        values. The rows of the other blocks pass through first, in row
        order; then come the R factors in apex order, one QR per tall block,
        each written onto its block's global columns. Every slot lands in the
        order ``dense`` adds it, so every cell is the same sum; with no tall
        block, the result is ``dense(pts)`` bit for bit.
        """
        d, k, width = self.d, self._row.size, self.ncols * self.d
        key = self._apex[self._row] * self.ncols + self._col
        run = np.diff(key, prepend=-1) != 0  # slots repeat keys in runs: one per run
        keys, key = np.unique(key[run], return_inverse=True)
        key = key[np.cumsum(run) - 1]  # each slot's index among the keys
        key_apex, key_col = np.divmod(keys, self.ncols)
        first = np.flatnonzero(np.diff(key_apex, prepend=-1))  # first key of each block
        cols = np.diff(np.r_[first, keys.size])
        row_block = np.searchsorted(key_apex[first], self._apex)
        height = np.bincount(row_block, minlength=first.size)
        tall = height > cols * d
        # group 0 passes through; tall block b is group b + 1
        group = np.where(tall[row_block], row_block + 1, 0)
        place = _rank_in_group(group)  # in its block, or among the rows passing through
        # a slot adds at its global column when passing through, else at its local one
        base = np.where(tall[row_block], place * cols[row_block] - first[row_block],
                        place * self.ncols)
        slot_group = group[self._row]
        cells = (base[self._row] + np.where(slot_group > 0, key, self._col)) * d
        order = np.argsort(slot_group, kind="stable")
        ends = np.r_[0, np.cumsum(np.bincount(slot_group, minlength=first.size + 1))].tolist()
        head, tail = self._idx[:k], self._idx[k:]

        def scatter(g, flat):  # adds the slots of group g, in slot order
            sel = order[ends[g]:ends[g + 1]]
            vals = pts.take(head[sel], axis=0) - pts.take(tail[sel], axis=0)
            return _scatter_add(cells[sel], vals, flat)

        top = int(np.count_nonzero(group == 0))  # the first row below those passing through
        out = np.zeros((top + int(cols[tall].sum()) * d, width))
        scatter(0, out.reshape(-1))
        at = (key_col[:, None] * d + np.arange(d)).ravel()  # global column of key coordinates
        for b in np.flatnonzero(tall).tolist():
            h, w, c = int(height[b]), int(cols[b]) * d, int(first[b]) * d
            out[top:top + w, at[c:c + w]] = np.linalg.qr(
                scatter(b + 1, np.zeros(h * w)).reshape(h, w), mode="r")
            top += w
        return out

    def rank(self, pts: np.ndarray) -> int:
        """``numerical_rank(dense(pts))``: the singular values of ``reduced``
        against the tolerance of the (s, ncols*d) shape."""
        sv = np.linalg.svd(self.reduced(pts), compute_uv=False)
        return int(_rank_of(sv, (self.s, self.ncols * self.d)))


def _scatter_add(cells: np.ndarray, vals: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``flat``, a float vector, with each (K, d) ``vals`` row added in row
    order at cells ``cells[k] + coordinate``."""
    np.add.at(flat, (cells[:, None] + np.arange(vals.shape[1])).ravel(), vals.ravel())
    return flat


def _rank_in_group(group: np.ndarray) -> np.ndarray:
    """Position of each element among the elements of its group, in index order."""
    order = np.argsort(group, kind="stable")
    size = np.bincount(group)
    pos = np.empty(group.size, dtype=np.int64)
    pos[order] = np.arange(group.size) - np.repeat(np.cumsum(size) - size, size)
    return pos


def _distance_triples(g: Graph) -> TripleSet:
    """One distance triple per edge, in canonical edge order."""
    a, b = g._ends
    return TripleSet(np.stack([b, a, a], axis=1) + 1)


def _rigidity_operator(f: Framework) -> _ConstraintOperator:
    return _ConstraintOperator.on_vertices(_distance_triples(f.graph), f.n, f.d)


def _weak_rigidity_operator(f: Framework, t: TripleSet) -> _ConstraintOperator:
    t.require_valid_for(f.graph)
    return _ConstraintOperator.on_vertices(t, f.n, f.d)


def _edge_weak_rigidity_operator(f: Framework, tree: Graph, t: TripleSet) -> _ConstraintOperator:
    t.require_valid_for(f.graph)
    require_spanning_tree(tree, f.graph)
    return _ConstraintOperator.on_tree_edges(restrict_triples_to_tree(tree, t), tree, f.d)


def rigidity_matrix(f: Framework) -> np.ndarray:
    """(m, n*d) Jacobian of the squared edge lengths with respect to p."""
    return _rigidity_operator(f).dense(f.points)


def weak_rigidity_function(f: Framework, t: TripleSet) -> np.ndarray:
    """Components e_ij^T e_ik in triple order; equals squared length when j == k."""
    t.require_valid_for(f.graph)
    p = f.points
    ap, l1, l2 = t._idx
    return np.vecdot(p[ap] - p[l1], p[ap] - p[l2])


def weak_rigidity_matrix(f: Framework, t: TripleSet) -> np.ndarray:
    """(s, n*d) Jacobian of the triple constraints with respect to p.

    Row of (i, j, k): (e_ij + e_ik)^T in apex block, -e_ik^T at j, -e_ij^T at
    k; for j == k the leg contributions accumulate to -2 e_ij^T.
    """
    return _weak_rigidity_operator(f, t).dense(f.points)


def require_spanning_tree(tree: Graph, graph: Graph) -> None:
    if tree.n != graph.n:
        raise DomainError("tree and graph must share the vertex set")
    if tree.m != graph.n - 1 or not is_connected(tree):
        raise DomainError("not a spanning tree: need n-1 edges forming one component")
    missing = graph._edge_ids(*tree._ends) < 0
    if missing.any():
        raise DomainError(f"tree edge {tree.edges[missing.argmax()]} is not an edge of the graph")


def restrict_triples_to_tree(tree: Graph, t: TripleSet) -> TripleSet:
    """Keep triples whose two defining edges both lie in the tree."""
    ap, l1, l2 = t._idx
    return TripleSet(t._arr[(tree._edge_ids(ap, l1) >= 0) & (tree._edge_ids(ap, l2) >= 0)])


def edge_weak_rigidity_matrix(f: Framework, tree: Graph, t: TripleSet) -> np.ndarray:
    """Jacobian of the tree-restricted constraints with respect to the stacked
    tree-edge vectors (the chain-rule factor through the tree incidence).

    Tree-edge vectors follow the incidence orientation, so the column vector of
    edge (a, b) with a < b is p_b - p_a and the identity
    ``edge_matrix @ kron(H_tree, I_d) == weak_rigidity_matrix`` holds row-wise
    on the restricted triple set.
    """
    return _edge_weak_rigidity_operator(f, tree, t).dense(f.points)


def trivial_motion_basis(c: Configuration) -> np.ndarray:
    """Orthonormal (n*d, d(d+1)/2) basis of rigid-body velocity fields.

    d translation columns plus d(d-1)/2 infinitesimal rotations; for d = 2 the
    rotation generator sends p_i to (-y_i, x_i).
    """
    n, d = c.n, c.d
    a, b = np.triu_indices(d, 1)
    plane = np.arange(a.size)
    # the generator of the (a, b) plane sends p_i to -p_ib at a and p_ia at b
    gens = np.zeros((a.size, d, d))
    gens[plane, a, b] = -1.0
    gens[plane, b, a] = 1.0
    rotations = np.matmul(c.points, gens.transpose(0, 2, 1)).reshape(a.size, n * d).T
    basis = np.hstack([np.tile(np.eye(d), (n, 1)), rotations])
    if numerical_rank(basis) < basis.shape[1]:
        raise DegenerateConfigurationError(
            "rigid-motion columns are linearly dependent for this configuration"
        )
    q, _ = np.linalg.qr(basis)
    return q


def _require_enough_points(n: int, d: int) -> None:
    if n <= d:
        raise UnsupportedRegimeError(f"need n >= d+1 points (got n={n}, d={d})")


def _rank_test(f: Framework, build) -> tuple[int, int]:
    """(rank of ``build()`` at f's points, required rank); checks n > d first."""
    _require_enough_points(f.n, f.d)
    return build().rank(f.points), required_rank(f.n, f.d)


def is_infinitesimally_rigid(f: Framework) -> bool:
    rank, req = _rank_test(f, lambda: _rigidity_operator(f))
    return rank == req


def is_infinitesimally_weakly_rigid(f: Framework, t: TripleSet) -> bool:
    rank, req = _rank_test(f, lambda: _weak_rigidity_operator(f, t))
    return rank == req


def check_iwr_via_spanning_tree(f: Framework, tree: Graph, t: TripleSet) -> bool:
    """Sufficient test via the tree-edge Jacobian; False is inconclusive for d >= 3."""
    rank, req = _rank_test(f, lambda: _edge_weak_rigidity_operator(f, tree, t))
    return rank == req

