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


class TripleSet:
    """Ordered constraint triples; order fixes the component order of the
    constraint function and the rows of the weak rigidity matrix.

    Built from a sequence of (i, j, k) triples or an (s, 3) integer array and
    immutable. A set is invalid if a triple has legs out of order (j > k), an
    apex equal to a leg, or repeats an earlier constraint (a distance triple
    stands for its unordered edge); the error names the first such triple.
    """

    def __init__(self, triples):
        err = None
        if (isinstance(triples, np.ndarray) and triples.dtype.kind in "iu"
                and triples.ndim == 2 and triples.shape[1] == 3):
            arr = triples.astype(np.int64)
        else:
            rows, err = _int_rows(triples, 3, "triple {!r} is not an (i, j, k) triple")
            arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
            self.__dict__["triples"] = tuple(rows)
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
    ``np.bincount`` adds in input order, so this order fixes the rounding of
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
        return _scatter_add(cells, self.slots(pts), self.s * width).reshape(self.s, width)

    def reduced(self, pts: np.ndarray) -> np.ndarray:
        """A short matrix with the singular values of ``dense(pts)``.

        The rows of one apex touch only its local columns, the distinct
        columns of its slots, and form its block. A block taller than wide is
        replaced by its R factor: orthogonal row transforms keep the singular
        values. Such blocks are stacked by width, zero-padded to the tallest
        (zero rows add no singular value), and each stack takes one QR; the R
        rows are then scattered back to the global columns. Other blocks pass
        through unchanged. Every slot lands in the order ``dense`` adds it, so
        every cell is the same sum; with no tall block, the result is
        ``dense(pts)`` bit for bit.
        """
        width = self.ncols * self.d
        lay, k = _ApexBlocks(self), self._row.size

        def scatter(slots, size):
            sel = lay.order[slots]
            vals = pts.take(self._idx[sel], axis=0) - pts.take(self._idx[k + sel], axis=0)
            return _scatter_add(lay.cells[slots], vals, size)

        out = scatter(lay.direct, lay.rows * width).reshape(lay.rows, width)
        for slots, shape, cols, start in lay.stacks:
            v, h, w = shape
            r = np.linalg.qr(scatter(slots, v * h * w).reshape(shape), mode="r")
            dest = out[start:start + v * w].reshape(v, w, width)
            np.put_along_axis(dest, np.broadcast_to(cols, r.shape), r, axis=2)
        return out

    def rank(self, pts: np.ndarray) -> int:
        """``numerical_rank(dense(pts))``: the singular values of ``reduced``
        against the tolerance of the (s, ncols*d) shape."""
        sv = np.linalg.svd(self.reduced(pts), compute_uv=False)
        return int(_rank_of(sv, (self.s, self.ncols * self.d)))


class _ApexBlocks:
    """Where each slot of an operator lands in ``reduced``.

    A block is the rows of one apex over its local columns. A block with more
    rows than columns is tall and goes to the stack of its width; the rows of
    the other blocks pass through to the top of the reduced matrix, in row
    order. Slots are taken in ``order``: those passing through (``direct``)
    first, then stack by stack, each group in slot order. Sorted slot k adds
    to flat cell ``cells[k] + coordinate`` of the reduced matrix or of its
    stack. Each entry of ``stacks`` holds its slice of the sorted slots, the
    stack shape (blocks, rows, width*d), the global column of each block
    column, and the first reduced row of its R factors.
    """

    def __init__(self, op: _ConstraintOperator):
        d = op.d
        slot_key = op._apex[op._row] * op.ncols + op._col  # then its index among keys
        run = np.diff(slot_key, prepend=-1) != 0  # slots repeat keys in runs: one per run
        keys, slot_key = np.unique(slot_key[run], return_inverse=True)
        slot_key = slot_key[np.cumsum(run) - 1]
        key_apex, global_col = np.divmod(keys, op.ncols)
        first = np.flatnonzero(np.diff(key_apex, prepend=-1))  # first key of each block
        width = np.diff(np.r_[first, keys.size])
        key_block = np.repeat(np.arange(first.size), width)
        local_col = np.arange(keys.size) - first[key_block]
        slot_block = key_block[slot_key]
        row_block = np.searchsorted(key_apex[first], op._apex)
        height = np.bincount(row_block, minlength=first.size)
        tall = height > width * d
        # stack key 0 gathers the blocks passing through, so they sort first
        widths, block_stack = np.unique(np.where(tall, width, 0), return_inverse=True)
        tallest = np.zeros(widths.size, dtype=np.int64)
        np.maximum.at(tallest, block_stack, height)
        row_pos = _rank_in_group(np.where(tall[row_block], row_block, first.size))

        slot_stack = block_stack[slot_block]
        slot_row = row_pos[op._row]
        in_stack = ((_rank_in_group(block_stack)[slot_block] * tallest[slot_stack] + slot_row)
                    * widths[slot_stack] + local_col[slot_key])
        in_reduced = slot_row * op.ncols + op._col
        self.order = np.argsort(slot_stack, kind="stable")
        self.cells = np.where(tall[slot_block], in_stack, in_reduced)[self.order] * d

        bounds = np.r_[0, np.cumsum(np.bincount(slot_stack, minlength=widths.size))].tolist()
        passing = int(widths.size > 0 and widths[0] == 0)
        self.direct = slice(0, bounds[passing])
        self.rows = op.s - int(height[tall].sum())
        self.stacks = []
        for c in range(passing, widths.size):
            w = int(widths[c])
            blocks = np.flatnonzero(block_stack == c)
            cols = global_col[first[blocks, None] + np.arange(w)][:, :, None] * d + np.arange(d)
            self.stacks.append((slice(bounds[c], bounds[c + 1]),
                                (blocks.size, int(tallest[c]), w * d),
                                cols.reshape(blocks.size, 1, w * d), self.rows))
            self.rows += blocks.size * w * d


def _scatter_add(cells: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """A float vector of ``size`` with each (K, d) ``vals`` row added, in row
    order, at flat cells ``cells[k] + coordinate``."""
    if not cells.size:  # np.bincount would ignore the weights and give integers
        return np.zeros(size)
    flat = cells[:, None] + np.arange(vals.shape[1])
    return np.bincount(flat.ravel(), vals.ravel(), minlength=size)


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


def _triple_values(p: np.ndarray, t: TripleSet) -> np.ndarray:
    ap, l1, l2 = t._idx
    return np.einsum("ij,ij->i", p[ap] - p[l1], p[ap] - p[l2])


def rigidity_function(f: Framework) -> np.ndarray:
    """Squared edge lengths in canonical edge order."""
    return _triple_values(f.points, _distance_triples(f.graph))


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
    return _triple_values(f.points, t)


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


def is_infinitesimally_rigid(f: Framework) -> bool:
    _require_enough_points(f.n, f.d)
    return _rigidity_operator(f).rank(f.points) == required_rank(f.n, f.d)


def is_infinitesimally_weakly_rigid(f: Framework, t: TripleSet) -> bool:
    _require_enough_points(f.n, f.d)
    return _weak_rigidity_operator(f, t).rank(f.points) == required_rank(f.n, f.d)


def check_iwr_via_spanning_tree(f: Framework, tree: Graph, t: TripleSet) -> bool:
    """Sufficient test via the tree-edge Jacobian; False is inconclusive for d >= 3."""
    _require_enough_points(f.n, f.d)
    op = _edge_weak_rigidity_operator(f, tree, t)
    return op.rank(f.points) == required_rank(f.n, f.d)


def points_span_full_dimension(c: Configuration) -> bool:
    """True iff the points do not lie in a hyperplane of R^d."""
    _require_enough_points(c.n, c.d)
    m = np.hstack([np.ones((c.n, 1)), c.points])
    return numerical_rank(m) == c.d + 1
