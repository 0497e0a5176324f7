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

from .errors import DomainError, InputError, UnsupportedRegimeError
from .graphs import Graph, _int_rows, _raise_first_failing, is_connected
from .linalg import _U, RANK_RTOL, _gamma, _minor_axes, _rank_of

_GRAM_ROWS = 1 << 15  # rows of R_w per chunk of G's sums: bounds their temporaries


@dataclass(frozen=True, eq=False)
class Configuration:
    """Points p_1..p_n as an immutable (n, d) float array."""

    points: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points)
        except ValueError:  # ragged: name the first row shaped unlike point 1
            shapes = [np.array(row, dtype=object).shape for row in self.points]
            i = next((i for i, shape in enumerate(shapes) if shape != shapes[0]), None)
            raise InputError(f"point {i + 1} {self.points[i]!r} is not shaped like point 1"
                             if i is not None else "points must be real") from None
        if pts.dtype.kind not in "biuf":  # str, object (None, ints past 64 bits), complex
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
    ``np.bincount`` adds in slot order, so this order fixes the rounding of
    every sum.

    A slot with sign -1 reads its edge with head and tail swapped, which is
    exact, so one gather of ``_idx`` and one subtraction give every signed
    slot vector. On vertex columns the first 2s slots are the e1 and e2 table.

    Every row is zero outside the columns its apex's slots touch, so the
    rank tests prove a yes from R_wᵀR_w (``_certifies``) or sum R_w one apex
    block at a time, each tall block reduced to an R factor (``reduced``),
    and never form the dense matrix.
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

    def dense(self, pts: np.ndarray) -> np.ndarray:
        """The (s, ncols*d) matrix at the (n, d) points."""
        width, g, k = self.ncols * self.d, pts.take(self._idx, axis=0), self._row.size
        cells = (self._row * self.ncols + self._col) * self.d
        return _summed(cells, g[:k] - g[k:], self.s * width).reshape(self.s, width)

    def reduced(self, pts: np.ndarray) -> np.ndarray:
        """A short matrix with the singular values of ``dense(pts)``, for R_w
        over vertex columns: its first 2s slots are the apex slots.

        The rows of one apex touch only the columns of the apex and its legs,
        and form its block. A row of R_w sums to zero over its column blocks,
        so a block's apex columns are minus the sum of its leg columns, and
        the block is summed on its leg columns alone. The blocks follow in
        apex order. A tall block, whose rows outnumber d times its legs,
        becomes the R factor of its QR: orthogonal row transforms keep the
        singular values. Any other block keeps its rows, in row order, each
        bit for bit the row of ``dense``.
        """
        d, a, k = self.d, 2 * self.s, self._row.size
        slot = self._row[a:]  # the row of each leg slot, keyed by (apex, leg column)
        keys, key = np.unique(self._apex[slot] * self.ncols + self._col[a:], return_inverse=True)
        key_apex, key_col = np.divmod(keys, self.ncols)
        first = np.flatnonzero(np.diff(key_apex, prepend=-1))  # first key of each block
        width = np.diff(np.r_[first, keys.size]) * d
        row_block = np.searchsorted(key_apex[first], self._apex)
        height = np.bincount(row_block, minlength=first.size)
        # a row's cells follow those of the rows before it, block by block
        order = np.argsort(self._apex, kind="stable")
        span = width[row_block[order]]
        start = (np.cumsum(span) - span)[np.argsort(order)] - first[row_block] * d
        legs = pts.take(self._idx[a:k], axis=0) - pts.take(self._idx[k + a:], axis=0)
        flat = _summed(start[slot] + key * d, legs, int(span.sum()))
        at = (key_col[:, None] * d + np.arange(d)).ravel()  # global column of key coordinates
        out = np.zeros((int(np.minimum(height, width).sum()), self.ncols * d))
        top = lo = 0
        for apex, c, h, w in zip((key_apex[first] * d).tolist(), (first * d).tolist(),
                                 height.tolist(), width.tolist()):
            block = flat[lo:lo + h * w].reshape(h, w)
            if h > w:
                block = np.linalg.qr(block, mode="r")
            band = out[top:top + len(block)]
            band[:, at[c:c + w]] = block
            # 0 - x, not -x: a row of dense holds no -0
            band[:, apex:apex + d] = 0.0 - block.reshape(len(block), -1, d).sum(axis=1)
            top, lo = top + len(block), lo + h * w
        return out

    def rank(self, pts: np.ndarray) -> int:
        """``numerical_rank(dense(pts))`` for R_w: the singular values of
        ``reduced`` against the tolerance of the (s, ncols*d) shape. A yes
        that ``_certifies`` proves takes no SVD; every other answer does."""
        req = required_rank(self.ncols, self.d)
        if self._certifies(pts, req):
            return req
        sv = np.linalg.svd(self.reduced(pts), compute_uv=False)
        return int(_rank_of(sv, (self.s, self.ncols * self.d)))

    def _certifies(self, pts: np.ndarray, req: int) -> bool:
        """True only if the SVD rule of ``rank`` provably counts ``req``, by
        the checks and cuts of the README's "Numerical conventions" on the
        rows R of ``_rows``, with R_w = A·R: the upper cut σ_{req+1} <=
        ‖A‖₂‖R T‖_F, and a Cholesky of G + F²TTᵀ - τI, G = RᵀR, with τ moved
        across σ_min(A) and shifted as Rump's BIT 46 (2006) proves."""
        s, d, n, nd, t = self.s, self.d, self.ncols, self.ncols * self.d, self.d * (self.d + 1) // 2
        if not 0 < req <= s:
            return False
        blocks, verts, fw2, a_hi, a_lo = self._rows(pts)
        f2 = float(np.square(blocks).sum())
        # translations, and rotations about point 1: a difference of points
        # rounds relative to itself, not to their distance from the origin
        q = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
        q, (i, j) = q - q[0], _minor_axes(d)
        m = np.zeros((n, d, t))
        m[:, range(d), range(d)] = 1.0
        m[:, i, range(d, t)], m[:, j, range(d, t)] = -q[:, j], q[:, i]
        motions, tri = np.linalg.qr(m.reshape(nd, t))
        if f2 == 0 or np.any(abs(tri.diagonal())
                             <= nd * RANK_RTOL * np.linalg.norm(m, axis=(0, 1))):
            return False  # R_w = 0, or the trivial motions lose rank
        # each slack covers the rounding of its matrix, F, T and the SVD, relative to its F
        big, fw, f, sw = max(s, nd), np.sqrt(fw2), np.sqrt(f2), 16 * (s * d + nd) * _U
        ew, slack = sw * fw, 16 * (len(blocks) * d + nd) * _U
        err, rt = slack * f, np.einsum("rcd,rcdt->rt", blocks, motions.reshape(n, d, t)[verts])
        if (a_hi * (np.linalg.norm(rt) + 3 * err) * (1 + slack) + 2 * ew
                >= big * RANK_RTOL * (fw / np.sqrt(min(s, nd)) - ew) * (1 - sw)):
            return False
        g, rows = np.zeros((n, d, n, d)), _GRAM_ROWS
        for lo in range(0, len(blocks), rows):
            b, v = blocks[lo:lo + rows], verts[lo:lo + rows]
            pair = (v[:, :, None] * n + v[:, None, :]).ravel()
            for x, y in np.ndindex(d, d):
                w = (b[:, :, None, x] * b[:, None, :, y]).ravel()
                g[:, x, :, y] += np.bincount(pair, w, n * n).reshape(n, n)
        g = g.reshape(nd, nd)
        g += (f2 * motions) @ motions.T
        # a G entry sums at most 2 products per row through its vertex and
        # one more per chunk; the update and the shifts round in their turn
        terms = 2 * int(np.bincount(verts.ravel()).max()) - (-len(blocks) // rows) + 1
        tau = ((((big * RANK_RTOL * (fw + ew) * (1 + sw) + 2 * ew) / a_lo + err) ** 2)
               + 2 * (_gamma(terms) + (1 + t) * _gamma((t + 2) ** 2)) * f2)
        g.reshape(-1)[::nd + 1] -= tau + _gamma(nd + 1) / (1 - _gamma(nd + 1)) * np.trace(g)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return False
        return True

    def _rows(self, pts: np.ndarray):
        """(vertex blocks, their vertices, ‖R_w‖_F², a_hi >= ‖A‖₂, a_lo <= σ_min(A))
        of the rows R that ``_certifies`` proves on, scaled exactly by one power of
        two to a largest slot entry in [0.5, 1): Ĝ's distance rows if ``_derived``
        finds Ĝ, else R_w's own, A = I, with a distance row's legs merged into -2e."""
        s, n, k, verts = self.s, self.ncols, self._row.size, self._col.reshape(4, self.s)[[0, 2, 3]]
        hat = _derived(*verts, n)
        ends = np.divmod(hat[0], n)[::-1] if hat else (self._idx[:2 * s], self._idx[k:k + 2 * s])
        e = pts.take(ends[0], axis=0) - pts.take(ends[1], axis=0)
        e = np.ldexp(e, -np.frexp(np.abs(e).max())[1])
        if hat:  # 2e at the edge's larger end, -2e at the smaller
            return (np.stack([2 * e, -2 * e], axis=1), np.stack(ends, axis=1),
                    float(hat[1] @ np.square(e).sum(axis=1)), *hat[2:])
        e, dist = e.reshape(2, s, -1), (verts[1] == verts[2])[:, None]
        blocks = np.stack([e[0] + e[1], -e[1] - dist * e[0], ~dist * -e[0]], axis=1)
        return blocks, verts.T, float(np.square(blocks).sum()), 1.0, 1.0


def _derived(ap: np.ndarray, j: np.ndarray, k: np.ndarray, n: int):
    """Ĝ of the rows (apex ``ap``, legs ``j`` <= ``k``, 0-based) if they are closed and
    Ĝ has fewer edges than rows, else None: its edges as sorted keys a·n + b (a < b), w
    with ‖R_w‖_F² = Σ w_e|e|², a_hi >= ‖A‖₂, a_lo <= σ_min(A). Keys index tables while
    n² <= 8s (the faster, measured), else are sorted to their distinct values: O(s) memory."""
    dist, key = j == k, np.minimum(ap, j) * n + np.maximum(ap, j)
    keys = np.concatenate([key[dist], j[~dist] * n + k[~dist], key[~dist],
                           (np.minimum(ap, k) * n + np.maximum(ap, k))[~dist]])
    values, keys = np.unique(keys, return_inverse=True) if n * n > 8 * j.size else (None, keys)
    size = n * n if values is None else values.size
    in_d, cut, uses = (np.bincount(x, minlength=size) for x in np.split(keys, [dist.sum(), j.size]))
    edges, in_d = np.flatnonzero(in_d + cut), in_d > 0
    if edges.size >= j.size or uses[~in_d].any():
        return None
    uses, cut, in_d = uses[edges], cut[edges], in_d[edges]
    return (edges if values is None else values[edges], 8 * in_d + 3 * uses - cut,
            np.sqrt(1.5 * (in_d + (uses + cut) / 2).max()), 0.5 / np.sqrt(max(2, 1 + uses.max())))


def _summed(cells: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """A float vector of ``size`` zeros plus each (K, d) ``vals`` row, added in
    row order at cells ``cells[k] + coordinate``."""
    flat = np.bincount((cells[:, None] + np.arange(vals.shape[1])).ravel(), vals.ravel(), size)
    return flat.astype(float, copy=False)  # int64 when there is no slot


def _distance_triples(g: Graph) -> TripleSet:
    """One distance triple per edge, in canonical edge order."""
    a, b = g._ends
    return TripleSet(np.stack([b, a, a], axis=1) + 1)


def rigidity_matrix(f: Framework) -> np.ndarray:
    """(m, n*d) Jacobian of the squared edge lengths with respect to p."""
    return _ConstraintOperator.on_vertices(_distance_triples(f.graph), f.n, f.d).dense(f.points)


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
    t.require_valid_for(f.graph)
    return _ConstraintOperator.on_vertices(t, f.n, f.d).dense(f.points)


def _require_tree(tree: Graph) -> None:
    if tree.m != tree.n - 1 or not is_connected(tree):
        raise DomainError("not a spanning tree: need n-1 edges forming one component")


def _require_spanning_tree(tree: Graph, graph: Graph) -> None:
    if tree.n != graph.n:
        raise DomainError("tree and graph must share the vertex set")
    _require_tree(tree)
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
    return _ConstraintOperator.on_tree_edges(_tree_triples(f, tree, t), tree, f.d).dense(f.points)


def _tree_triples(f: Framework, tree: Graph, t: TripleSet) -> TripleSet:
    """The triples of ``t`` in ``tree``, once ``t`` and then the tree are checked against f."""
    t.require_valid_for(f.graph)
    _require_spanning_tree(tree, f.graph)
    return restrict_triples_to_tree(tree, t)


def _rank_test(f: Framework, triples) -> tuple[int, int]:
    """(rank of R_w over f's vertex columns, required rank) on ``triples``, a
    TripleSet or a thunk that returns one. Checks n > d first, then the triples."""
    if f.n <= f.d:
        raise UnsupportedRegimeError(f"need n >= d+1 points (got n={f.n}, d={f.d})")
    t = triples() if callable(triples) else triples
    t.require_valid_for(f.graph)
    return _ConstraintOperator.on_vertices(t, f.n, f.d).rank(f.points), required_rank(f.n, f.d)


def is_infinitesimally_rigid(f: Framework) -> bool:
    rank, req = _rank_test(f, _distance_triples(f.graph))
    return rank == req


def is_infinitesimally_weakly_rigid(f: Framework, t: TripleSet) -> bool:
    rank, req = _rank_test(f, t)
    return rank == req


def check_iwr_via_spanning_tree(f: Framework, tree: Graph, t: TripleSet) -> bool:
    """Sufficient test: R_w's rank on the triples of ``t`` in ``tree``. Those
    rows are J_T (H_T kron I_d) with J_T the tree-edge Jacobian, and H_T kron
    I_d has full row rank d(n-1), so this is J_T's rank. False is inconclusive
    in any dimension: another tree, or triples outside the tree, may still
    certify IWR."""
    rank, req = _rank_test(f, lambda: _tree_triples(f, tree, t))
    return rank == req
