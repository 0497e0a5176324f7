"""Shape recovery and congruence: EDMs, edge Gram matrices, Procrustes alignment.

The edge Gram matrix E^T E (columns of E are the edge displacement vectors)
determines a connected framework up to translation, rotation, and reflection;
``recover_shape`` inverts it by factoring its spanning-tree block, placing the
points along the tree, and certifying the rest of the matrix.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from .errors import DomainError, InputError, NotRealizableError
from .framework import Configuration, Framework
from .graphs import Graph, _bfs
from .linalg import _U, RANK_RTOL, _gamma, _rank_of

PSD_CLAMP_RTOL = RANK_RTOL  # equal, as _proved_factor's proof needs
_STRIP = 2**14  # Gram entries per row strip, in gram and in the realizability certificate
_UNDERFLOW = 2 * np.sqrt(np.finfo(float).tiny)  # per row of a norm: what underflow can lose


def edm(c: Configuration) -> np.ndarray:
    """(n, n) matrix of pairwise squared distances."""
    p = c.points
    diff = p[:, None, :] - p[None, :, :]
    return np.vecdot(diff, diff)


def edge_vector_matrix(f: Framework) -> np.ndarray:
    """(d, m) matrix with column p_i - p_j per canonical edge (i < j)."""
    head, tail = f.points.take(f.graph._ends, axis=0)
    return (head - tail).T


def gram(f: Framework) -> np.ndarray:
    """(m, m) edge Gram matrix E^T E over the canonical edge order, in row
    strips: OpenBLAS is several times slower on the one-shot product."""
    e = edge_vector_matrix(f)
    m = e.shape[1]
    out, rows = np.empty((m, m)), max(1, _STRIP // max(m, 1))
    for lo in range(0, m, rows):
        np.matmul(e[:, lo:lo + rows].T, e, out=out[lo:lo + rows])
    return out


def _require_same_shape(p: Configuration, q: Configuration) -> None:
    if p.n != q.n or p.d != q.d:
        raise InputError(
            f"configurations differ in shape: ({p.n},{p.d}) vs ({q.n},{q.d})"
        )


def congruent(p: Configuration, q: Configuration) -> bool:
    """Equal pairwise squared distances, to 1e-8 of the largest one in p or q."""
    _require_same_shape(p, q)
    dp, dq = edm(p), edm(q)
    return float(np.max(np.abs(dp - dq))) <= _congruence_tol(dp, dq)


def weakly_congruent(p: Configuration, q: Configuration) -> bool:
    """Equal inner products (p_i-p_j)^T (p_i-p_k) over all vertex triples, to the
    tolerance of ``congruent``. Those with j == k are the squared distances, and
    the others half a signed sum of three, so the two tests agree except when
    the distance gap is within a factor 1.5 of the tolerance."""
    _require_same_shape(p, q)
    return _weak_congruence_gap(p, q) <= _congruence_tol(edm(p), edm(q))


def _congruence_tol(dp: np.ndarray, dq: np.ndarray) -> float:
    return 1e-8 * float(max(dp.max(), dq.max()))


def _weak_congruence_gap(p: Configuration, q: Configuration) -> float:
    """Largest entry gap of the (n, n, n) inner-product tables of p and q, one
    apex slab at a time, from the Gram matrices of the centered points."""

    def slab(g: np.ndarray, i: int) -> np.ndarray:  # [j, k] = g_ii - g_ik - g_ij + g_jk
        return g[i, i] - g[i][None, :] - g[i][:, None] + g

    cp, cq = (c.points - c.points.mean(axis=0) for c in (p, q))
    gp, gq = cp @ cp.T, cq @ cq.T
    return float(max(np.max(np.abs(slab(gp, i) - slab(gq, i))) for i in range(p.n)))


def shape_distance(p: Configuration, q: Configuration) -> float:
    """Residual of the orthogonal Procrustes fit of q onto p, reflections
    allowed: the least sqrt(sum_i |p_i - (A q_i + c)|^2) over orthogonal A and
    translations c. Zero iff p and q are congruent."""
    _require_same_shape(p, q)
    pc = p.points - p.points.mean(axis=0)
    qc = q.points - q.points.mean(axis=0)
    u, _, vt = np.linalg.svd(qc.T @ pc)
    rot = (u @ vt).T
    resid_sq = float(np.sum((pc - qc @ rot.T) ** 2))
    return float(np.sqrt(max(resid_sq, 0.0)))


def recover_shape(g: np.ndarray, graph: Graph, d: int) -> Configuration:
    """Reconstruct coordinates whose edge Gram matrix equals ``g``.

    Checks the (n-1)x(n-1) block of ``g`` on the BFS spanning-tree edges for
    symmetry, PSD (eigenvalues within -1e-10 of the largest are clamped) and
    rank <= d (the ``numerical_rank`` rule), factors it by ``_proved_factor``
    or else by its top-d eigenpairs, which word every error, and places the
    points along the tree from p_1 = origin. The tree edges fix every other
    edge by the cycle law, so all of ``g`` is then certified against the
    rebuilt framework's Gram matrix: an entry off by more than
    ``PSD_CLAMP_RTOL * max|g|`` (no floor) raises NotRealizableError. The
    result is congruent to any realization.
    """
    order, parent = _bfs(graph)
    if order.size < graph.n:
        raise DomainError("shape recovery requires a connected graph")
    m = graph.m
    try:
        g = np.asarray(g)
    except ValueError:  # ragged rows
        raise InputError(f"Gram matrix must be {m}x{m} for this graph, got ragged rows") from None
    if g.dtype.kind not in "biuf":  # str, object, complex
        raise InputError("Gram matrix must be real")
    g = g.astype(float, copy=False)
    if g.shape != (m, m):
        raise InputError(f"Gram matrix must be {m}x{m} for this graph, got {g.shape}")
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise InputError("dimension must be an integer >= 1")
    if m == 0:
        return Configuration(np.zeros((graph.n, d)))

    child = order[1:]
    up = parent[child]
    tree = graph._edge_ids(up, child)
    gmin, gmax = float(g.min()), float(g.max())
    if not -np.inf < gmin <= gmax < np.inf:
        raise InputError("Gram matrix must be finite")
    scale = max(gmax, -gmin)
    block = g[np.ix_(tree, tree)]
    asym = float(np.max(np.abs(block - block.T)))
    if asym > 1e-12 * scale:
        raise InputError("Gram matrix is not symmetric")
    k = min(d, graph.n - 1)

    def place(factor: np.ndarray) -> Configuration:
        # p_child - p_parent along each tree edge, whose column holds p_min - p_max
        pts = np.zeros((graph.n, d))
        pts[child, :k] = factor
        pts[child[up < child]] *= -1.0
        up_pos, t = np.argsort(order)[up], 0  # BFS: children of placed vertices come next
        while t < child.size:
            t, done = int(np.searchsorted(up_pos, t + 1)), t
            pts[child[done:t]] += pts[up[done:t]]
        rebuilt = Framework(graph, Configuration(pts))
        e = edge_vector_matrix(rebuilt).T
        tol, rows = PSD_CLAMP_RTOL * scale, max(1, _STRIP // m)
        for lo in range(0, m, rows):
            gap = float(np.max(np.abs(g[lo:lo + rows] - e[lo:lo + rows] @ e.T)))
            if gap > tol:
                raise NotRealizableError(f"Gram matrix breaks the cycle law by {gap:.3e} "
                                         f"(tolerance {tol:.3e})")
        return rebuilt.config

    if (x := _proved_factor(block, k, asym)) is not None:
        with suppress(NotRealizableError):  # then eigh decides, and words, the error
            return place(x)
    w, v = np.linalg.eigh(block)
    if float(w[0]) < -PSD_CLAMP_RTOL * float(w[-1]):
        raise NotRealizableError(
            f"Gram matrix has eigenvalue {w[0]:.3e} below the PSD tolerance"
        )
    w = np.clip(w, 0.0, None)
    rank = int(_rank_of(w[::-1], block.shape))
    if rank > d:
        raise NotRealizableError(
            f"Gram matrix has numerical rank {rank}, not realizable in dimension {d}"
        )
    return place(v[:, -k:] * np.sqrt(w[-k:]))


def _proved_factor(block: np.ndarray, k: int, asym: float) -> np.ndarray | None:
    """X from k steps of diagonally pivoted Cholesky on the tree block B, or
    None unless X proves, as the README's "Numerical conventions" shows, that
    the eigh checks of ``recover_shape`` pass on B. ``asym`` is max|B - Bᵀ|."""
    x, rest = np.zeros_like(block[:, :k]), block.diagonal().copy()
    noise = _gamma(2 * k) * max(float(rest.max()), 0.0)  # a pivot below it is rounding
    for j in range(k):
        p = int(np.argmax(rest))
        if not rest[p] > noise:
            break
        x[:, j] = (block[:, p] - x[:, :j] @ x[p, :j]) / np.sqrt(rest[p])
        rest -= np.square(x[:, j])
    resid = x @ x.T
    resid -= block
    size = len(block)  # slack: each norm's sum of squares and root; eig: eigh's error
    slack, floor = _gamma(size * size + 1), size * (asym + _UNDERFLOW)
    b = float(np.linalg.norm(block)) * (1 + slack) + floor
    x2, eig = float(np.vdot(x, x)), _gamma(16 * size) * b
    r = (float(np.linalg.norm(resid)) * (1 + slack) + floor + eig
         + _gamma(k + 1) * (b + x2 * (1 + slack)))
    top = max(float(block.diagonal().max()), x2 * (1 - slack) / k - r)
    return x if r < PSD_CLAMP_RTOL * (top - eig) * (1 - 4 * _U) else None
