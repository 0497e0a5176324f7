"""Shape recovery and congruence: EDMs, edge Gram matrices, Procrustes alignment.

The edge Gram matrix E^T E (columns of E are the edge displacement vectors)
determines a connected framework up to translation, rotation, and reflection;
``recover_shape`` inverts it by factoring its spanning-tree block, placing the
points along the tree, and certifying the rest of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NotRealizableError
from .framework import Configuration, Framework
from .graphs import Graph, _bfs
from .linalg import _rank_of

PSD_CLAMP_RTOL = 1e-10
_CERTIFY_BLOCK = 2**14  # Gram entries per row strip of the realizability certificate


def edm(c: Configuration) -> np.ndarray:
    """(n, n) matrix of pairwise squared distances."""
    p = c.points
    diff = p[:, None, :] - p[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def edge_vector_matrix(f: Framework) -> np.ndarray:
    """(d, m) matrix with column p_i - p_j per canonical edge (i < j)."""
    head, tail = f.points.take(f.graph._ends, axis=0)
    return (head - tail).T


def gram(f: Framework) -> np.ndarray:
    """(m, m) edge Gram matrix E^T E over the canonical edge order."""
    e = edge_vector_matrix(f)
    return e.T @ e


def _require_same_shape(p: Configuration, q: Configuration) -> None:
    if p.n != q.n or p.d != q.d:
        raise InputError(
            f"configurations differ in shape: ({p.n},{p.d}) vs ({q.n},{q.d})"
        )


def congruent(p: Configuration, q: Configuration, tol: float = 1e-8) -> bool:
    """Equal pairwise distances over all vertex pairs, to tolerance."""
    _require_same_shape(p, q)
    return float(np.max(np.abs(edm(p) - edm(q)))) <= tol


def weakly_congruent(p: Configuration, q: Configuration, tol: float = 1e-8) -> bool:
    """Equal inner products (p_i-p_j)^T (p_i-p_k) over all vertex triples.

    Equivalent to ``congruent`` on every input; both directions are exercised
    by the test suite.
    """
    _require_same_shape(p, q)

    def slab(g: np.ndarray, i: int) -> np.ndarray:
        # apex i of the (n, n, n) triple table: [j, k] = g_ii - g_ik - g_ij + g_jk
        return g[i, i] - g[i][None, :] - g[i][:, None] + g

    gp = p.points @ p.points.T
    gq = q.points @ q.points.T
    gaps = [np.max(np.abs(slab(gp, i) - slab(gq, i))) for i in range(p.n)]
    return float(np.max(gaps)) <= tol


@dataclass(frozen=True, eq=False)
class Alignment:
    """Orthogonal map A (det +-1), translation c, and the residual of
    min sum_i |p_i - (A q_i + c)|^2."""

    rotation: np.ndarray
    translation: np.ndarray
    residual: float


def align(p: Configuration, q: Configuration) -> Alignment:
    """Orthogonal Procrustes fit of q onto p, reflections allowed."""
    _require_same_shape(p, q)
    pp = p.points
    qp = q.points
    pbar = pp.mean(axis=0)
    qbar = qp.mean(axis=0)
    pc = pp - pbar
    qc = qp - qbar
    u, sv, vt = np.linalg.svd(qc.T @ pc)
    rot = (u @ vt).T
    translation = pbar - rot @ qbar
    resid_sq = float(np.sum((pc - qc @ rot.T) ** 2))
    return Alignment(rot, translation, float(np.sqrt(max(resid_sq, 0.0))))


def shape_distance(p: Configuration, q: Configuration) -> float:
    """Alignment residual allowing reflection; zero iff congruent."""
    return align(p, q).residual


def recover_shape(g: np.ndarray, graph: Graph, d: int) -> Configuration:
    """Reconstruct coordinates whose edge Gram matrix equals ``g``.

    Checks the (n-1)x(n-1) block of ``g`` on the BFS spanning-tree edges for
    symmetry, PSD (eigenvalues within -1e-10 of the largest are clamped) and
    rank <= d (the ``numerical_rank`` rule), factors it (top-d eigenpairs) and
    places the points along the tree from p_1 = origin. The tree edges fix
    every other edge by the cycle law, so all of ``g`` is then certified
    against the rebuilt framework's Gram matrix: an entry off by more than
    ``PSD_CLAMP_RTOL * max(1, max|g|)`` raises NotRealizableError. The result
    is congruent to any realization.
    """
    order, parent = _bfs(graph)
    if order.size < graph.n:
        raise DomainError("shape recovery requires a connected graph")
    g = np.asarray(g, dtype=float)
    m = graph.m
    if g.shape != (m, m):
        raise InputError(f"Gram matrix must be {m}x{m} for this graph, got {g.shape}")
    if d < 1:
        raise InputError("dimension must be >= 1")
    if m == 0:
        return Configuration(np.zeros((graph.n, d)))

    child = order[1:]
    up = parent[child]
    tree = graph._edge_ids(up, child)
    gmin, gmax = float(g.min()), float(g.max())
    if not -np.inf < gmin <= gmax < np.inf:
        raise InputError("Gram matrix must be finite")
    scale = max(1.0, gmax, -gmin)
    block = g[np.ix_(tree, tree)]
    if float(np.max(np.abs(block - block.T))) > 1e-12 * scale:
        raise InputError("Gram matrix is not symmetric")
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
    k = min(d, graph.n - 1)
    # p_child - p_parent along each tree edge, whose column holds p_min - p_max
    pts = np.zeros((graph.n, d))
    pts[child, :k] = v[:, -k:] * np.sqrt(w[-k:])
    pts[child[up < child]] *= -1.0
    up_pos, t = np.argsort(order)[up], 0  # BFS: children of placed vertices come next
    while t < child.size:
        t, done = int(np.searchsorted(up_pos, t + 1)), t
        pts[child[done:t]] += pts[up[done:t]]
    rebuilt = Framework(graph, Configuration(pts))
    e = edge_vector_matrix(rebuilt).T
    tol = PSD_CLAMP_RTOL * scale
    rows = max(1, _CERTIFY_BLOCK // m)
    for lo in range(0, m, rows):
        gap = float(np.max(np.abs(g[lo:lo + rows] - e[lo:lo + rows] @ e.T)))
        if gap > tol:
            raise NotRealizableError(f"Gram matrix breaks the cycle law by {gap:.3e} "
                                     f"(tolerance {tol:.3e})")
    return rebuilt.config
