"""Shape recovery and congruence: EDMs, edge Gram matrices, Procrustes alignment.

The edge Gram matrix E^T E (columns of E are the edge displacement vectors)
determines a connected framework up to translation, rotation, and reflection;
``recover_shape`` inverts it by low-rank factorization plus integration of the
edge vectors along a spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NotRealizableError
from .framework import Configuration, Framework
from .graphs import Graph, is_connected, spanning_tree
from .linalg import RANK_RTOL

PSD_CLAMP_RTOL = 1e-10


def edm(c: Configuration) -> np.ndarray:
    """(n, n) matrix of pairwise squared distances."""
    p = c.points
    diff = p[:, None, :] - p[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def edge_vector_matrix(f: Framework) -> np.ndarray:
    """(d, m) matrix with column p_i - p_j per canonical edge (i < j)."""
    p = f.points
    cols = [p[i - 1] - p[j - 1] for i, j in f.graph.edges]
    return np.array(cols).T.reshape(f.d, f.graph.m)


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

    Factors g = E^T E by symmetric eigendecomposition (top-d eigenpairs;
    small negative eigenvalues within -1e-10 of the largest are clamped) and
    integrates the edge vectors along a spanning tree from p_1 = origin. The
    result is congruent to any configuration realizing ``g``.
    """
    if not is_connected(graph):
        raise DomainError("shape recovery requires a connected graph")
    g = np.asarray(g, dtype=float)
    m = graph.m
    if g.shape != (m, m):
        raise InputError(f"Gram matrix must be {m}x{m} for this graph, got {g.shape}")
    if m > 0:
        scale = max(1.0, float(np.max(np.abs(g))))
        if float(np.max(np.abs(g - g.T))) > 1e-12 * scale:
            raise InputError("Gram matrix is not symmetric")
    if d < 1:
        raise InputError("dimension must be >= 1")

    if m == 0:
        return Configuration(np.zeros((graph.n, d)))

    w, v = np.linalg.eigh(g)
    lam_max = float(w[-1])
    if lam_max < 0.0:
        raise NotRealizableError("Gram matrix is not positive semidefinite")
    floor = -PSD_CLAMP_RTOL * lam_max
    if float(w[0]) < floor:
        raise NotRealizableError(
            f"Gram matrix has eigenvalue {w[0]:.3e} below the PSD tolerance"
        )
    w = np.clip(w, 0.0, None)
    tol = max(m * lam_max * RANK_RTOL, 1e-12)
    rank = int(np.count_nonzero(w > tol))
    if rank > d:
        raise NotRealizableError(
            f"Gram matrix has numerical rank {rank}, not realizable in dimension {d}"
        )
    top_w = w[-d:] if d <= m else np.concatenate([np.zeros(d - m), w])
    top_v = v[:, -d:] if d <= m else np.hstack([np.zeros((m, d - m)), v])
    e = (np.sqrt(top_w)[:, None]) * top_v.T  # (d, m), columns are edge vectors

    pts = np.zeros((graph.n, d))
    known = {1}
    tree = spanning_tree(graph)
    cols = graph._edge_ids(*tree._ends).tolist()
    adj = {i: [] for i in range(1, graph.n + 1)}
    for (a, b), c in zip(tree.edges, cols):
        adj[a].append((b, c))
        adj[b].append((a, c))
    stack = [1]
    while stack:
        u = stack.pop()
        for vtx, c in adj[u]:
            if vtx in known:
                continue
            col = e[:, c]
            # column holds p_min - p_max for the canonical orientation
            pts[vtx - 1] = pts[u - 1] - col if u < vtx else pts[u - 1] + col
            known.add(vtx)
            stack.append(vtx)
    return Configuration(pts)
