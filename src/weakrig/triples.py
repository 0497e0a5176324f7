"""Constraint-set construction for planar frameworks.

The planar graphical test decides infinitesimal weak rigidity from
connectivity plus per-vertex collinearity alone. On frameworks passing it,
a greedy spanning tree plus a per-vertex neighbor split yield a constraint
set of exactly 2n-3 triples of full rank.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InputError,
    NoValidExtensionError,
    UnsupportedDimensionError,
)
from .framework import Configuration, Framework, TripleSet, distance_triple
from .graphs import Graph, is_connected
from .linalg import are_collinear


def full_triple_set(g: Graph) -> TripleSet:
    """Every admissible triple: one canonical distance constraint per edge plus
    all angle constraints (i, j, k), j < k, with both legs incident to i;
    sorted lexicographically."""
    a, b = g._ends
    nbr = g._csr[2]
    apex, first, second = g._angle_pairs
    trips = np.concatenate([np.stack([b, a, a], axis=1),
                            np.stack([apex, nbr[first], nbr[second]], axis=1)])
    return TripleSet(trips[np.lexsort(trips.T[::-1])] + 1)


def _half_edge_vectors(g: Graph, p: np.ndarray) -> np.ndarray:
    """(2m, d) edge vector p_i - p_j of every half-edge i -> j, in CSR order."""
    _, src, nbr = g._csr
    return p.take(src, axis=0) - p.take(nbr, axis=0)


def collinearity_defects(f: Framework) -> list[int]:
    """Vertices with >= 2 neighbors whose incident edge vectors are pairwise collinear."""
    g = f.graph
    vecs = _half_edge_vectors(g, f.points)
    apex, first, second = g._angle_pairs
    skew = ~are_collinear(vecs[first], vecs[second])
    # a vertex with a pair of edges fails unless one of its pairs is skew
    bad = (np.bincount(apex, minlength=g.n) > 0) & (np.bincount(apex[skew], minlength=g.n) == 0)
    return (np.flatnonzero(bad) + 1).tolist()


def check_planar_graphical_condition(f: Framework) -> bool:
    """Planar test equivalent to infinitesimal weak rigidity for some triple set:
    connected, and every vertex with >= 2 neighbors has a non-collinear pair."""
    if f.d != 2:
        raise UnsupportedDimensionError(
            f"graphical test is planar-only (d = 2); got d = {f.d}"
        )
    if f.n < 3:
        raise DomainError("graphical test needs at least 3 vertices")
    return is_connected(f.graph) and not collinearity_defects(f)


def min_iwr_spanning_tree(f: Framework) -> Graph:
    """Grow a spanning tree whose subframework is minimally infinitesimally
    weakly rigid.

    Seeded with the lexicographically smallest edge; each added edge (i, j),
    i inside the tree, must be non-collinear with some tree edge at i.
    Candidates are scanned in lexicographic order, so the result is
    deterministic.
    """
    if f.d != 2:
        raise UnsupportedDimensionError(
            f"tree construction is planar-only (d = 2); got d = {f.d}"
        )
    if f.graph.m == 0:
        raise NoValidExtensionError("graph has no edges to seed the tree")
    p = f.points
    a, b = f.graph.edges[0]
    in_tree = {a, b}
    tree_edges = [(a, b)]
    tree_adj = {a: [b], b: [a]}
    while len(in_tree) < f.n:
        extension = None
        for u, v in f.graph.edges:
            for i, j in ((u, v), (v, u)):
                if i in in_tree and j not in in_tree:
                    eij = p[i - 1] - p[j - 1]
                    if any(not are_collinear(eij, p[i - 1] - p[k - 1])
                           for k in tree_adj[i]):
                        extension = (i, j)
                        break
            if extension:
                break
        if extension is None:
            raise NoValidExtensionError(
                f"no admissible edge extends the tree on vertices {sorted(in_tree)}"
            )
        i, j = extension
        in_tree.add(j)
        tree_edges.append((min(i, j), max(i, j)))
        tree_adj.setdefault(j, []).append(i)
        tree_adj[i].append(j)
    return Graph(f.n, tuple(tree_edges))


def minimal_triple_set(tree: Graph, c: Configuration) -> TripleSet:
    """Constraint set of exactly 2n-3 triples on a minimally infinitesimally
    weakly rigid spanning tree.

    All n-1 distance constraints, plus per internal vertex i: split the
    neighbors into those collinear with the edge to the smallest neighbor j_i
    and the rest, then take (i, j_i, k) across the split and, if the collinear
    side has more than one member, (i, j, k_i) for the extra members against
    the smallest k_i of the other side.
    """
    if c.d != 2:
        raise UnsupportedDimensionError(
            f"triple-set construction is planar-only (d = 2); got d = {c.d}"
        )
    if tree.n != c.n:
        raise InputError("tree and configuration disagree on the vertex count")
    start, src, nbr = tree._csr
    vecs = _half_edge_vectors(tree, c.points)
    # whether each half-edge is collinear with the first one leaving its vertex
    collinear = are_collinear(vecs[start[src]], vecs).tolist()
    start, nbr = start.tolist(), (nbr + 1).tolist()
    trips = [distance_triple(i, j) for i, j in tree.edges]
    for i in range(tree.n):
        lo, hi = start[i], start[i + 1]
        if hi - lo < 2:
            continue
        nb = nbr[lo:hi]
        j_i = nb[0]
        hat = [j_i] + [k for k, col in zip(nb[1:], collinear[lo + 1:hi]) if col]
        rest = [k for k in nb if k not in hat]
        if not rest:
            raise ConstructionError(
                f"vertex {i + 1}: all incident tree edges collinear, tree is not "
                "minimally infinitesimally weakly rigid"
            )
        for k in rest:
            trips.append((i + 1, j_i, k))
        if len(hat) > 1:
            k_i = rest[0]
            for j in hat[1:]:
                trips.append((i + 1, min(j, k_i), max(j, k_i)))
    return TripleSet(tuple(trips))
