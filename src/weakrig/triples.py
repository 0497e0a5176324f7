"""Constraint-set construction for planar frameworks.

The planar graphical test decides infinitesimal weak rigidity from
connectivity plus per-vertex collinearity alone. On frameworks passing it,
a greedy spanning tree plus a per-vertex neighbor split yield a constraint
set of exactly 2n-3 triples of full rank.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InputError,
    NoValidExtensionError,
    UnsupportedDimensionError,
)
from .framework import Configuration, Framework, TripleSet, _distance_triples
from .graphs import Graph, is_connected
from .linalg import are_collinear


def full_triple_set(g: Graph) -> TripleSet:
    """Every admissible triple: one canonical distance constraint per edge plus
    all angle constraints (i, j, k), j < k, with both legs incident to i;
    sorted lexicographically."""
    _, src, nbr = g._csr
    apex, first, second = g._angle_pairs
    # the angle pairs are sorted; put each (i, j, j), j < i, before the angles (i, j, k)
    dist = np.flatnonzero(nbr < src)
    trips = np.insert(np.stack([apex, nbr[first], nbr[second]]), np.searchsorted(first, dist),
                      np.stack([src[dist], nbr[dist], nbr[dist]]), axis=1)
    return TripleSet(trips.T + 1)


def _half_edge_vectors(g: Graph, p: np.ndarray) -> np.ndarray:
    """(2m, d) edge vector p_i - p_j of every half-edge i -> j, in CSR order."""
    _, src, nbr = g._csr
    return p.take(src, axis=0) - p.take(nbr, axis=0)


def _require_planar(d: int, task: str) -> None:
    if d != 2:
        raise UnsupportedDimensionError(f"{task} is planar-only (d = 2); got d = {d}")


def collinearity_defects(f: Framework) -> list[int]:
    """Vertices with >= 2 neighbors whose incident edge vectors are pairwise collinear."""
    g = f.graph
    vecs = _half_edge_vectors(g, f.points)
    apex, first, second = g._angle_pairs
    skew = ~are_collinear(vecs[first], vecs[second])
    # a vertex with a pair of edges fails unless one of its pairs is skew
    bad = (np.bincount(apex, minlength=g.n) > 0) & (np.bincount(apex[skew], minlength=g.n) == 0)
    return (np.flatnonzero(bad) + 1).tolist()


def _graphical_defects(f: Framework) -> list[int] | None:
    """None if the graph is disconnected, else ``collinearity_defects(f)``."""
    _require_planar(f.d, "graphical test")
    if f.n < 3:
        raise DomainError("graphical test needs at least 3 vertices")
    return collinearity_defects(f) if is_connected(f.graph) else None


def check_planar_graphical_condition(f: Framework) -> bool:
    """Planar test equivalent to infinitesimal weak rigidity for some triple set:
    connected, and every vertex with >= 2 neighbors has a non-collinear pair.
    Its per-pair tolerance is not the rank tests' whole-matrix one, so the two
    can disagree where a vertex's edges lie within ~1e-8 (relative) of a line."""
    return _graphical_defects(f) == []


def min_iwr_spanning_tree(f: Framework) -> Graph:
    """Grow a spanning tree whose subframework is minimally infinitesimally
    weakly rigid.

    Seeded with the lexicographically smallest edge, each step adds the smallest
    edge (i, j), i in the tree, non-collinear with some tree edge at i. The angle
    pairs of the tree edges added since the last test are tested in one stacked
    call once the smallest candidate needs it.
    """
    _require_planar(f.d, "tree construction")
    g = f.graph
    if g.m == 0:
        raise NoValidExtensionError("graph has no edges to seed the tree")
    start, src, nbr = g._csr
    _, first, second = g._angle_pairs
    vecs = _half_edge_vectors(g, f.points)
    usable = np.zeros(src.size, dtype=bool)  # i -> j is skew to a tested tree edge at i
    eid = g._edge_ids(src, nbr)
    lo, tail, head, edge = start.tolist(), src.tolist(), nbr.tolist(), eid.tolist()
    in_tree, tree, tested = [False] * g.n, [], 0
    heap = [(0, int(start[g._ends[0][0]]))]  # half-edges out of the tree, by edge
    while len(tree) < g.n - 1:
        if not heap:
            raise NoValidExtensionError("no admissible edge extends the tree on vertices "
                                        f"{[v + 1 for v in range(g.n) if in_tree[v]]}")
        h = heap[0][1]
        ready = usable[h] or not tree  # the smallest edge seeds the tree
        if in_tree[head[h]] or not ready and len(tree) == tested:
            heapq.heappop(heap)  # pushed again when its tail gains a tree edge
        elif not ready:  # test the new tree edges against the others at their ends
            leg, tested = np.isin(eid, tree[tested:]), len(tree)
            pair = (leg[first] & ~usable[second]) | (leg[second] & ~usable[first])
            u, v = first[pair], second[pair]
            skew = ~are_collinear(vecs[u], vecs[v])
            usable[u[skew & leg[v]]] = usable[v[skew & leg[u]]] = True
        else:
            tree.append(heapq.heappop(heap)[0])  # the edge of h
            in_tree[tail[h]] = in_tree[head[h]] = True
            for p in [*range(lo[tail[h]], lo[tail[h] + 1]), *range(lo[head[h]], lo[head[h] + 1])]:
                if not (usable[p] or in_tree[head[p]]):
                    heapq.heappush(heap, (edge[p], p))
    return Graph(g.n, np.stack(g._ends, axis=1)[tree] + 1)


def minimal_triple_set(tree: Graph, c: Configuration) -> TripleSet:
    """Constraint set of exactly 2n-3 triples on a minimally infinitesimally
    weakly rigid spanning tree.

    All n-1 distance constraints, plus per internal vertex i: split the
    neighbors into those collinear with the edge to the smallest neighbor j_i
    and the rest, then take (i, j_i, k) across the split and, if the collinear
    side has more than one member, (i, j, k_i) for the extra members against
    the smallest k_i of the other side.
    """
    _require_planar(c.d, "triple-set construction")
    if tree.n != c.n:
        raise InputError("tree and configuration disagree on the vertex count")
    start, src, nbr = tree._csr
    vecs = _half_edge_vectors(tree, c.points)
    pos = np.arange(src.size)
    lead = start[src]  # the half-edge to j_i, from each half-edge's vertex
    hat = (pos == lead) | are_collinear(vecs[lead], vecs)  # j_i's side of the split
    k_i = np.full(tree.n, src.size)  # the first half-edge of the other side
    np.minimum.at(k_i, src[~hat], pos[~hat])
    inner = np.diff(start)[src] > 1
    bad = inner & (k_i[src] == src.size)
    if bad.any():
        raise ConstructionError(f"vertex {src[bad.argmax()] + 1}: all incident tree edges "
                                "collinear, tree is not minimally infinitesimally weakly rigid")
    k = nbr.take(k_i[src], mode="clip")
    rows = np.stack([src, np.where(hat, np.minimum(nbr, k), nbr[lead]),
                     np.where(hat, np.maximum(nbr, k), nbr)], axis=1)
    order = np.argsort(2 * src + hat, kind="stable")  # (i, j_i, k) rows, then (i, j, k_i)
    rows = rows[order[(inner & (pos != lead))[order]]]
    return TripleSet(np.concatenate([_distance_triples(tree)._arr, rows + 1]))
