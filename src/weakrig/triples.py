"""Constraint-set construction for planar frameworks.

The planar graphical test decides infinitesimal weak rigidity from
connectivity plus per-vertex collinearity alone. On frameworks passing it,
a greedy spanning tree plus a per-vertex neighbor split yield a constraint
set of exactly 2n-3 triples of full rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InputError,
    NoValidExtensionError,
    UnsupportedDimensionError,
)
from .framework import (
    Configuration,
    Framework,
    TripleSet,
    distance_triple,
    is_infinitesimally_weakly_rigid,
)
from .graphs import Graph, is_connected, neighbors
from .linalg import are_collinear


def full_triple_set(g: Graph) -> TripleSet:
    """Every admissible triple: one canonical distance constraint per edge plus
    all angle constraints (i, j, k), j < k, with both legs incident to i;
    sorted lexicographically."""
    a, b = g._ends
    # adjacency in CSR form: each vertex's neighbors ascending, vertices ascending
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    nbr = dst[np.lexsort((dst, src))]
    deg = np.bincount(src, minlength=g.n)
    start = np.cumsum(deg) - deg
    rows = [np.stack([b, a, a], axis=1)]
    degrees = np.flatnonzero(np.bincount(deg))  # the distinct degrees, ascending
    for k in degrees[degrees >= 2]:
        # every vertex of degree k pairs its neighbors the same way
        verts = np.flatnonzero(deg == k)
        first, second = np.triu_indices(k, 1)
        base = start[verts][:, None]
        rows.append(np.stack([np.repeat(verts, first.size), nbr[base + first].ravel(),
                              nbr[base + second].ravel()], axis=1))
    trips = np.concatenate(rows)
    return TripleSet(trips[np.lexsort(trips.T[::-1])] + 1)


def collinearity_defects(f: Framework) -> list[int]:
    """Vertices with >= 2 neighbors whose incident edge vectors are pairwise collinear."""
    p = f.points
    bad = []
    for i in range(1, f.n + 1):
        nb = sorted(neighbors(f.graph, i))
        if len(nb) < 2:
            continue
        vecs = [p[i - 1] - p[j - 1] for j in nb]
        if all(are_collinear(u, v) for a, u in enumerate(vecs) for v in vecs[a + 1:]):
            bad.append(i)
    return bad


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
    p = c.points
    trips = [distance_triple(i, j) for i, j in tree.edges]
    for i in range(1, tree.n + 1):
        nb = sorted(neighbors(tree, i))
        if len(nb) < 2:
            continue
        j_i = nb[0]
        e_ref = p[i - 1] - p[j_i - 1]
        hat = [j_i] + [k for k in nb[1:] if are_collinear(e_ref, p[i - 1] - p[k - 1])]
        rest = [k for k in nb if k not in hat]
        if not rest:
            raise ConstructionError(
                f"vertex {i}: all incident tree edges collinear, tree is not "
                "minimally infinitesimally weakly rigid"
            )
        for k in rest:
            trips.append((i, j_i, k))
        if len(hat) > 1:
            k_i = rest[0]
            for j in hat[1:]:
                trips.append((i, min(j, k_i), max(j, k_i)))
    return TripleSet(tuple(trips))


@dataclass(frozen=True)
class ProbeReport:
    iwr_count: int
    total: int


def generic_rigidity_probe(g: Graph, d: int, trials: int, seed: int) -> ProbeReport:
    """Sample configurations with i.i.d. uniform [-1, 1] coordinates and count
    how many are infinitesimally weakly rigid under the full triple set.

    Weak rigidity is a generic property, so the count is almost surely either
    0 or ``trials``. Trial seeds are derived as seed + trial index.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    full = full_triple_set(g)
    count = 0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        pts = rng.uniform(-1.0, 1.0, size=(g.n, d))
        fw = Framework(g, Configuration(pts))
        if is_infinitesimally_weakly_rigid(fw, full):
            count += 1
    return ProbeReport(count, trials)
