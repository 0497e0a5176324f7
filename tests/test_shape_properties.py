"""Property tests: shape recovery from the edge Gram matrix on generated
connected graphs with d in {1, 2, 3}, against the eigh-based recoveries and
the per-child placement loop in helpers.py, and the realizability
certificate on Grams that break the cycle law."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    eigh_checks_pass,
    random_connected_graph,
    reference_recover_shape,
    reference_recover_shape_by_child,
    reference_recover_shape_eigh,
)
from test_scale_properties import exponents  # noqa: E402
from test_scale_properties import frameworks as scale_frameworks  # noqa: E402
from weakrig import (  # noqa: E402
    Configuration,
    Framework,
    Graph,
    NotRealizableError,
    edge_vector_matrix,
    gram,
    recover_shape,
    shape_distance,
    spanning_tree,
)
from weakrig.graphs import _bfs  # noqa: E402
from weakrig.shape import _proved_factor  # noqa: E402


@st.composite
def frameworks(draw):
    """Generic points, or points within 1e-4 or 1e-5 of a line, scaled by 1e-3,
    1 or 1e3, on a random connected graph with 1..12 vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 12))
    graph = random_connected_graph(rng, n, extra_prob=draw(st.sampled_from([0.0, 0.3, 1.0])))
    thickness = draw(st.sampled_from([None, 1e-4, 1e-5]))
    if thickness is None:
        pts = rng.uniform(-1.0, 1.0, (n, d))
    else:
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        pts = (np.outer(rng.uniform(-1.0, 1.0, n), direction)
               + thickness * rng.normal(size=(n, d)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return Framework(graph, Configuration(scale * pts))


def size(fw):
    return max(1.0, float(np.abs(fw.points).max()))


@given(frameworks())
def test_realizable_gram_round_trips(fw):
    # 1e-8 of the framework's size, since rounding errors grow with the scale;
    # both recoveries lose up to ~3e-9 of it on 1e-5-thin frameworks in R^3
    g = gram(fw)
    rec = recover_shape(g, fw.graph, fw.d)
    assert shape_distance(rec, fw.config) <= 1e-8 * size(fw)
    assert shape_distance(rec, reference_recover_shape(g, fw.graph, fw.d)) <= 1e-8 * size(fw)


@given(frameworks(), st.data())
def test_broken_cycle_law_rejected(fw, data):
    tree = set(spanning_tree(fw.graph).edges)
    off_tree = [c for c, e in enumerate(fw.graph.edges) if e not in tree]
    assume(off_tree)
    c = data.draw(st.sampled_from(off_tree))
    kick = data.draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e = edge_vector_matrix(fw).copy()
    # a non-tree edge vector is the signed sum of the tree edge vectors on its
    # cycle; moving it keeps the Gram PSD with rank <= d but breaks that law
    e[:, c] += kick * size(fw) * rng.normal(size=fw.d)
    with pytest.raises(NotRealizableError, match="cycle law"):
        recover_shape(e.T @ e, fw.graph, fw.d)


@st.composite
def long_frameworks(draw):
    """A path through 2..60 shuffled labels plus a few chords, so the BFS
    tree has many levels, at generic points in R^2 or R^3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    walk = rng.permutation(n) + 1
    edges = {tuple(sorted(map(int, e))) for e in zip(walk[:-1], walk[1:])}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False) + 1)))
              for _ in range(draw(st.integers(0, 5)))}
    d = draw(st.sampled_from([2, 3]))
    return Framework(Graph(n, tuple(edges)), Configuration(rng.uniform(-1.0, 1.0, (n, d))))


def _recovered_bytes(recover, g, fw):
    """The recovered points' bytes, or the text of the error raised."""
    try:
        return recover(g, fw.graph, fw.d).points.tobytes()
    except NotRealizableError as exc:
        return str(exc)


@given(st.one_of(frameworks(), long_frameworks()), st.sampled_from([0.0, 1e-3]), st.data())
def test_level_placement_matches_per_child_loop(fw, kick, data):
    """Placing the points a BFS level at a time adds the same numbers in the
    same order as the per-child loop, on realizable Grams and on Grams with
    one edge vector moved off its cycle."""
    e = edge_vector_matrix(fw).copy()
    c = data.draw(st.integers(0, fw.graph.m - 1)) if fw.graph.m else None
    if c is not None:
        e[:, c] += kick * size(fw)
    g = e.T @ e
    assert _recovered_bytes(recover_shape, g, fw) \
        == _recovered_bytes(reference_recover_shape_by_child, g, fw)


@st.composite
def line_frameworks(draw):
    """Points in R^1, R^2 or R^3 within 1e-3 to 1e-9 of a line, on a random
    connected graph with 2..12 vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(2, 12))
    graph = random_connected_graph(rng, n, extra_prob=draw(st.sampled_from([0.0, 0.3, 1.0])))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    thickness = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
    pts = np.outer(rng.uniform(-1.0, 1.0, n), direction) + thickness * rng.normal(size=(n, d))
    return Framework(graph, Configuration(pts))


@st.composite
def scaled_frameworks(draw):
    """The scale-property family, scaled by 2^k."""
    fw = draw(scale_frameworks())
    return Framework(fw.graph, Configuration(2.0 ** draw(exponents) * fw.points))


def _outcome(recover, g, fw, d):
    """The recovered configuration, or the type and text of the error."""
    try:
        return recover(g, fw.graph, d)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _spread(fw):
    """σ_r/σ_1 of the centered points, r = min(n - 1, d): 0 on a line."""
    sv = np.linalg.svd(fw.points - fw.points.mean(axis=0), compute_uv=False)
    r = min(fw.n - 1, fw.d)
    return float(sv[r - 1] / sv[0]) if r and sv[0] else 1.0


@settings(max_examples=300)
@given(st.one_of(frameworks(), long_frameworks(), line_frameworks(), scaled_frameworks()),
       st.integers(-1, 1), st.sampled_from(["exact", "kicked", "shifted"]), st.data())
def test_proved_factor_agrees_with_eigh(fw, dd, variant, data):
    """Whenever the pivoted factor is accepted, the eigh rules pass on the
    same block; and ``recover_shape`` raises the eigh-only recovery's error,
    type and text, or both succeed. In the framework's dimension the two
    results are congruent within 1e-8 of its size; above it, the pivoted one
    is congruent to the points; below it, both realize ``g`` and may differ
    by the thickness they drop. Within 1e-7 (relative) of a line the thin
    coordinate sits at the rounding floor, where eigh alone loses up to
    2.6e-7 of the size on 2..30 points, so the bound there is 1e-6."""
    d = max(1, fw.d + dd)
    e = edge_vector_matrix(fw).copy()
    if variant == "kicked" and fw.graph.m:
        e[:, data.draw(st.integers(0, fw.graph.m - 1))] += 1e-3 * size(fw)
    g = e.T @ e
    if variant == "shifted":
        g -= 1e-3 * size(fw) ** 2 * np.eye(fw.graph.m)
    order, parent = _bfs(fw.graph)
    tree = fw.graph._edge_ids(parent[order[1:]], order[1:])
    block = g[np.ix_(tree, tree)]
    asym = float(np.max(np.abs(block - block.T), initial=0.0))
    if block.size and _proved_factor(block, min(d, fw.n - 1), asym) is not None:
        assert eigh_checks_pass(block, d)
    new = _outcome(recover_shape, g, fw, d)
    old = _outcome(reference_recover_shape_eigh, g, fw, d)
    tol = (1e-8 if _spread(fw) >= 1e-7 else 1e-6) * size(fw)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
    elif d == fw.d:
        assert shape_distance(new, old) <= tol
    elif d > fw.d and variant == "exact":
        flat = Configuration(np.hstack([fw.points, np.zeros((fw.n, d - fw.d))]))
        assert shape_distance(new, flat) <= tol
