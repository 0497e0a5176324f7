"""Property tests: shape recovery from the edge Gram matrix on generated
connected graphs with d in {2, 3}, against the eigh-based recovery and the
per-child placement loop in helpers.py, and the realizability certificate on
Grams that break the cycle law."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    random_connected_graph,
    reference_recover_shape,
    reference_recover_shape_by_child,
)
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
