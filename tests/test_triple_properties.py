"""Property tests: the array-built triple sets and the graph's edge lookup
against the per-triple reference loops in helpers.py, on generated graphs
with 1..30 vertices (isolated vertices and edgeless graphs included)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    reference_build_formation_triples,
    reference_full_triple_set,
    reference_require_valid_for,
    reference_restrict_triples_to_tree,
    reference_validate_triples,
)
from weakrig import (  # noqa: E402
    Graph,
    InputError,
    TripleSet,
    build_formation_triples,
    full_triple_set,
    restrict_triples_to_tree,
)


def _outcome(fn, *args):
    """The function's result, or the text of the InputError it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def _rng(draw):
    """A numpy generator seeded from the example, so large draws stay cheap."""
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def graphs(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, 1.0)))
    rng = _rng(draw)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # edges in random order and orientation; the graph canonicalizes them
    edges = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in pairs if rng.random() < p]
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


@st.composite
def subgraphs(draw, g):
    keep = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    rng = _rng(draw)
    return Graph(g.n, tuple(e for e in g.edges if rng.random() < keep))


@st.composite
def triple_lists(draw, g):
    """Shuffled admissible triples of ``g``, then a few corruptions: legs out
    of order, an apex equal to a leg, a duplicate (a distance triple may come
    back with its ends swapped), or an arbitrary triple on labels 0..n+1."""
    rng = _rng(draw)
    trips = list(reference_full_triple_set(g))
    rng.shuffle(trips)
    trips = trips[:draw(st.integers(0, len(trips)))]
    for kind in draw(st.lists(st.sampled_from(("order", "apex", "duplicate", "arbitrary")),
                              max_size=3)):
        pos = int(rng.integers(len(trips) + 1))
        if kind == "arbitrary" or not trips:
            trips.insert(pos, tuple(int(v) for v in rng.integers(0, g.n + 2, 3)))
            continue
        i, j, k = trips[rng.integers(len(trips))]
        if kind == "order":
            trips.insert(pos, (i, k, j))
        elif kind == "apex":
            trips.insert(pos, (j, j, k))
        else:
            trips.insert(pos, (j, i, i) if j == k and rng.random() < 0.5 else (i, j, k))
    return trips


@given(graphs())
def test_full_triple_set_matches_nested_loop(g):
    got = full_triple_set(g).triples
    assert got == reference_full_triple_set(g)
    assert all(type(v) is int for t in got for v in t)


@given(graphs(), st.data())
def test_edge_lookup_matches_edge_set(g, data):
    u = np.array(data.draw(st.lists(st.integers(-1, g.n), max_size=40)), dtype=np.int64)
    v = np.array(data.draw(st.lists(st.integers(-1, g.n), min_size=u.size, max_size=u.size)),
                 dtype=np.int64)
    position = {e: idx for idx, e in enumerate(g.edges)}
    expected = [position.get((min(a, b) + 1, max(a, b) + 1), -1) if a != b else -1
                for a, b in zip(u.tolist(), v.tolist())]
    assert g._edge_ids(u, v).tolist() == expected


@given(graphs(max_n=12), st.data())
def test_triple_set_matches_reference_validator(g, data):
    trips = data.draw(triple_lists(g))
    expected = _outcome(reference_validate_triples, trips)
    array = np.array(trips, dtype=np.int64).reshape(-1, 3)
    for given_as in (trips, tuple(trips), array):
        got = _outcome(lambda t: TripleSet(t).triples, given_as)
        assert got == expected
    if isinstance(expected, tuple):
        assert TripleSet(array) == TripleSet(trips)
        assert _outcome(TripleSet(array).require_valid_for, g) \
            == _outcome(reference_require_valid_for, g, expected)


@given(graphs(), st.data())
def test_restrict_triples_matches_reference(g, data):
    tree = data.draw(subgraphs(g))
    rng = _rng(data.draw)
    trips = [t for t in reference_full_triple_set(g) if rng.random() < 0.5]
    rng.shuffle(trips)
    kept = restrict_triples_to_tree(tree, TripleSet(trips))
    assert kept.triples == reference_restrict_triples_to_tree(tree, trips)


@given(graphs(max_n=20), st.data())
def test_build_formation_triples_matches_reference(gs, data):
    gf = data.draw(subgraphs(gs))
    if gs.n >= 2 and data.draw(st.booleans()):
        # a formation edge the sensing graph may lack
        a = data.draw(st.integers(1, gs.n - 1))
        b = data.draw(st.integers(a + 1, gs.n))
        if (a, b) not in gf.edges:
            gf = Graph(gs.n, gf.edges + ((a, b),))
    got = _outcome(lambda a, b: build_formation_triples(a, b).triples, gf, gs)
    assert got == _outcome(reference_build_formation_triples, gf, gs)
