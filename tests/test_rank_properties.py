"""Property tests: the apex-blocked rank of every constraint operator against
the dense reference ``numerical_rank(op.dense(pts))`` in helpers.py, on
generated connected graphs in d = 1, 2, 3 (full, subset, distance and
tree-edge sets), plus the edge cases the tolerance and the block layout
meet: no rows, coincident points, vertices that are apex of no row, and stars
whose leaves sit within 1e-7..1e-10 of a line."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import random_connected_graph, reference_rank  # noqa: E402
from weakrig import (  # noqa: E402
    Configuration,
    Framework,
    Graph,
    TripleSet,
    check_iwr_via_spanning_tree,
    full_triple_set,
    is_infinitesimally_rigid,
    is_infinitesimally_weakly_rigid,
    required_rank,
    restrict_triples_to_tree,
    spanning_tree,
)
from weakrig.framework import (  # noqa: E402
    _ApexBlocks,
    _ConstraintOperator,
    _rigidity_operator,
)

SV_RTOL = 1e-13


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def frameworks(draw):
    """Connected graphs on d+1..12 vertices; generic, coincident, flat (in a
    hyperplane) or small-integer points, the last with exact collinearities."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 12))
    rng = _rng(draw)
    graph = random_connected_graph(rng, n, draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))))
    pts = rng.uniform(-1.0, 1.0, (n, d))
    kind = draw(st.sampled_from(("generic", "coincident", "flat", "integer")))
    if kind == "coincident":
        pts[:] = pts[0]
    elif kind == "flat":
        pts[:, -1] = 0.5
    elif kind == "integer":
        pts = rng.integers(-2, 3, (n, d)).astype(float)
    return Framework(graph, Configuration(pts))


def _subset(rng, t: TripleSet) -> TripleSet:
    return TripleSet(t._arr[rng.random(t.s) < rng.choice((0.1, 0.5, 0.9))])


def _operators(fw, rng):
    full = full_triple_set(fw.graph)
    sub = _subset(rng, full)
    tree = spanning_tree(fw.graph)
    return {
        "full": _ConstraintOperator.on_vertices(full, fw.n, fw.d),
        "subset": _ConstraintOperator.on_vertices(sub, fw.n, fw.d),
        "distance": _rigidity_operator(fw),
        "tree full": _ConstraintOperator.on_tree_edges(
            restrict_triples_to_tree(tree, full), tree, fw.d),
        "tree subset": _ConstraintOperator.on_tree_edges(
            restrict_triples_to_tree(tree, sub), tree, fw.d),
    }


def _assert_same_spectrum(op, pts):
    dense = op.dense(pts)
    reduced = op.reduced(pts)
    assert reduced.shape[1] == dense.shape[1]
    assert reduced.shape[0] <= dense.shape[0]
    assert op.rank(pts) == reference_rank(op, pts)
    if dense.size == 0:
        return
    sd = np.linalg.svd(dense, compute_uv=False)
    sr = np.linalg.svd(reduced, compute_uv=False) if reduced.size else np.zeros(0)
    k = min(sd.size, sr.size)
    bound = SV_RTOL * sd[0]
    assert np.all(np.abs(sd[:k] - sr[:k]) <= bound)
    assert np.all(sd[k:] <= bound) and np.all(sr[k:] <= bound)


@given(frameworks(), st.data())
def test_blocked_rank_matches_dense_rank(fw, data):
    rng = _rng(data.draw)
    for op in _operators(fw, rng).values():
        _assert_same_spectrum(op, fw.points)


@given(frameworks(), st.data())
def test_reduced_is_dense_when_no_block_is_tall(fw, data):
    """With no block taller than wide, every row passes through in row
    order, so ``reduced`` is ``dense`` bit for bit. Distance-only operators
    never have a tall block: each row has a leg of its own."""
    ops = _operators(fw, _rng(data.draw))
    assert _ApexBlocks(ops["distance"]).stacks == []
    for op in ops.values():
        if not _ApexBlocks(op).stacks:
            assert op.reduced(fw.points).tobytes() == op.dense(fw.points).tobytes()


@given(frameworks(), st.data())
def test_rank_tests_match_dense_reference(fw, data):
    rng = _rng(data.draw)
    sub = _subset(rng, full_triple_set(fw.graph))
    req = required_rank(fw.n, fw.d)
    ops = _operators(fw, rng)
    assert is_infinitesimally_rigid(fw) == (reference_rank(ops["distance"], fw.points) == req)
    assert is_infinitesimally_weakly_rigid(fw, full_triple_set(fw.graph)) \
        == (reference_rank(ops["full"], fw.points) == req)
    sub_op = _ConstraintOperator.on_vertices(sub, fw.n, fw.d)
    assert is_infinitesimally_weakly_rigid(fw, sub) == (reference_rank(sub_op, fw.points) == req)
    tree = spanning_tree(fw.graph)
    assert check_iwr_via_spanning_tree(fw, tree, full_triple_set(fw.graph)) \
        == (reference_rank(ops["tree full"], fw.points) == req)


def test_no_rows():
    fw = Framework(Graph(3, ((1, 2), (2, 3))), Configuration(np.eye(3)[:, :2]))
    for op in (_ConstraintOperator.on_vertices(TripleSet(()), 3, 2),
               _ConstraintOperator.on_tree_edges(TripleSet(()), fw.graph, 2)):
        assert op.reduced(fw.points).shape == (0, op.ncols * 2)
        assert op.rank(fw.points) == reference_rank(op, fw.points) == 0
    assert not is_infinitesimally_weakly_rigid(fw, TripleSet(()))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coincident_points_use_the_floor(d):
    """sigma_1 = 0, so the tolerance is 0, no singular value exceeds it and
    the rank is 0."""
    n = d + 3
    graph = Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))
    fw = Framework(graph, Configuration(np.full((n, d), 0.25)))
    ops = _operators(fw, np.random.default_rng(d))
    for op in ops.values():
        assert op.rank(fw.points) == reference_rank(op, fw.points) == 0
        assert not op.reduced(fw.points).any()


def test_vertices_that_are_apex_of_no_row():
    """Path 1-2-3-4-5 with every row at apex 2 or 4: vertices 1, 3 and 5 own
    no block, and vertex 3 is a leg of both."""
    graph = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
    t = TripleSet(((2, 1, 1), (2, 3, 3), (2, 1, 3), (4, 3, 3), (4, 5, 5), (4, 3, 5)))
    rng = np.random.default_rng(30)
    for d in (1, 2, 3):
        pts = rng.uniform(-1.0, 1.0, (5, d))
        for op in (_ConstraintOperator.on_vertices(t, 5, d),
                   _ConstraintOperator.on_tree_edges(t, graph, d)):
            _assert_same_spectrum(op, pts)
        assert is_infinitesimally_weakly_rigid(Framework(graph, Configuration(pts)), t) \
            == (reference_rank(_ConstraintOperator.on_vertices(t, 5, d), pts)
                == required_rank(5, d))


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-10])
def test_near_collinear_stars(eps):
    """Stars whose 2..6 leaves sit within eps of a line through the centre,
    rotated and shifted: the band where decisions sit near the tolerance.
    Blocked and dense decisions agree on every star."""
    rng = np.random.default_rng(int(round(-np.log10(eps))))
    for _ in range(50):
        k = int(rng.integers(2, 7))
        along = rng.uniform(-1.0, 1.0, k)
        along[np.abs(along) < 0.1] += 0.3
        pts = np.zeros((k + 1, 2))
        pts[1:] = np.column_stack([along, eps * rng.uniform(-1.0, 1.0, k)])
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        pts = pts @ rot.T + rng.uniform(-1.0, 1.0, 2)
        fw = Framework(Graph(k + 1, tuple((1, j) for j in range(2, k + 2))), Configuration(pts))
        for op in _operators(fw, rng).values():
            _assert_same_spectrum(op, pts)


def test_tolerance_uses_the_logical_shape():
    """A 30-leaf star within 1e-7 of a line: R_w is 465 x 62 but reduces to
    92 x 62, and 28 singular values lie between the tolerances of the two
    shapes. The rank counts them as zero, as the dense test does."""
    k = 30
    along = np.linspace(0.2, 1.0, k) * np.where(np.arange(k) % 2, 1.0, -1.0)
    pts = np.zeros((k + 1, 2))
    pts[1:] = np.column_stack([along, 1e-7 * np.linspace(-1.0, 1.0, k) ** 3])
    graph = Graph(k + 1, tuple((1, j) for j in range(2, k + 2)))
    op = _ConstraintOperator.on_vertices(full_triple_set(graph), k + 1, 2)
    reduced = op.reduced(pts)
    sv = np.linalg.svd(reduced, compute_uv=False)
    between = (sv > 1e-10 * sv[0] * max(reduced.shape)) & (sv <= 1e-10 * sv[0] * op.s)
    assert reduced.shape == (92, 62) and op.s == 465 and between.sum() == 28
    assert op.rank(pts) == reference_rank(op, pts) == 31
