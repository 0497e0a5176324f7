"""Property tests: the apex-blocked rank of R_w against the dense reference
``numerical_rank(op.dense(pts))`` in helpers.py, on generated connected graphs
in d = 1, 2, 3 (full, subset, distance and spanning-tree sets), plus the edge
cases the tolerance and the apex blocks meet: no rows, coincident points,
vertices that are apex of no row, and stars whose leaves sit within
1e-7..1e-10 of a line. Also R_w of a closed set against the rigidity matrix
of its derived graph, and the certificate's route through that graph."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    derived_graph,
    derived_matrix,
    random_connected_graph,
    reference_rank,
    sparse_planar_framework,
)
from weakrig import (  # noqa: E402
    Configuration,
    ConstructionError,
    ControlEvaluator,
    ControllerSpec,
    FormationTarget,
    Framework,
    Graph,
    Law,
    NoValidExtensionError,
    TripleSet,
    build_formation_triples,
    check_iwr_via_spanning_tree,
    edge_weak_rigidity_matrix,
    full_triple_set,
    is_infinitesimally_rigid,
    is_infinitesimally_weakly_rigid,
    min_iwr_spanning_tree,
    minimal_triple_set,
    numerical_rank,
    required_rank,
    restrict_triples_to_tree,
    rigidity_matrix,
    spanning_tree,
    weak_rigidity_function,
    weak_rigidity_matrix,
)
from weakrig.framework import _ConstraintOperator, _derived, _distance_triples  # noqa: E402
from weakrig.linalg import _rank_of  # noqa: E402

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
    """R_w on the full set, a subset, the distance triples, and the triples of
    the full set and the subset in the BFS spanning tree."""
    full = full_triple_set(fw.graph)
    sub = _subset(rng, full)
    tree = spanning_tree(fw.graph)
    sets = {"full": full, "subset": sub, "distance": _distance_triples(fw.graph),
            "tree full": restrict_triples_to_tree(tree, full),
            "tree subset": restrict_triples_to_tree(tree, sub)}
    return {name: _ConstraintOperator.on_vertices(t, fw.n, fw.d) for name, t in sets.items()}


def _svd_rank(op, pts):
    """The SVD rule on ``reduced``, without the certificate."""
    sv = np.linalg.svd(op.reduced(pts), compute_uv=False)
    return int(_rank_of(sv, (op.s, op.ncols * op.d)))


def _certified(op, pts):
    return op._certifies(pts, required_rank(op.ncols, op.d))


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
    """With no block taller than wide, ``reduced`` is ``dense`` with its rows
    grouped by apex, in apex order and row order within an apex, bit for
    bit. Distance-only operators never have a tall block: each row has a leg
    of its own."""
    ops = _operators(fw, _rng(data.draw))
    assert _tall_apexes(ops["distance"]) == 0
    for op in ops.values():
        if _tall_apexes(op) == 0:
            by_apex = op.dense(fw.points)[np.argsort(op._apex, kind="stable")]
            assert op.reduced(fw.points).tobytes() == by_apex.tobytes()


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
    tree_iwr = check_iwr_via_spanning_tree(fw, tree, full_triple_set(fw.graph))
    assert tree_iwr == (reference_rank(ops["tree full"], fw.points) == req)
    # the rows are J_T (H_T kron I_d), so the tree-edge Jacobian has their rank
    assert tree_iwr == (numerical_rank(
        edge_weak_rigidity_matrix(fw, tree, full_triple_set(fw.graph))) == req)


def _blocks(op):
    """{apex: (rows, sorted leg columns)}, counted slot by slot; the apex's
    own column is left out: the legs fix it."""
    rows, cols = {}, {}
    for r, c in zip(op._row.tolist(), op._col.tolist()):
        apex = int(op._apex[r])
        rows.setdefault(apex, set()).add(r)
        if c != apex:
            cols.setdefault(apex, set()).add(c)
    return {a: (sorted(rows[a]), sorted(cols.get(a, ()))) for a in sorted(rows)}


def _tall_apexes(op):
    """Apexes whose rows outnumber d times their legs, counted row by row."""
    return sum(len(rows) > op.d * len(cols) for rows, cols in _blocks(op).values())


def _reduced_rows(op):
    """Rows passing through plus d times the width of each tall block."""
    return sum(min(len(rows), op.d * len(cols)) for rows, cols in _blocks(op).values())


def _qr_calls(op, pts):
    calls = []
    qr = np.linalg.qr
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", lambda *args, **kw: calls.append(1) or qr(*args, **kw))
        op.reduced(pts)
    return len(calls)


@given(frameworks(), st.data())
def test_one_qr_per_tall_apex(fw, data):
    for name, op in _operators(fw, _rng(data.draw)).items():
        assert _qr_calls(op, fw.points) == _tall_apexes(op)
        if name == "distance":
            assert _tall_apexes(op) == 0


def _assert_block_layout(op, pts):
    """``reduced`` holds the apex blocks in apex order. A tall block leaves d
    rows per leg, zero outside its columns, each with minus its leg sum in
    the apex columns; any other block leaves the rows of ``dense`` at that
    apex, in row order, bit for bit."""
    d, reduced, dense = op.d, op.reduced(pts), op.dense(pts)
    top = 0
    for apex, (rows, cols) in _blocks(op).items():
        if len(rows) > d * len(cols):
            band = reduced[top:top + d * len(cols)]
            at = (np.array(cols)[:, None] * d + np.arange(d)).ravel()
            # in C order, the order ``reduced`` sums in
            legs = np.ascontiguousarray(band[:, at]).reshape(len(band), len(cols), d)
            assert np.array_equal(band[:, apex * d:apex * d + d], -legs.sum(axis=1))
            band[:, np.r_[at, apex * d:apex * d + d]] = 0.0
            assert not band.any()
        else:
            band = reduced[top:top + len(rows)]
            assert band.tobytes() == dense[rows].tobytes()
        top += len(band)
    assert top == reduced.shape[0] == _reduced_rows(op)


@given(frameworks(), st.data())
def test_vertex_blocks_reduce_on_their_leg_columns(fw, data):
    """On R_w over vertex columns every row sums to zero over its column
    blocks, so each block is summed on its leg columns: a tall block's R
    factor leaves d rows per leg, the other blocks keep ``dense``'s rows,
    and the singular values are those of ``dense``."""
    ops = _operators(fw, _rng(data.draw))
    for op in (ops["full"], ops["subset"]):
        _assert_block_layout(op, fw.points)
        _assert_same_spectrum(op, fw.points)


def _declined_planar_framework(rng, n):
    """A random recursive tree on n - 2 vertices plus n/4 extra edges, so
    leaves and hubs of degree 4 and more both occur, then a path of two
    vertices hung on it in line: the last vertex can turn about its
    neighbour, so no triple set on this graph has the required rank."""
    edges = {(int(rng.integers(1, v)), v) for v in range(2, n - 1)}
    while len(edges) < n - 3 + n // 4:
        i, j = sorted(rng.choice(np.arange(1, n - 1), 2, replace=False).tolist())
        edges.add((i, j))
    edges |= {(n - 2, n - 1), (n - 1, n)}
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    pts[n - 1] = 2.0 * pts[n - 2] - pts[n - 3]
    return Framework(Graph(n, tuple(sorted(edges))), Configuration(pts))


@pytest.mark.parametrize("seed, n", [(60, 60), (100, 100), (150, 150)])
def test_declined_frameworks_at_scale(seed, n):
    """Past the sizes ``frameworks()`` draws: on the full set, the distance
    set and a random subset the certificate declines, the SVD rank of
    ``reduced`` is that of ``dense``, its rows number Σ min(h, d·legs), one
    QR runs per tall apex and the other blocks keep ``dense``'s rows."""
    rng = np.random.default_rng(seed)
    fw = _declined_planar_framework(rng, n)
    full = full_triple_set(fw.graph)
    tall = 0
    for t in (full, _distance_triples(fw.graph), _subset(rng, full)):
        op = _ConstraintOperator.on_vertices(t, n, 2)
        assert not _certified(op, fw.points)
        assert op.rank(fw.points) == numerical_rank(op.dense(fw.points)) < required_rank(n, 2)
        assert _qr_calls(op, fw.points) == _tall_apexes(op)
        _assert_block_layout(op, fw.points)
        tall += _tall_apexes(op)
    assert tall > 0


def test_qr_calls_on_fixtures(hexagon_framework, hexagon_triples):
    """The hexagon's sets have no tall apex, so they take no QR; the centre
    of a 30-leaf star is the one tall apex of its full set."""
    fw = hexagon_framework
    tree = spanning_tree(fw.graph)
    tdag = minimal_triple_set(min_iwr_spanning_tree(fw), fw.config)
    for t in (_distance_triples(fw.graph), hexagon_triples, tdag,
              restrict_triples_to_tree(tree, hexagon_triples)):
        assert _qr_calls(_ConstraintOperator.on_vertices(t, fw.n, fw.d), fw.points) == 0
    star = Graph(31, tuple((1, j) for j in range(2, 32)))
    pts = np.random.default_rng(31).uniform(-1.0, 1.0, (31, 2))
    assert _qr_calls(_ConstraintOperator.on_vertices(full_triple_set(star), 31, 2), pts) == 1


def test_no_rows():
    fw = Framework(Graph(3, ((1, 2), (2, 3))), Configuration(np.eye(3)[:, :2]))
    op = _ConstraintOperator.on_vertices(TripleSet(()), 3, 2)
    assert op.reduced(fw.points).shape == (0, 6)
    assert op.rank(fw.points) == reference_rank(op, fw.points) == 0
    assert not is_infinitesimally_weakly_rigid(fw, TripleSet(()))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coincident_points_use_the_floor(d):
    """sigma_1 = 0, so the tolerance is 0, no singular value exceeds it and
    the rank is 0. R_w = 0 leaves the certificate nothing to prove."""
    n = d + 3
    graph = Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))
    fw = Framework(graph, Configuration(np.full((n, d), 0.25)))
    ops = _operators(fw, np.random.default_rng(d))
    for op in ops.values():
        assert op.rank(fw.points) == reference_rank(op, fw.points) == 0
        assert not op.reduced(fw.points).any()
        assert not _certified(op, fw.points)


def test_vertices_that_are_apex_of_no_row():
    """Path 1-2-3-4-5 with every row at apex 2 or 4: vertices 1, 3 and 5 own
    no block, and vertex 3 is a leg of both."""
    graph = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
    t = TripleSet(((2, 1, 1), (2, 3, 3), (2, 1, 3), (4, 3, 3), (4, 5, 5), (4, 3, 5)))
    rng = np.random.default_rng(30)
    for d in (1, 2, 3):
        pts = rng.uniform(-1.0, 1.0, (5, d))
        op = _ConstraintOperator.on_vertices(t, 5, d)
        _assert_same_spectrum(op, pts)
        assert is_infinitesimally_weakly_rigid(Framework(graph, Configuration(pts)), t) \
            == (reference_rank(op, pts) == required_rank(5, d))


def _near_collinear_star(rng, eps):
    """A star whose 2..6 leaves sit within eps of a line through the centre,
    rotated and shifted."""
    k = int(rng.integers(2, 7))
    along = rng.uniform(-1.0, 1.0, k)
    along[np.abs(along) < 0.1] += 0.3
    pts = np.zeros((k + 1, 2))
    pts[1:] = np.column_stack([along, eps * rng.uniform(-1.0, 1.0, k)])
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    pts = pts @ rot.T + rng.uniform(-1.0, 1.0, 2)
    return Framework(Graph(k + 1, tuple((1, j) for j in range(2, k + 2))), Configuration(pts))


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-10])
def test_near_collinear_stars(eps):
    """Near-collinear stars: the band where decisions sit near the tolerance.
    Blocked and dense decisions agree on every star."""
    rng = np.random.default_rng(int(round(-np.log10(eps))))
    for _ in range(50):
        fw = _near_collinear_star(rng, eps)
        for op in _operators(fw, rng).values():
            _assert_same_spectrum(op, fw.points)


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-10])
def test_tree_test_is_the_weak_test_on_the_tree_triples(eps):
    """On near-collinear stars the spanning-tree test decides exactly as the
    weak test on the same rows, the triples inside the tree."""
    rng = np.random.default_rng(int(round(-np.log10(eps))))
    for _ in range(300):
        fw = _near_collinear_star(rng, eps)
        full, tree = full_triple_set(fw.graph), spanning_tree(fw.graph)
        assert check_iwr_via_spanning_tree(fw, tree, full) \
            == is_infinitesimally_weakly_rigid(fw, restrict_triples_to_tree(tree, full))


def test_tolerance_uses_the_logical_shape():
    """A 30-leaf star within 1e-7 of a line: R_w is 465 x 62 but reduces to
    90 x 62, and 28 singular values lie between the tolerances of the two
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
    assert reduced.shape == (90, 62) and op.s == 465 and between.sum() == 28
    assert op.rank(pts) == reference_rank(op, pts) == 31


@st.composite
def certificate_inputs(draw):
    """Connected graphs on d+1..12 vertices, d = 1..3, with generic points,
    small-integer grids, points within 1e-5..1e-11 of a line, translated by
    1e4..1e9, scaled by 1e±150, or with one point repeated."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 12))
    rng = _rng(draw)
    graph = random_connected_graph(rng, n, draw(st.sampled_from((0.2, 0.5, 1.0))))
    pts = rng.uniform(-1.0, 1.0, (n, d))
    kind = draw(st.sampled_from(("generic", "integer", "near a line", "translated", "scaled",
                                 "repeated")))
    if kind == "integer":
        pts = rng.integers(-3, 4, (n, d)).astype(float)
    elif kind == "near a line":
        line = rng.normal(size=d)
        pts = np.outer(pts[:, 0], line / np.linalg.norm(line)) \
            + 10.0 ** -draw(st.integers(5, 11)) * rng.uniform(-1.0, 1.0, (n, d))
    elif kind == "translated":
        pts += 10.0 ** draw(st.integers(4, 9))
    elif kind == "scaled":
        pts *= 10.0 ** draw(st.sampled_from((-150, 150)))
    elif kind == "repeated":
        pts[1] = pts[0]
    return Framework(graph, Configuration(pts))


@given(certificate_inputs(), st.data())
def test_certified_yes_is_the_svd_rank(fw, data):
    """Whenever the certificate says yes, the SVD rule counts exactly the
    required rank on ``reduced``; either way ``rank`` is the SVD rule's
    answer. On a random half of the full set, and on the closed sets, whose
    certificate may run on their derived graph: the full set, the formation
    set with the graph as sensing graph, and ``tstar``'s set where d = 2."""
    full = full_triple_set(fw.graph)
    half = TripleSet(full._arr[_rng(data.draw).random(full.s) < 0.5])
    for t in (half, build_formation_triples(fw.graph, fw.graph), *_closed_sets(fw).values()):
        op = _ConstraintOperator.on_vertices(t, fw.n, fw.d)
        if _certified(op, fw.points):
            assert _svd_rank(op, fw.points) == required_rank(fw.n, fw.d)
        assert op.rank(fw.points) == _svd_rank(op, fw.points)


def _complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_collinear_points_in_space_decline(n):
    """On a line in R^3 the rotation about the line moves nothing, so the
    trivial motions lose rank and the certificate declines; the SVD answers.
    With n = 2 that rank, 1, exceeds the required 0."""
    pts = np.outer(np.linspace(-1.0, 2.0, n) ** 3, (1.0, 2.0, -0.5)) + (0.3, 0.1, 0.2)
    op = _ConstraintOperator.on_vertices(full_triple_set(_complete_graph(n)), n, 3)
    assert numerical_rank(pts - pts.mean(axis=0)) == 1
    assert not _certified(op, pts)
    assert op.rank(pts) == reference_rank(op, pts) == _svd_rank(op, pts)
    assert (op.rank(pts) > required_rank(n, 3)) == (n == 2)


def _no_svd(*args, **kwargs):
    raise AssertionError("a certified yes takes no SVD")


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_prescale_certifies_far_scales(hexagon_framework, monkeypatch, k):
    """The hexagon scaled by 2^k: one power of two brings its slot vectors
    back to [0.5, 1), so G neither overflows nor underflows."""
    fw = hexagon_framework
    pts = np.ldexp(fw.points, k)
    op = _ConstraintOperator.on_vertices(full_triple_set(fw.graph), fw.n, fw.d)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    assert _certified(op, pts)
    assert op.rank(pts) == required_rank(fw.n, fw.d)


def _hat(t, n):
    """``_derived`` on the rows of triple set ``t``: None unless the
    certificate runs on t's derived graph."""
    op = _ConstraintOperator.on_vertices(t, n, 1)
    return _derived(*op._col.reshape(4, t.s)[[0, 2, 3]], n)


def test_weak_test_takes_no_svd_when_certified(hexagon_framework, monkeypatch):
    """The hexagon's full set, a seeded sparse n = 100 framework (average
    degree about 6) and seeded dense n = 70 and n = 100 frameworks (0.3 of
    all pairs) are decided without an SVD. The dense full sets have 5-9
    times more rows than their derived graph has edges, so the certificate
    runs on that graph."""
    rng = np.random.default_rng(100)
    sparse = Framework(random_connected_graph(rng, 100, 0.04),
                       Configuration(rng.uniform(-1.0, 1.0, (100, 2))))
    dense = [Framework(random_connected_graph(rng, n, 0.3),
                       Configuration(rng.uniform(-1.0, 1.0, (n, 2)))) for n in (70, 100)]
    for fw in dense:
        full = full_triple_set(fw.graph)
        assert _hat(full, fw.n)[0].size * 5 < full.s
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    for fw in (hexagon_framework, sparse, *dense):
        assert is_infinitesimally_weakly_rigid(fw, full_triple_set(fw.graph))


def test_just_below_the_tolerance_is_declined():
    """Vertex 61 on a line hangs on the full set of K_60 by one row, whose
    coefficient p_1 - p_2 = 2^-11 sets σ_req = 0.85 of the tolerance. With
    104,431 rows the tolerance, not the certificate's rounding allowance,
    decides there; the certificate must decline and the SVD say no."""
    n = 61
    core = full_triple_set(_complete_graph(n - 1))
    op = _ConstraintOperator.on_vertices(TripleSet(np.r_[core._arr, [[1, 2, n]]]), n, 1)
    pts = np.linspace(0.0, 1.0, n)[:, None]
    pts[1] = pts[0] + 2.0 ** -11
    sv = np.linalg.svd(op.reduced(pts), compute_uv=False)
    req = required_rank(n, 1)
    assert 0.5 < sv[req - 1] / (op.s * sv[0] * 1e-10) < 1.0
    assert not _certified(op, pts)
    assert op.rank(pts) == _svd_rank(op, pts) == req - 1


def test_just_below_the_tolerance_is_declined_on_the_derived_graph():
    """The full set of K_60 in 1-D plus vertex 61 hung on vertex 1 by one
    distance row is closed, and its derived graph has 1,771 edges against
    104,431 rows, so the certificate runs on that graph. The hanging row's
    length 2^-12 sets σ_req = 0.85 of the tolerance: the certificate must
    decline and the SVD say no."""
    n = 61
    core = full_triple_set(_complete_graph(n - 1))
    t = TripleSet(np.r_[core._arr, [[n, 1, 1]]])
    op = _ConstraintOperator.on_vertices(t, n, 1)
    pts = np.linspace(0.0, 1.0, n)[:, None]
    pts[n - 1] = pts[0] + 2.0 ** -12
    sv = np.linalg.svd(op.reduced(pts), compute_uv=False)
    req = required_rank(n, 1)
    assert _hat(t, n)[0].size == 1771 and op.s == 104431
    assert 0.5 < sv[req - 1] / (op.s * sv[0] * 1e-10) < 1.0
    assert not _certified(op, pts)
    assert op.rank(pts) == _svd_rank(op, pts) == req - 1


def _closed_sets(fw):
    """The full set and, where its tree exists, ``tstar``'s set."""
    sets = {"full": full_triple_set(fw.graph)}
    if fw.d == 2:
        try:
            sets["tstar"] = minimal_triple_set(min_iwr_spanning_tree(fw), fw.config)
        except (NoValidExtensionError, ConstructionError):
            pass
    return sets


def _derived_framework(fw, t):
    """The framework on t's derived graph Ĝ, after checking R_w(t) = A·R(Ĝ)
    to rounding."""
    hat = Framework(Graph(fw.n, derived_graph(t)), fw.config)
    np.testing.assert_allclose(weak_rigidity_matrix(fw, t),
                               derived_matrix(t) @ rigidity_matrix(hat), rtol=0, atol=1e-12)
    return hat


@given(frameworks())
def test_closed_sets_are_distance_constraints_on_the_derived_graph(fw):
    """R_w(T) = A·R(Ĝ) to rounding, by the law of cosines. ``tstar``'s Ĝ has
    one edge per triple: a chord jk of the tree would close a triangle, and
    two apexes of one chord a 4-cycle."""
    for name, t in _closed_sets(fw).items():
        hat = _derived_framework(fw, t)
        if name == "tstar":
            assert hat.graph.m == t.s == 2 * fw.n - 3


def test_derived_graph_has_the_rank_of_the_triple_set():
    """rank R_w(T) = rank R(Ĝ) on seeded generic planar frameworks, for the
    full set and for ``tstar``'s set, whose Ĝ has exactly 2n−3 edges. A has
    full column rank, so the exact ranks always agree, but the two counts
    apply the 1e-10 rule to different matrices, whose singular values A's
    conditioning scales: they may differ near rank-deficient inputs, where
    a singular value sits within a few orders of the tolerance, such as
    stars whose leaves lie within ~1e-8 of a line or nearly coincident
    points."""
    rng = np.random.default_rng(15)
    for n in range(3, 40, 4):
        fw = sparse_planar_framework(rng, n)
        sets = _closed_sets(fw)
        assert set(sets) == {"full", "tstar"}
        for name, t in sets.items():
            hat = _derived_framework(fw, t)
            rank = numerical_rank(weak_rigidity_matrix(fw, t))
            assert rank == numerical_rank(rigidity_matrix(hat)) == required_rank(n, 2)
            assert name == "full" or hat.graph.m == 2 * n - 3


def _sets_of_all_kinds(fw):
    """The distance set and the closed sets: full, formation and ``tstar``."""
    return {"distance": _distance_triples(fw.graph),
            "formation": build_formation_triples(fw.graph, fw.graph), **_closed_sets(fw)}


def _near_power_of_four(ratio):
    """True when ``ratio`` is 4^k, for an integer k, to rounding."""
    k = np.round(np.log(ratio) / np.log(4.0))
    return abs(ratio / 4.0 ** k - 1.0) <= 1e-12


@given(frameworks())
def test_certificate_f_is_the_norm_of_the_dense_matrix(fw):
    """The F of ``_rows`` is ‖R_w‖_F, up to the one power-of-two scaling,
    by either route: on R_w's own rows a distance row's leg blocks fall on
    one vertex and merge into -2e, and on the derived graph F² = Σ w_e|e|²
    by the law of cosines. One edge in 1-D shows the merge: the dense row is
    (2e, -2e), so F² = 8e², where the two leg blocks apart would give 6e²."""
    for t in _sets_of_all_kinds(fw).values():
        op = _ConstraintOperator.on_vertices(t, fw.n, fw.d)
        dense = float(np.square(op.dense(fw.points)).sum())
        for route in ("derived", "own"):
            with pytest.MonkeyPatch.context() as mp:
                if route == "own":
                    mp.setattr("weakrig.framework._derived", lambda *args: None)
                blocks, _, fw2, _, _ = op._rows(fw.points)
            assert (fw2 == dense == 0) or _near_power_of_four(dense / fw2)
            if route == "own":
                assert fw2 == float(np.square(blocks).sum())
    edge = _ConstraintOperator.on_vertices(TripleSet(((2, 1, 1),)), 2, 1)
    assert edge._rows(np.array([[0.0], [0.75]]))[2] == 8 * 0.75 ** 2


@given(frameworks())
def test_derived_bounds_hold(fw):
    """Where ``_derived`` finds Ĝ, its edges are ``derived_graph``'s, fewer
    than the rows, and a_lo <= σ_min(A) <= ‖A‖₂ <= a_hi for A =
    ``derived_matrix``; where it does not, the set is not closed or Ĝ has as
    many edges as the set has rows."""
    for t in _sets_of_all_kinds(fw).values():
        _check_derived(t, fw.n, _hat(t, fw.n))


def _check_derived(t, n, hat):
    edges = derived_graph(t)
    if hat is None:
        assert len(edges) >= t.s
        return
    keys = [(a - 1) * n + b - 1 for a, b in edges]
    assert hat[0].tolist() == keys and len(keys) < t.s
    sv = np.linalg.svd(derived_matrix(t), compute_uv=False)
    assert hat[3] <= sv[-1] and sv[0] <= hat[2]


def test_derived_sorts_the_keys_where_tables_would_be_large(monkeypatch):
    """On a strip of triangles, n = 80 (edges i, i+1 and i, i+2), n² exceeds
    8s: ``_derived`` then counts no key in a table of n² entries, and still
    finds Ĝ (every pair within 4 steps) and bounds that hold. The same checks
    run on sets of all kinds there."""
    n, rng = 80, np.random.default_rng(33)
    graph = Graph(n, tuple((i, i + h) for i in range(1, n + 1) for h in (1, 2) if i + h <= n))
    fw = Framework(graph, Configuration(rng.uniform(-1.0, 1.0, (n, 2))))
    sizes, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, *a, minlength=0, **kw:
                        sizes.append(minlength) or bincount(x, *a, minlength=minlength, **kw))
    for name, t in _sets_of_all_kinds(fw).items():
        assert n * n > 8 * t.s
        hat = _hat(t, n)
        assert sizes and max(sizes) < n * n
        assert (hat is None) == (name in ("distance", "tstar"))
        _check_derived(t, n, hat)
    assert _hat(full_triple_set(graph), n)[0].size == 4 * n - 10


@given(frameworks(), st.data())
def test_closed_set_residuals_and_gradient_law_through_the_derived_graph(fw, data):
    """On the full and ``tstar`` sets, to rounding: (b) the residuals are
    δ_w = A·δ_Ĝ, with δ_Ĝ the squared Ĝ edge lengths less the target's; (c)
    the gradient law's velocity -R_wᵀδ_w is -R(Ĝ)ᵀ(AᵀA)δ_Ĝ, a distance
    gradient flow on Ĝ with the fixed weight AᵀA."""
    witness = Configuration(_rng(data.draw).uniform(-1.0, 1.0, (fw.n, fw.d)))
    for t in _closed_sets(fw).values():
        a, hat = derived_matrix(t), Graph(fw.n, derived_graph(t))
        lengths = [weak_rigidity_function(Framework(hat, c), _distance_triples(hat))
                   for c in (fw.config, witness)]
        delta_hat = lengths[0] - lengths[1]
        target = FormationTarget(fw.graph, t, witness)
        vel, delta = ControlEvaluator(ControllerSpec(Law.GRADIENT, target)) \
            .velocity_and_residuals(fw.points)
        np.testing.assert_allclose(delta, a @ delta_hat, rtol=0, atol=1e-12)
        r_hat = rigidity_matrix(Framework(hat, fw.config))
        np.testing.assert_allclose(vel.ravel(), -r_hat.T @ (a.T @ a @ delta_hat),
                                   rtol=0, atol=1e-11)
