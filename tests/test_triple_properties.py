"""Property tests: the array-built graphs, triple sets, edge lookup,
collinearity test, spanning tree and 2n-3 construction against the per-edge,
per-triple and per-pair reference loops in helpers.py, on generated graphs
with 1..30 vertices (isolated vertices and edgeless graphs included), and on
dense graphs with up to 100 vertices. The stacked dot products behind the
collinearity test and the closed-loop residuals are checked against 1-D
``u @ v`` bit for bit."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from conftest import BORDERLINE_STAR_POINTS  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    csr_neighbors,
    projection_are_collinear,
    reference_adjacency,
    reference_are_collinear,
    reference_bfs,
    reference_build_formation_triples,
    reference_collinearity_defects,
    reference_full_triple_set,
    reference_graph_edges,
    reference_min_iwr_spanning_tree,
    reference_minimal_triple_set,
    reference_require_valid_for,
    reference_restrict_triples_to_tree,
    reference_validate_triples,
)
from weakrig import (  # noqa: E402
    Configuration,
    ConstructionError,
    DomainError,
    Framework,
    Graph,
    InputError,
    NoValidExtensionError,
    TripleSet,
    UnsupportedDimensionError,
    are_collinear,
    build_formation_triples,
    check_planar_graphical_condition,
    collinearity_defects,
    full_triple_set,
    min_iwr_spanning_tree,
    minimal_triple_set,
    restrict_triples_to_tree,
)
from weakrig import triples as triples_module  # noqa: E402
from weakrig.graphs import _bfs  # noqa: E402


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
def spanning_trees(draw, g):
    """Kruskal's forest over ``g``'s edges in random order: a spanning tree
    when ``g`` is connected."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    edges = list(g.edges)
    _rng(draw).shuffle(edges)
    kept = []
    for i, j in edges:
        a, b = find(i - 1), find(j - 1)
        if a != b:
            root[a] = b
            kept.append((i, j))
    return Graph(g.n, tuple(kept))


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


def dense_graph(rng, n, p=0.3):
    """A graph on 1..n with each pair an edge with probability p."""
    return Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                          if rng.random() < p))


@settings(max_examples=15)
@given(st.integers(30, 100), st.integers(0, 2**32 - 1))
def test_dense_full_triple_set_matches_nested_loop(n, seed):
    g = dense_graph(np.random.default_rng(seed), n)
    assert full_triple_set(g).triples == reference_full_triple_set(g)


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


@settings(max_examples=40)
@given(st.integers(12, 100), st.data())
def test_triple_set_matches_reference_validator_on_dense_graphs_and_far_labels(n, data):
    """Relabelled triples: some or all labels moved by about 2**62 (up or
    down), so labels 0..n+1 and the moved ones span more than a key packing
    three of them in int64 can hold, or all sit near 2**62."""
    g = dense_graph(_rng(data.draw), n)
    offset = data.draw(st.sampled_from((0, 2**62 - 64, 2**62, -(2**62))))
    moved = _rng(data.draw).random(n + 2) < data.draw(st.sampled_from((0.5, 1.0)))
    trips = [tuple(v + offset if moved[v] else v for v in t)
             for t in data.draw(triple_lists(g))]
    expected = _outcome(reference_validate_triples, trips)
    array = np.array(trips, dtype=np.int64).reshape(-1, 3)
    for given_as in (trips, array):
        assert _outcome(lambda t: TripleSet(t).triples, given_as) == expected


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


@st.composite
def edge_lists(draw):
    """Edges of a random graph in random order and orientation, with a few
    corruptions inserted: a non-pair, a self-loop, an end outside 1..n (also
    beyond int64), a duplicate in either orientation, an end that is not an
    integer, or an entry that is not a sequence (an int or None)."""
    n = draw(st.integers(1, 15))
    p = draw(st.sampled_from((0.0, 0.2, 0.5, 1.0)))
    rng = _rng(draw)
    edges = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    rng.shuffle(edges)
    pairs = list(edges)  # a duplicate repeats one of these, never a corruption
    kinds = ("pair", "loop", "range", "huge", "duplicate", "type", "scalar")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        v = int(rng.integers(1, n + 1))
        if kind == "pair":
            bad = tuple(range(v, v + int(rng.choice([0, 1, 3]))))
        elif kind == "loop":
            bad = (int(rng.integers(0, n + 2)),) * 2
        elif kind == "range":
            bad = (v, int(rng.choice([0, -1, n + 1, n + 7])))
        elif kind == "huge":
            bad = (v, 10**30) if rng.random() < 0.5 else (-(10**30), -(10**30))
        elif kind == "duplicate" and pairs:
            i, j = pairs[rng.integers(len(pairs))]
            bad = (j, i) if rng.random() < 0.5 else (i, j)
        elif kind == "scalar":
            edges.insert(int(rng.integers(len(edges) + 1)), v if rng.random() < 0.5 else None)
            continue
        else:
            bad = (v, "x") if rng.random() < 0.5 else (None, v)
        edges.insert(int(rng.integers(len(edges) + 1)), bad[::int(rng.choice([-1, 1]))])
    return n, edges


def _error_text(fn, *args):
    """The function's result, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (InputError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@given(edge_lists())
def test_graph_matches_per_edge_loop(case):
    n, edges = case
    got = _error_text(lambda: Graph(n, tuple(edges)).edges)
    assert got == _error_text(reference_graph_edges, n, edges)
    if isinstance(got, tuple):
        g = Graph(n, tuple(edges))
        adj = reference_adjacency(n, got)
        assert [csr_neighbors(g, i) for i in range(1, n + 1)] == [list(a) for a in adj[1:]]
        order, parent = _bfs(g)
        assert (order.tolist(), parent.tolist()) == reference_bfs(g)


MALFORMED = ("float", "string", "width", "scalar", "loop", "range", "duplicate",
             "beyond int64")


@st.composite
def conversion_cases(draw, width):
    """(n, rows, container): the edges (width 2) or admissible triples (width
    3) of a random graph on 1..n, shuffled, with at most one malformed entry
    (a scalar one is an int or None, not a sequence) at a random position,
    and a container that can hold them all: a tuple of tuples, a list of
    lists, a generator, an int64 or uint64 array, or the empty list."""
    n = draw(st.integers(1, 12))
    rng = _rng(draw)
    g = dense_graph(rng, n, p=draw(st.sampled_from((0.0, 0.3, 1.0))))
    rows = list(g.edges if width == 2 else reference_full_triple_set(g))
    rng.shuffle(rows)
    rows = rows[:draw(st.integers(0, len(rows)))]
    kind = draw(st.sampled_from((None, *MALFORMED)))
    base = rows[rng.integers(len(rows))] if rows else tuple(range(1, width + 1))
    v = int(rng.integers(1, n + 1))
    bad = {
        "float": base[:-1] + (base[-1] + float(rng.choice([0.0, 0.5])),),
        "string": (str(base[0]),) + base[1:],
        "width": base + (v,) if rng.random() < 0.5 else base[:-1],
        "scalar": v if rng.random() < 0.5 else None,
        "loop": (v,) * width,
        "range": base[:-1] + (int(rng.choice([0, -1, n + 1])),),
        "duplicate": base[::-1] if width == 2 else base,
        "beyond int64": base[:-1] + (int(rng.choice([2**63, 2**64 - 1, 10**30, -(2**63) - 1])),),
    }.get(kind)
    if kind is not None:
        rows.insert(int(rng.integers(len(rows) + 1)), bad)
    containers = ["tuples", "lists", "generator"]
    if kind not in ("float", "string", "width", "scalar"):
        labels = [x for r in rows for x in r]
        containers += [c for c, lo, hi in (("int64", -(2**63), 2**63), ("uint64", 0, 2**64))
                       if all(lo <= x < hi for x in labels)]
    if not rows:
        containers.append("empty")
    return n, rows, draw(st.sampled_from(containers))


def _contain(rows, container, width):
    """``rows``, tuples and scalars, in ``container``; a scalar stays as it is."""
    if container == "tuples":
        return tuple(rows)
    if container == "lists":
        return [list(r) if isinstance(r, tuple) else r for r in rows]
    if container == "generator":
        return (r for r in rows)
    if container == "empty":
        return []
    return np.array(rows, dtype=np.dtype(container)).reshape(-1, width)


@given(conversion_cases(2))
def test_graph_conversion_routes_agree(case):
    """One numpy conversion, or the per-entry pass for what it cannot type,
    gives the per-edge reference's edges and keys or its error text."""
    n, rows, container = case
    expected = _outcome(reference_graph_edges, n, rows)
    try:
        g = Graph(n, _contain(rows, container, 2))
    except InputError as exc:
        assert f"InputError: {exc}" == expected
        return
    assert g.edges == expected
    assert g._keys.dtype == np.int64
    assert g._keys.tolist() == [(i - 1) * n + j - 1 for i, j in expected]


@given(conversion_cases(3))
def test_triple_set_conversion_routes_agree(case):
    """As for graphs: the per-triple reference's rows or its error text."""
    _, rows, container = case
    expected = _outcome(reference_validate_triples, rows)
    try:
        t = TripleSet(_contain(rows, container, 3))
    except InputError as exc:
        assert f"InputError: {exc}" == expected
        return
    assert t._arr.dtype == np.int64 and t._arr.shape == (len(expected), 3)
    assert t._arr.tolist() == [list(r) for r in expected]


@st.composite
def vector_pairs(draw, d):
    """(k, d) stacks u, v: pairs 1e-10..1e-7 of their length off a common line,
    exactly collinear, generic, or with a zero vector, at scales 1e-3..1e3."""
    k = draw(st.integers(0, 40))
    rng = _rng(draw)
    line = rng.normal(size=(k, d))
    off = rng.normal(size=(k, d))
    kind = rng.integers(0, 4, k)
    eps = np.select([kind == 0, kind == 1], [10.0 ** rng.uniform(-10, -7, k), 0.0], 1.0)
    u = (line * rng.choice([-1.0, 1.0], (k, 1)) + eps[:, None] * off) \
        * 10.0 ** rng.uniform(-3, 3, (k, 1))
    v = line * 10.0 ** rng.uniform(-3, 3, (k, 1))
    u[kind == 3] = 0.0
    v[(kind == 3) & (rng.random(k) < 0.5)] = 0.0
    return (u, v) if rng.random() < 0.5 else (v, u)


@given(st.sampled_from((2, 3)).flatmap(vector_pairs))
def test_stacked_collinearity_matches_scalar(pair):
    u, v = pair
    expected = [reference_are_collinear(a, b) for a, b in zip(u, v)]
    got = are_collinear(u, v)
    assert got.dtype == bool and got.tolist() == expected
    assert [are_collinear(a, b) for a, b in zip(u, v)] == expected
    assert all(type(are_collinear(a, b)) is bool for a, b in zip(u[:2], v[:2]))
    if u.shape[0] % 2 == 0:
        shape = (2, u.shape[0] // 2, u.shape[1])
        assert are_collinear(u.reshape(shape), v.reshape(shape)).ravel().tolist() == expected


@given(st.sampled_from((2, 3)).flatmap(vector_pairs), st.data())
def test_stacked_collinearity_is_per_pair_across_scales(pair, data):
    """Each vector is scaled by its own power of two, so in a stack whose
    magnitudes span 2^±500 every pair is decided as its 1-D call decides it."""
    rng = _rng(data.draw)
    u, v = (np.ldexp(x, rng.integers(-500, 501, (x.shape[0], 1))) for x in pair)
    assert are_collinear(u, v).tolist() == [are_collinear(a, b) for a, b in zip(u, v)]


@given(st.integers(1, 100),
       st.one_of(st.just(()), st.tuples(st.integers(1, 20)),
                 st.tuples(st.integers(1, 6), st.integers(1, 6))), st.data())
def test_stacked_dot_rounds_as_1d_matmul(length, lead, data):
    """``np.vecdot``, the kernel of the constraint values, ``edm`` and the
    closed loop: each dot product over the last axis is the float a 1-D
    ``u @ v`` gives, for any stack shape; the magnitudes span 2^±30 so the
    summation order shows in the last bits."""
    rng = _rng(data.draw)
    u, v = rng.standard_normal((2,) + lead + (length,)) \
        * np.exp2(rng.integers(-30, 31, (2,) + lead + (length,)))
    got = np.vecdot(u, v)
    expected = [a @ b for a, b in zip(u.reshape(-1, length), v.reshape(-1, length))]
    assert np.shape(got) == lead
    assert np.asarray(got).ravel().tobytes() == np.array(expected).tobytes()


def _pairs_at_angles(rng, d, theta):
    """(k, d) stacks u, v at the (k,) angles theta (or pi - theta), with
    lengths 1e-3..1e3."""
    line, off = rng.normal(size=(2, theta.size, d))
    line /= np.linalg.norm(line, axis=1, keepdims=True)
    off -= line * np.sum(off * line, axis=1, keepdims=True)
    off /= np.linalg.norm(off, axis=1, keepdims=True)
    u = line * 10.0 ** rng.uniform(-3, 3, (theta.size, 1))
    v = np.cos(theta)[:, None] * line + np.sin(theta)[:, None] * off
    return u, v * rng.choice([-1.0, 1.0], (theta.size, 1)) * 10.0 ** rng.uniform(-3, 3, (theta.size, 1))


@given(st.sampled_from((2, 3)), st.data())
def test_collinearity_is_symmetric_at_the_threshold(d, data):
    """Swapping the arguments, or negating one, negates each minor exactly,
    so no pair within rounding of the threshold changes its verdict. The
    spanning tree tests a tree edge at both its ends with one of its two
    half-edge vectors."""
    rng = _rng(data.draw)
    u, v = _pairs_at_angles(rng, d, 1e-9 * (1.0 + rng.uniform(-1e-6, 1e-6, 500)))
    got = are_collinear(u, v)
    assert got.tolist() == are_collinear(v, u).tolist() == are_collinear(v, -u).tolist()
    assert [are_collinear(b, a) for a, b in zip(u[:50], v[:50])] == got[:50].tolist()


@pytest.mark.parametrize("scale", [1e-140, 1e-80, 1.0, 1e80, 1e140])
def test_collinearity_keeps_its_verdicts_far_from_unit_length(scale):
    """The minors are combined by hypot, never squared, so a skew pair of
    tiny vectors is not called collinear by underflow."""
    u = np.array([scale, 0.0])
    assert not are_collinear(u, np.array([0.0, scale]))
    assert not are_collinear(u, np.array([scale, 2e-9 * scale]))
    assert are_collinear(u, np.array([-scale, 0.5e-9 * scale]))


@given(st.sampled_from((2, 3)), st.data())
def test_collinearity_matches_exact_integer_cross_product(d, data):
    """Integer vectors with coordinates up to 1000 are collinear exactly
    when their integer cross product is zero: multiples of one vector, pairs
    one unit off such multiples, and generic pairs."""
    rng = _rng(data.draw)
    k = 600
    base = rng.integers(-30, 31, (k, d))
    s, t = rng.integers(-33, 34, (2, k, 1))
    kind = rng.integers(0, 3, k)[:, None]
    u = np.where(kind == 2, rng.integers(-1000, 1001, (k, d)), base * s)
    v = np.where(kind == 2, rng.integers(-1000, 1001, (k, d)),
                 base * t + (kind == 1) * rng.integers(-1, 2, (k, d)))
    a, b = np.triu_indices(d, 1)
    cross = u[:, a] * v[:, b] - u[:, b] * v[:, a]
    assert are_collinear(u.astype(float), v.astype(float)).tolist() \
        == (cross == 0).all(axis=1).tolist()


@given(st.sampled_from((2, 3)), st.data())
def test_minor_rule_matches_projection_rule_off_the_threshold(d, data):
    """At angles 1e-12..1e-6 rad, the minor rule, the projection rule in
    either argument order and sin(theta) <= 1e-9 agree wherever sin(theta) is
    more than 1e-5 (relative) away from the 1e-9 threshold."""
    rng = _rng(data.draw)
    theta = 10.0 ** rng.uniform(-12, -6, 200)
    u, v = _pairs_at_angles(rng, d, theta)
    got = are_collinear(u, v)
    assert got.tolist() == [reference_are_collinear(a, b) for a, b in zip(u, v)]
    far = np.abs(np.sin(theta) / 1e-9 - 1.0) > 1e-5
    assert got[far].tolist() == (np.sin(theta[far]) <= 1e-9).tolist()
    assert [projection_are_collinear(a, b) for a, b in zip(u[far], v[far])] == got[far].tolist()
    assert [projection_are_collinear(b, a) for a, b in zip(u[far], v[far])] == got[far].tolist()


@st.composite
def near_collinear_stars(draw):
    """A star on vertex 1, and maybe edges among the leaves, with the leaves
    1e-10..1e-7 (relative) off one line through the centre at scales
    1e-3..1e3; some leaves coincide with the centre or with each other."""
    n = draw(st.integers(2, 12))
    d = draw(st.sampled_from((2, 3)))
    rng = _rng(draw)
    star = [(1, v) for v in range(2, n + 1) if rng.random() < 0.9]
    extra = [(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.2]
    line, off = rng.normal(size=(2, d))
    t = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0], n)
    eps = rng.choice([0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1.0], n) * rng.uniform(0.5, 2.0, n)
    pts = t[:, None] * line + (eps * np.abs(t))[:, None] * off
    pts[0] = 0.0
    for v in range(1, n):
        if rng.random() < 0.15:
            pts[v] = pts[rng.integers(n)]  # coincident with another point
    pts = pts * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=d)
    return Framework(Graph(n, tuple(star + extra)), Configuration(pts))


@given(near_collinear_stars())
def test_collinearity_defects_match_per_pair_loop(fw):
    assert collinearity_defects(fw) == reference_collinearity_defects(fw)


def test_graphical_test_checks_collinearity_once(monkeypatch):
    calls = []
    stacked = triples_module.are_collinear

    def counted(u, v):
        calls.append(np.shape(u)[0])
        return stacked(u, v)

    monkeypatch.setattr(triples_module, "are_collinear", counted)
    rng = np.random.default_rng(12)
    frameworks = 0
    for n in (3, 8, 20, 40):
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if j == i + 1 or rng.random() < 0.3]
        fw = Framework(Graph(n, tuple(edges)), Configuration(pts))
        pairs = full_triple_set(fw.graph).s - fw.graph.m
        assert check_planar_graphical_condition(fw)
        frameworks += 1
        assert len(calls) == frameworks and calls[-1] == pairs


def _tree_outcome(build, fw):
    """The tree's edges, or the type and text of the error it raises."""
    try:
        return build(fw).edges
    except (NoValidExtensionError, UnsupportedDimensionError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def dense_planar_frameworks(draw):
    """A graph on 2..100 vertices with each pair an edge with probability 0.3
    (or 0.05, often disconnected), at uniform points or at integer points of
    a small grid, where many edges at a vertex are collinear and many points
    coincide."""
    rng = _rng(draw)
    n = draw(st.integers(2, 100))
    g = dense_graph(rng, n, draw(st.sampled_from((0.3, 0.05))))
    grid = draw(st.sampled_from((None, 3, 10)))
    pts = rng.uniform(-1.0, 1.0, (n, 2)) if grid is None else rng.integers(0, grid, (n, 2))
    return Framework(g, Configuration(pts))


@example(Framework(Graph(3, ((1, 2), (1, 3))), Configuration(BORDERLINE_STAR_POINTS)))
@given(st.one_of(near_collinear_stars(), dense_planar_frameworks()))
def test_tree_matches_edge_scan(fw):
    assert _tree_outcome(min_iwr_spanning_tree, fw) \
        == _tree_outcome(reference_min_iwr_spanning_tree, fw)


def test_tree_tests_collinearity_in_stacks(monkeypatch):
    """Skew pairs are decided in a few stacked calls, never pair by pair."""
    calls = []
    stacked = triples_module.are_collinear

    def counted(u, v):
        calls.append(np.shape(u))
        return stacked(u, v)

    monkeypatch.setattr(triples_module, "are_collinear", counted)
    rng = np.random.default_rng(12)
    for n in (8, 20, 40, 100):
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if j == i + 1 or rng.random() < 0.3]
        fw = Framework(Graph(n, tuple(edges)), Configuration(pts))
        calls.clear()
        assert min_iwr_spanning_tree(fw) == reference_min_iwr_spanning_tree(fw)
        assert 0 < len(calls) <= 5 and all(len(shape) == 2 for shape in calls)


def _delaunay_framework(rng, n, grid, drop):
    """The Delaunay triangulation of n uniform points, or of n distinct points
    of an integer grid, with each edge dropped with probability ``drop``."""
    spatial = pytest.importorskip("scipy.spatial")
    if grid:
        side = 2 * int(np.sqrt(n))
        pts = np.stack(np.divmod(rng.choice(side * side, n, replace=False), side), axis=1)
    else:
        pts = rng.uniform(-1.0, 1.0, (n, 2))
    tri = spatial.Delaunay(pts).simplices
    edges = np.unique(np.sort(tri[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1), axis=0)
    return Framework(Graph(n, edges[rng.random(len(edges)) >= drop] + 1), Configuration(pts))


def test_tree_matches_edge_scan_on_delaunay_triangulations():
    """Planar graphs at the scale of a formation: triangulations of 100..400
    points. On the grid many edges at a vertex are collinear, and dropping
    edges makes some trees stall with NoValidExtensionError."""
    rng = np.random.default_rng(32)
    stalls = 0
    for n, grid, drop in itertools.product((100, 250, 400), (False, True), (0.0, 0.15, 0.3)):
        fw = _delaunay_framework(rng, n, grid, drop)
        got = _tree_outcome(min_iwr_spanning_tree, fw)
        assert got == _tree_outcome(reference_min_iwr_spanning_tree, fw)
        stalls += isinstance(got, str)
        if grid:  # some pair of edges at a vertex is collinear
            _, first, second = fw.graph._angle_pairs
            vecs = fw.points[fw.graph._csr[1]] - fw.points[fw.graph._csr[2]]
            assert are_collinear(vecs[first], vecs[second]).any()
    assert 0 < stalls < 18


def test_tree_reads_the_adjacency_alone(monkeypatch):
    """The tree never builds the graph's table of all edge pairs at a vertex."""
    def unread(graph):
        raise AssertionError("min_iwr_spanning_tree read Graph._angle_pairs")

    monkeypatch.setattr(Graph, "_angle_pairs", property(unread))
    rng = np.random.default_rng(5)
    for n in (3, 10, 40):
        for grid in (None, 4):
            pts = rng.uniform(-1.0, 1.0, (n, 2)) if grid is None else rng.integers(0, grid, (n, 2))
            fw = Framework(dense_graph(rng, n, 0.3), Configuration(pts))  # a fresh graph
            assert _tree_outcome(min_iwr_spanning_tree, fw) \
                == _tree_outcome(reference_min_iwr_spanning_tree, fw)


@given(st.one_of(near_collinear_stars(), dense_planar_frameworks()), st.data())
def test_minimal_triple_set_matches_per_vertex_loop(fw, data):
    """On random spanning trees of the framework's graph, so vertices with
    all edges collinear, and splits with several collinear edges, occur; and
    on subgraphs, which both reject unless they are spanning trees."""
    g = data.draw(st.one_of(spanning_trees(fw.graph), subgraphs(fw.graph)))

    def outcome(build):
        try:
            return build(g, fw.config).triples
        except (ConstructionError, DomainError, UnsupportedDimensionError) as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome(minimal_triple_set) == outcome(reference_minimal_triple_set)
