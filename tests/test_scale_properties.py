"""Property tests: every verdict is the same for a framework and for its copy
scaled by 2^k, k in [-40, 40]. Such a scaling is exact in floating point and
every tolerance is relative, with no absolute floor, so nothing may change:
the graphical test, the rank tests, the tree and the 2n-3 set, shape
recovery, congruence, the stability classifier and the gain search. The
collinearity verdicts (graphical test, tree, 2n-3 set) hold still over
k in [-1000, 1000], near both ends of the float range, and stay those of
small integer vectors scaled to subnormal maxima; the full-span
test (``numerical_rank`` of the centered points) holds still over
k in [-600, 600].
At its own witness, at any such scale, each closed loop is at an exact
equilibrium: the residuals and the velocity are zero. A simulation scaled by
2^k, with its step, horizon and stop cost rescaled to match, is the same run
scaled, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import DESIGNED_GAIN_DIAGS, HEXAGON_EDGES, HEXAGON_POINTS  # noqa: E402
from helpers import random_connected_graph, same_gain_bits, spans_full_dimension  # noqa: E402
from weakrig import (  # noqa: E402
    Configuration,
    ControlEvaluator,
    ControllerSpec,
    DomainError,
    FormationTarget,
    Framework,
    GainMatrix,
    Graph,
    are_collinear,
    check_iwr_via_spanning_tree,
    classify_stability,
    congruent,
    edge_vector_matrix,
    full_triple_set,
    gain_search,
    is_infinitesimally_rigid,
    is_infinitesimally_weakly_rigid,
    jacobian_at_target,
    Law,
    SimulationConfig,
    integrate,
    min_iwr_spanning_tree,
    minimal_triple_set,
    recover_shape,
    spanning_tree,
    weakly_congruent,
)
from weakrig.triples import _graphical_defects  # noqa: E402

exponents = st.integers(-40, 40)


@st.composite
def frameworks(draw):
    """A connected graph on 3..9 vertices in R^2 or R^3, with generic points
    or points within 1e-9 or 1e-6 of a line, where collinearity and rank sit
    near their tolerances."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([2, 2, 3]))
    n = draw(st.integers(3, 9))
    graph = random_connected_graph(rng, n, extra_prob=draw(st.sampled_from([0.0, 0.3, 1.0])))
    thickness = draw(st.sampled_from([None, 1e-9, 1e-6]))
    if thickness is None:
        pts = rng.uniform(-1.0, 1.0, (n, d))
    else:
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        pts = np.outer(rng.uniform(-1.0, 1.0, n), direction) + thickness * rng.normal(size=(n, d))
    return Framework(graph, Configuration(pts))


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


def _recovery(g, fw):
    """Whether ``recover_shape`` accepts ``g``, or the type of its error: the
    error texts quote the scaled gap."""
    try:
        recover_shape(g, fw.graph, fw.d)
        return "realized"
    except DomainError as exc:
        return type(exc).__name__


def _tree_and_set(f):
    tree = min_iwr_spanning_tree(f)
    return tree.edges, minimal_triple_set(tree, f.config).triples


def _static_verdicts(fw, s, moved, broken):
    """Every static verdict on fw scaled by s. ``moved`` is a copy of fw's
    points to test congruence against; ``broken`` is fw's edge-vector matrix
    with one vector moved off its cycle, or None."""
    f = Framework(fw.graph, Configuration(s * fw.points))
    full = full_triple_set(fw.graph)
    e = s * edge_vector_matrix(fw)
    q = Configuration(s * moved)
    return (
        _outcome(_graphical_defects, f),
        _outcome(is_infinitesimally_rigid, f),
        _outcome(is_infinitesimally_weakly_rigid, f, full),
        _outcome(check_iwr_via_spanning_tree, f, spanning_tree(fw.graph), full),
        _outcome(_tree_and_set, f),
        _recovery(e.T @ e, f),
        None if broken is None else _recovery((s * broken).T @ (s * broken), f),
        congruent(f.config, q),
        weakly_congruent(f.config, q),
    )


@settings(max_examples=60)
@given(frameworks(), exponents, st.sampled_from([0.0, 1e-9, 4e-9, 1e-2]), st.data())
def test_static_verdicts_are_scale_free(fw, k, kick, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    moved = fw.points.copy()
    moved[int(rng.integers(fw.n))] += kick * rng.normal(size=fw.d)
    tree = set(spanning_tree(fw.graph).edges)
    off_tree = [c for c, edge in enumerate(fw.graph.edges) if edge not in tree]
    broken = None
    if off_tree:
        broken = edge_vector_matrix(fw).copy()
        broken[:, off_tree[0]] += 1e-2 * rng.normal(size=fw.d)
    assert _static_verdicts(fw, 2.0**k, moved, broken) == _static_verdicts(fw, 1.0, moved, broken)


def _collinearity_verdicts(fw, s):
    f = Framework(fw.graph, Configuration(s * fw.points))
    return _outcome(_graphical_defects, f), _outcome(_tree_and_set, f)


@settings(max_examples=60)
@given(frameworks(), st.integers(-1000, 1000))
def test_collinearity_verdicts_are_scale_free_over_the_float_range(fw, k):
    assert _collinearity_verdicts(fw, 2.0**k) == _collinearity_verdicts(fw, 1.0)


def _spans(fw, s):
    return spans_full_dimension(Configuration(s * fw.points))


@settings(max_examples=60)
@given(frameworks(), st.integers(-600, 600))
def test_full_span_is_scale_free(fw, k):
    assert _spans(fw, 2.0**k) == _spans(fw, 1.0)


@pytest.mark.parametrize("k", [-30, -20, 20, 34])
def test_full_span_holds_for_scaled_generic_points(k):
    """Ranking [1 | P], whose column of ones does not scale, read these six
    points as spanning at 2^+-20 but not at 2^34 or 2^-30."""
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 2))
    assert spans_full_dimension(Configuration(2.0**k * pts))


@pytest.mark.parametrize("length", [1e-170, 1e160])
def test_collinearity_at_the_ends_of_the_float_range(length):
    """sqrt(u.u) underflows at length 1e-170, where perpendicular vectors
    used to read collinear, and overflows at 1e160, where the test used to
    raise an overflow warning."""
    e1, e2 = np.array([length, 0.0]), np.array([0.0, length])
    assert not are_collinear(e1, e2)
    assert are_collinear(e1, -3.0 * e1)
    right_angle = Framework(Graph(3, ((1, 2), (1, 3))),
                            Configuration(length * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    assert _graphical_defects(right_angle) == []


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(-1074, -1000), st.integers(-1074, -1000), st.data())
def test_collinearity_with_subnormal_maxima(d, k, j, data):
    """Integer vectors below 2^20 scaled by 2^k and 2^j, down to 2^-1074, are
    exact, and their largest entries are subnormal from 2^-1042 down: each
    pair, alone or in the stack, gets the verdict of the integers."""
    ints = st.lists(st.integers(-2**20, 2**20), min_size=d, max_size=d)
    pairs = np.array(data.draw(st.lists(st.tuples(ints, ints), min_size=1, max_size=8)), dtype=float)
    u, v = pairs[:, 0], pairs[:, 1]
    expected = are_collinear(u, v).tolist()
    su, sv = 2.0**k * u, 2.0**j * v
    assert are_collinear(su, sv).tolist() == expected
    assert [are_collinear(a, b) for a, b in zip(su, sv)] == expected


def _hexagon_target(s):
    return FormationTarget(Graph(6, HEXAGON_EDGES), full_triple_set(Graph(6, HEXAGON_EDGES)),
                           Configuration(s * HEXAGON_POINTS))


@settings(max_examples=20)
@given(exponents)
def test_stability_verdicts_are_scale_free(k):
    designed = GainMatrix(tuple(np.diag(v) for v in DESIGNED_GAIN_DIAGS))
    for gain, verdict in ((designed, "Stable"), (GainMatrix.identity(6, 2), "Unstable")):
        rep = classify_stability(jacobian_at_target(_hexagon_target(2.0**k), gain), 2)
        assert rep.verdict.value == verdict


@settings(max_examples=20)
@given(exponents, st.integers(0, 10**6))
def test_first_stabilizing_gain_is_scale_free(k, seed):
    assert same_gain_bits(gain_search(_hexagon_target(1.0), 250, seed),
                          gain_search(_hexagon_target(2.0**k), 250, seed))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]), st.integers(-30, 30))
def test_witness_is_an_exact_equilibrium(seed, d, k):
    """The target values and the closed loop take their dot products with one
    kernel, so at the witness every residual, and both laws' velocity under a
    random full gain, is exactly zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    graph = random_connected_graph(rng, n, extra_prob=0.5)
    witness = Configuration(rng.uniform(-1.0, 1.0, (n, d)) * 2.0**k)
    tgt = FormationTarget(graph, full_triple_set(graph), witness)
    gain = GainMatrix(rng.uniform(-1.5, 1.5, (n, d, d)))
    for spec in (ControllerSpec(Law.GRADIENT, tgt), ControllerSpec(Law.NONGRADIENT, tgt, gain)):
        ev = ControlEvaluator(spec)
        assert not ev.residuals(witness.points).any()
        assert not ev.velocity(witness.points).any()


@settings(max_examples=20)
@given(st.integers(-3, 3), st.integers(0, 2**32 - 1), st.sampled_from(list(Law)),
       st.sampled_from([0.0, 1e-2]))
def test_simulation_is_scale_covariant(k, seed, law, stop_cost):
    """Either law's field is homogeneous of degree 3 in the points, so scaling
    the witness and the start by 2^k, h and t_max by 4^-k and stop_cost by
    16^k gives positions times 2^k, times times 4^-k and costs times 16^k,
    bit for bit: every rescaling is by a power of two."""
    designed = GainMatrix(tuple(np.diag(v) for v in DESIGNED_GAIN_DIAGS))
    start = HEXAGON_POINTS + np.random.default_rng(seed).uniform(-0.1, 0.1, HEXAGON_POINTS.shape)

    def run(s):
        spec = ControllerSpec(law, _hexagon_target(s), designed if law is Law.NONGRADIENT else None)
        return integrate(SimulationConfig(Configuration(s * start), spec, h=0.01 / s**2,
                                          t_max=1.0 / s**2, record_every=5,
                                          stop_cost=stop_cost * s**4))

    s = 2.0**k
    base, scaled = run(1.0), run(s)
    assert (scaled.termination, scaled.steps) == (base.termination, base.steps)
    assert scaled.positions.tobytes() == (s * base.positions).tobytes()
    assert scaled.times.tobytes() == (base.times / s**2).tobytes()
    assert scaled.cost.tobytes() == (s**4 * base.cost).tobytes()
