import tracemalloc

import numpy as np
import pytest

from conftest import NOT_REAL_INPUTS, REAL_INPUTS
from helpers import (
    fd_jacobian,
    from_stacked,
    random_connected_graph,
    random_framework,
    random_triple_subset,
    reference_edge_weak_rigidity_matrix,
    reference_incidence,
    reference_rigidity_matrix,
    reference_trivial_motion_basis,
    reference_weak_rigidity_matrix,
    rel_err,
    spans_full_dimension,
    stacked,
)
from weakrig import (
    Configuration,
    DomainError,
    Framework,
    Graph,
    InputError,
    TripleSet,
    UnsupportedRegimeError,
    check_iwr_via_spanning_tree,
    distance_triple,
    edge_weak_rigidity_matrix,
    edm,
    full_triple_set,
    is_infinitesimally_rigid,
    is_infinitesimally_weakly_rigid,
    numerical_rank,
    required_rank,
    restrict_triples_to_tree,
    rigidity_matrix,
    spanning_tree,
    weak_rigidity_function,
    weak_rigidity_matrix,
)
from weakrig.framework import _ConstraintOperator

RIGHT_TRIANGLE = Framework(
    Graph(3, ((1, 2), (1, 3), (2, 3))),
    Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
)


class TestConfiguration:
    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            Configuration(np.array([[0.0, np.inf]]))

    @pytest.mark.parametrize("points", [np.array([[1 + 2j, 0], [0, 1]]),
                                        [[1.0, 0.0], [0.0, 1j]]])
    def test_rejects_complex(self, points):
        """The imaginary part is never dropped in a cast to float."""
        with pytest.raises(InputError, match="points must be real"):
            Configuration(points)

    @pytest.mark.parametrize("points", REAL_INPUTS)
    def test_reads_every_real_kind_as_float(self, points):
        got = Configuration(points).points
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(points, dtype=float).tobytes()

    @pytest.mark.parametrize("points", [*NOT_REAL_INPUTS, None, "12", object()])
    def test_refuses_every_other_kind(self, points):
        """A string, None, an object or a complex number is never cast."""
        with pytest.raises(InputError) as exc:
            Configuration(points)
        assert str(exc.value) == "points must be real"

    @pytest.mark.parametrize("points, message", [
        ([[0, 0], [1, 0], [0]], "point 3 [0] is not shaped like point 1"),
        ([[0], [1, 0], [0, 1]], "point 2 [1, 0] is not shaped like point 1"),
        ([[], [1, 0]], "point 2 [1, 0] is not shaped like point 1"),
        ([[0, 0], [1, 0], 5], "point 3 5 is not shaped like point 1"),
        ([[0, [0]], [1, 0, 2]], "point 2 [1, 0, 2] is not shaped like point 1"),
        ((np.zeros(2), [1.0, 0.0, 2.0]), "point 2 [1.0, 0.0, 2.0] is not shaped like point 1"),
        # rows alike but an entry is itself a sequence: not a real number
        ([[0, 0], [1, [0, 1]]], "points must be real"),
    ])
    def test_ragged_rows_name_the_first_malformed_row(self, points, message):
        with pytest.raises(InputError) as exc:
            Configuration(points)
        assert str(exc.value) == message

    def test_rejects_flat_vector(self):
        with pytest.raises(InputError):
            Configuration(np.arange(4.0))

    def test_stacked_roundtrip(self):
        c = Configuration(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(from_stacked(stacked(c), 2).points, c.points)

    def test_immutable(self):
        c = Configuration(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            c.points[0, 0] = 1.0

    def test_framework_size_mismatch(self):
        with pytest.raises(InputError):
            Framework(Graph(3, ((1, 2),)), Configuration(np.zeros((2, 2))))


class TestTripleSet:
    def test_unordered_legs_rejected(self):
        with pytest.raises(InputError):
            TripleSet(((1, 3, 2),))

    def test_apex_equal_leg_rejected(self):
        with pytest.raises(InputError):
            TripleSet(((1, 1, 2),))

    def test_duplicate_angle_rejected(self):
        with pytest.raises(InputError):
            TripleSet(((1, 2, 3), (1, 2, 3)))

    def test_duplicate_distance_both_orientations_rejected(self):
        with pytest.raises(InputError):
            TripleSet(((2, 1, 1), (1, 2, 2)))

    @pytest.mark.parametrize("triples, label", [
        (((2**70, 1, 1),), 2**70),
        (((2, 1, 1), (1, -2**63 - 1, 2)), -2**63 - 1),
        (np.array([[2, 1, 1], [2**63 + 1, 1, 1]], dtype=np.uint64), 2**63 + 1),
    ])
    def test_label_outside_int64_rejected(self, triples, label):
        with pytest.raises(InputError, match=f"triple .*{label}.* outside the int64 range"):
            TripleSet(triples)

    def test_earlier_bad_triple_wins_over_a_label_out_of_range(self):
        for triples in (((1, 3, 2), (2**64, 1, 1)),
                        np.array([[1, 3, 2], [2**64 - 1, 1, 1]], dtype=np.uint64)):
            with pytest.raises(InputError, match=r"triple \(1,3,2\) must have legs ordered"):
                TripleSet(triples)

    @pytest.mark.parametrize("triples, message", [
        (((2, 1.5, 3),), "triple (2, 1.5, 3) has a non-integer label"),
        ([[2, 1, 1], [1, "2", 3]], "triple (1, '2', 3) has a non-integer label"),
        (((2, 1, 1), (1, 3, 2), (1, 2, None)), "triple (1,3,2) must have legs ordered j <= k"),
        (np.array([[2, 1, 1], [1, 2, 3]], dtype=float),
         "triple (np.float64(2.0), np.float64(1.0), np.float64(1.0)) has a non-integer label"),
    ])
    def test_non_integer_label_rejected(self, triples, message):
        """A label is read by operator.index, never truncated; an earlier bad
        triple is still reported first."""
        with pytest.raises(InputError) as err:
            TripleSet(triples)
        assert str(err.value) == message

    def test_noncanonical_distance_allowed(self):
        ts = TripleSet(((1, 3, 3),))
        assert ts.triples == ((1, 3, 3),)

    def test_integer_array_accepted(self):
        arr = np.array([[2, 1, 1], [1, 2, 3]], dtype=np.int32)
        ts = TripleSet(arr)
        arr[0, 0] = 9  # the set keeps its own copy
        assert ts.triples == ((2, 1, 1), (1, 2, 3))
        assert all(type(v) is int for t in ts.triples for v in t)
        assert ts == TripleSet(((2, 1, 1), (1, 2, 3)))
        assert hash(ts) == hash(TripleSet([[2, 1, 1], [1, 2, 3]]))
        assert ts != TripleSet(((1, 2, 3), (2, 1, 1)))
        assert TripleSet(np.zeros((0, 3), dtype=int)) == TripleSet(())

    @pytest.mark.parametrize("triples, message", [
        (((1, 2, 3), (1, 1, 2), (1, 3, 2)), "triple (1,1,2) apex equals a leg"),
        (((1, 3, 2), (1, 1, 2)), "triple (1,3,2) must have legs ordered j <= k"),
        (((2, 2, 1),), "triple (2,2,1) must have legs ordered j <= k"),
        (((2, 1, 1), (3, 1, 2), (1, 2, 2), (1, 1, 2)), "duplicate constraint (1,2,2)"),
        (((1, 2, 3), (1, 3, 2), (2, 1)), "triple (1,3,2) must have legs ordered j <= k"),
        (((1, 2, 3), (2, 1)), "triple (2, 1) is not an (i, j, k) triple"),
    ])
    def test_error_names_first_failing_triple(self, triples, message):
        for given_as in (triples, np.array(triples, dtype=object)):
            with pytest.raises(InputError) as err:
                TripleSet(given_as)
            assert str(err.value) == message
        if all(len(t) == 3 for t in triples):
            with pytest.raises(InputError) as err:
                TripleSet(np.array(triples))
            assert str(err.value) == message

    def test_immutable(self):
        ts = TripleSet(((1, 2, 3),))
        with pytest.raises(AttributeError):
            ts.triples = ()
        assert not ts._arr.flags.writeable

    def test_distance_triple_canonical_form(self):
        assert distance_triple(1, 2) == (2, 1, 1)
        assert distance_triple(5, 3) == (5, 3, 3)


def squared_edge_lengths(fw):
    """Squared edge lengths in canonical edge order: the weak rigidity
    function on one distance triple per edge."""
    return weak_rigidity_function(
        fw, TripleSet(tuple(distance_triple(i, j) for i, j in fw.graph.edges)))


class TestRigidityFunction:
    def test_hexagon_side_lengths(self, hexagon_framework):
        assert np.allclose(squared_edge_lengths(hexagon_framework), 4.0, atol=1e-12)

    def test_coincident_points(self):
        fw = Framework(Graph(2, ((1, 2),)),
                       Configuration(np.array([[1.0, 2.0], [1.0, 2.0]])))
        assert squared_edge_lengths(fw) == pytest.approx([0.0])

    def test_three_four_five(self):
        fw = Framework(Graph(2, ((1, 2),)),
                       Configuration(np.array([[0.0, 0.0], [3.0, 4.0]])))
        assert squared_edge_lengths(fw) == pytest.approx([25.0])


class TestWeakRigidityFunction:
    def test_hexagon_angle_component(self, hexagon_framework):
        val = weak_rigidity_function(hexagon_framework, TripleSet(((1, 2, 6),)))
        assert val == pytest.approx([-2.0])

    def test_hexagon_distance_component(self, hexagon_framework):
        val = weak_rigidity_function(hexagon_framework, TripleSet(((2, 1, 1),)))
        assert val == pytest.approx([4.0])

    def test_orthogonal_legs(self):
        val = weak_rigidity_function(RIGHT_TRIANGLE, TripleSet(((1, 2, 3),)))
        assert val == pytest.approx([0.0])

    def test_non_edge_triple_rejected(self):
        fw = Framework(Graph(3, ((1, 2),)), Configuration(np.zeros((3, 2)) + np.arange(3)[:, None]))
        with pytest.raises(InputError):
            weak_rigidity_function(fw, TripleSet(((1, 2, 3),)))

    def test_distance_components_match_rigidity_function(self):
        """Distance triples give the squared edge lengths that ``edm`` lists."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            fw = random_framework(rng, 6, 2)
            lengths = [edm(fw.config)[i - 1, j - 1] for i, j in fw.graph.edges]
            assert np.array_equal(squared_edge_lengths(fw), lengths)


class TestRigidityMatrix:
    def test_single_edge_row(self):
        fw = Framework(Graph(2, ((1, 2),)),
                       Configuration(np.array([[0.0, 0.0], [1.0, 0.0]])))
        assert np.array_equal(rigidity_matrix(fw), [[-2.0, 0.0, 2.0, 0.0]])

    def test_hexagon_rank(self, hexagon_framework):
        assert np.linalg.matrix_rank(rigidity_matrix(hexagon_framework)) == 5

    def test_edgeless_graph_gives_float_rows(self):
        r = rigidity_matrix(Framework(Graph(3, ()), Configuration(np.eye(3)[:, :2])))
        assert r.shape == (0, 6) and r.dtype == np.float64

    def test_triangle_rank(self):
        assert np.linalg.matrix_rank(rigidity_matrix(RIGHT_TRIANGLE)) == 3

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            fw = random_framework(rng, 5, 2 + trial % 2)

            def func(x, g=fw.graph, d=fw.d):
                return squared_edge_lengths(Framework(g, from_stacked(x, d)))

            fd = fd_jacobian(func, stacked(fw.config))
            assert rel_err(rigidity_matrix(fw), fd) < 1e-6
            assert np.array_equal(rigidity_matrix(fw), reference_rigidity_matrix(fw))


class TestWeakRigidityMatrix:
    def test_distance_rows_equal_rigidity_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            fw = random_framework(rng, 6, 3)
            ts = TripleSet(tuple(distance_triple(i, j) for i, j in fw.graph.edges))
            assert np.array_equal(weak_rigidity_matrix(fw, ts), rigidity_matrix(fw))
            assert np.array_equal(weak_rigidity_matrix(fw, ts),
                                  reference_weak_rigidity_matrix(fw, ts))

    def test_no_triples_gives_float_rows(self):
        rw = weak_rigidity_matrix(RIGHT_TRIANGLE, TripleSet(()))
        assert rw.shape == (0, 6) and rw.dtype == np.float64

    def test_hexagon_full_rank(self, hexagon_framework, hexagon_triples):
        rw = weak_rigidity_matrix(hexagon_framework, hexagon_triples)
        assert np.linalg.matrix_rank(rw) == 9

    def test_angle_row_blocks(self):
        row = weak_rigidity_matrix(RIGHT_TRIANGLE, TripleSet(((1, 2, 3),)))[0]
        assert row == pytest.approx([-1.0, -1.0, 0.0, 1.0, 1.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            fw = random_framework(rng, 6, 2 + trial % 2)
            ts = random_triple_subset(rng, fw.graph)

            def func(x, g=fw.graph, d=fw.d, t=ts):
                return weak_rigidity_function(Framework(g, from_stacked(x, d)), t)

            fd = fd_jacobian(func, stacked(fw.config))
            assert rel_err(weak_rigidity_matrix(fw, ts), fd) < 1e-6
            assert np.array_equal(weak_rigidity_matrix(fw, ts),
                                  reference_weak_rigidity_matrix(fw, ts))


class TestEdgeMatrix:
    def test_hexagon_rank(self, hexagon_framework, hexagon_triples):
        tree = spanning_tree(hexagon_framework.graph)
        re = edge_weak_rigidity_matrix(hexagon_framework, tree, hexagon_triples)
        assert re.shape == (9, 10)
        assert np.linalg.matrix_rank(re) == 9

    def test_collinear_star_rank_deficient(self, collinear_star):
        tree = spanning_tree(collinear_star.graph)
        re = edge_weak_rigidity_matrix(
            collinear_star, tree, full_triple_set(collinear_star.graph))
        assert np.linalg.matrix_rank(re) < 3

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            fw = random_framework(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            tree = spanning_tree(fw.graph)
            ts = random_triple_subset(rng, fw.graph)
            kept = restrict_triples_to_tree(tree, ts)
            re = edge_weak_rigidity_matrix(fw, tree, ts)
            h_bar = np.kron(reference_incidence(tree), np.eye(fw.d))
            rw = weak_rigidity_matrix(fw, kept)
            assert np.max(np.abs(re @ h_bar - rw)) < 1e-12 * max(1.0, np.max(np.abs(rw)))
            assert np.array_equal(re, reference_edge_weak_rigidity_matrix(fw, tree, ts))
            dist = TripleSet(tuple(distance_triple(i, j) for i, j in fw.graph.edges))
            assert np.array_equal(edge_weak_rigidity_matrix(fw, tree, dist),
                                  reference_edge_weak_rigidity_matrix(fw, tree, dist))

    def test_non_spanning_tree_rejected(self, hexagon_framework):
        not_spanning = Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)))
        with pytest.raises(DomainError):
            edge_weak_rigidity_matrix(hexagon_framework, not_spanning,
                                      full_triple_set(hexagon_framework.graph))


class TestTrivialMotionBasis:
    def test_annihilated_by_weak_matrix(self, hexagon_framework, hexagon_triples):
        basis = reference_trivial_motion_basis(hexagon_framework.config)
        rw = weak_rigidity_matrix(hexagon_framework, hexagon_triples)
        assert np.max(np.abs(rw @ basis)) < 1e-10 * max(1.0, np.max(np.abs(rw)))

    def test_annihilation_property(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            fw = random_framework(rng, int(rng.integers(d + 1, 8)), d)
            ts = random_triple_subset(rng, fw.graph)
            basis = reference_trivial_motion_basis(fw.config)
            rw = weak_rigidity_matrix(fw, ts)
            assert np.max(np.abs(rw @ basis)) < 1e-10 * max(1.0, np.max(np.abs(rw)))


class TestRankTests:
    def test_triangle_rigid(self):
        assert is_infinitesimally_rigid(RIGHT_TRIANGLE)

    def test_hexagon_not_rigid(self, hexagon_framework):
        assert not is_infinitesimally_rigid(hexagon_framework)

    def test_collinear_points_not_rigid(self):
        pts = np.column_stack([np.arange(4.0), np.zeros(4)])
        fw = Framework(Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
                       Configuration(pts))
        assert not is_infinitesimally_rigid(fw)

    def test_too_few_points_rejected(self):
        fw = Framework(Graph(2, ((1, 2),)),
                       Configuration(np.array([[0.0, 0.0], [1.0, 0.0]])))
        with pytest.raises(UnsupportedRegimeError):
            is_infinitesimally_rigid(fw)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_points_rejected_by_every_rank_test(self, n):
        fw = Framework(Graph(n, ((1, 2),) if n == 2 else ()),
                       Configuration(np.array([[0.0, 0.0], [1.0, 0.0]])[:n]))
        full = full_triple_set(fw.graph)
        for test in (lambda: is_infinitesimally_rigid(fw),
                     lambda: is_infinitesimally_weakly_rigid(fw, full),
                     lambda: check_iwr_via_spanning_tree(fw, spanning_tree(fw.graph), full)):
            with pytest.raises(UnsupportedRegimeError):
                test()

    def test_hexagon_weakly_rigid(self, hexagon_framework, hexagon_triples):
        assert is_infinitesimally_weakly_rigid(hexagon_framework, hexagon_triples)

    def test_fourcycle_weakly_rigid_in_3d(self, fourcycle_3d):
        graph, ts = fourcycle_3d
        rng = np.random.default_rng(10)
        for _ in range(5):
            fw = Framework(graph, Configuration(rng.uniform(-1, 1, (4, 3))))
            assert is_infinitesimally_weakly_rigid(fw, ts)
            assert np.linalg.matrix_rank(weak_rigidity_matrix(fw, ts)) == 6

    def test_collinear_star_not_weakly_rigid(self, collinear_star):
        assert not is_infinitesimally_weakly_rigid(
            collinear_star, full_triple_set(collinear_star.graph))

    def test_rigidity_implies_weak_rigidity(self):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(20):
            n = int(rng.integers(3, 7))
            complete = Graph(n, tuple((i, j) for i in range(1, n + 1)
                                      for j in range(i + 1, n + 1)))
            fw = random_framework(rng, n, 2, graph=complete)
            if is_infinitesimally_rigid(fw):
                hits += 1
                ts = TripleSet(tuple(distance_triple(i, j) for i, j in fw.graph.edges))
                assert is_infinitesimally_weakly_rigid(fw, ts)
        assert hits > 0

    def test_rank_tests_form_no_dense_matrix(self, monkeypatch):
        rng = np.random.default_rng(16)
        cases = [random_framework(rng, int(rng.integers(d + 1, 9)), d)
                 for d in (1, 2, 3) for _ in range(3)]

        def decisions():
            return [(is_infinitesimally_rigid(fw),
                     is_infinitesimally_weakly_rigid(fw, full_triple_set(fw.graph)),
                     check_iwr_via_spanning_tree(fw, spanning_tree(fw.graph),
                                                 full_triple_set(fw.graph)))
                    for fw in cases]

        def refuse(op, pts):
            raise AssertionError("dense constraint matrix formed")

        expected = [(numerical_rank(rigidity_matrix(fw)) == required_rank(fw.n, fw.d),
                     numerical_rank(weak_rigidity_matrix(fw, full_triple_set(fw.graph)))
                     == required_rank(fw.n, fw.d),
                     numerical_rank(edge_weak_rigidity_matrix(
                         fw, spanning_tree(fw.graph), full_triple_set(fw.graph)))
                     == required_rank(fw.n, fw.d)) for fw in cases]
        monkeypatch.setattr(_ConstraintOperator, "dense", refuse)
        assert decisions() == expected

    def test_weak_rank_memory_is_bounded(self):
        """Dense n=70, s = 18,183: R_w alone would take s*n*d*8 = 20.4 MB, and
        the rank test peaked at 25.0 MB while it formed R_w. Holding the
        operator, the cells and vectors of its slots and the reduced matrix,
        it peaks at 9.6 MB, below half of R_w."""
        rng = np.random.default_rng(17)
        fw = random_framework(rng, 70, 2, graph=random_connected_graph(rng, 70, 0.3))
        full = full_triple_set(fw.graph)
        dense_bytes = full.s * fw.n * fw.d * 8
        tracemalloc.start()
        try:
            assert is_infinitesimally_weakly_rigid(fw, full)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2

    def test_rank_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            fw = random_framework(rng, int(rng.integers(d + 1, 8)), d)
            rw = weak_rigidity_matrix(fw, full_triple_set(fw.graph))
            assert np.linalg.matrix_rank(rw) <= required_rank(fw.n, fw.d)


class TestSpanningTreeCheck:
    def test_hexagon_sufficient(self, hexagon_framework, hexagon_triples):
        tree = spanning_tree(hexagon_framework.graph)
        assert check_iwr_via_spanning_tree(hexagon_framework, tree, hexagon_triples)

    def test_path_3d_insufficient(self, path_3d):
        graph, ts = path_3d
        rng = np.random.default_rng(14)
        fw = Framework(graph, Configuration(rng.uniform(-1, 1, (4, 3))))
        assert not check_iwr_via_spanning_tree(fw, graph, ts)

    def test_fourcycle_trees_inconclusive(self, fourcycle_3d):
        # The sufficient test fails on every spanning tree of the 4-cycle even
        # though the full framework is infinitesimally weakly rigid in R^3.
        graph, ts = fourcycle_3d
        rng = np.random.default_rng(15)
        fw = Framework(graph, Configuration(rng.uniform(-1, 1, (4, 3))))
        assert is_infinitesimally_weakly_rigid(fw, ts)
        from itertools import combinations
        trees = []
        for keep in combinations(graph.edges, 3):
            candidate = Graph(4, keep)
            from weakrig import is_connected
            if is_connected(candidate):
                trees.append(candidate)
        assert len(trees) == 4
        for tree in trees:
            assert not check_iwr_via_spanning_tree(fw, tree, ts)


class TestPointsSpanFullDimension:
    """The filter that criterion 7 and the shape round trip apply."""

    def test_hexagon(self, hexagon_config):
        assert spans_full_dimension(hexagon_config)

    def test_collinear(self):
        pts = np.column_stack([np.arange(3.0), np.zeros(3)])
        assert not spans_full_dimension(Configuration(pts))

    def test_simplex(self):
        pts = np.vstack([np.zeros(3), np.eye(3)])
        assert spans_full_dimension(Configuration(pts))
