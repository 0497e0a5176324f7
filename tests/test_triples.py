import numpy as np
import pytest

from conftest import BORDERLINE_STAR_POINTS, STAR_EDGES, STAR_POINTS
from helpers import random_connected_graph, random_framework
from weakrig import (
    Configuration,
    ConstructionError,
    DomainError,
    Framework,
    Graph,
    NoValidExtensionError,
    UnsupportedDimensionError,
    check_planar_graphical_condition,
    collinearity_defects,
    edge_weak_rigidity_matrix,
    full_triple_set,
    is_infinitesimally_weakly_rigid,
    min_iwr_spanning_tree,
    minimal_triple_set,
    weak_rigidity_matrix,
)


class TestFullTripleSet:
    def test_single_edge(self):
        assert full_triple_set(Graph(2, ((1, 2),))).triples == ((2, 1, 1),)

    def test_triangle_count(self):
        ts = full_triple_set(Graph(3, ((1, 2), (1, 3), (2, 3))))
        assert ts.s == 6
        assert sum(1 for i, j, k in ts.triples if j == k) == 3

    def test_hexagon_matches_published_list(self, hexagon_graph):
        ts = full_triple_set(hexagon_graph)
        expected = {(1, 2, 6), (2, 1, 3), (3, 2, 4), (4, 3, 5),
                    (2, 1, 1), (3, 2, 2), (4, 3, 3), (5, 4, 4), (6, 1, 1)}
        assert set(ts.triples) == expected
        assert ts.triples == tuple(sorted(expected))


class TestGraphicalCondition:
    def test_hexagon_holds(self, hexagon_framework):
        assert check_planar_graphical_condition(hexagon_framework)

    def test_collinear_star_fails(self, collinear_star):
        assert not check_planar_graphical_condition(collinear_star)
        assert collinearity_defects(collinear_star) == [1]

    def test_disconnected_fails(self):
        fw = Framework(Graph(4, ((1, 2), (3, 4))),
                       Configuration(np.array([[0., 0.], [1., 0.], [0., 1.], [1., 1.]])))
        assert not check_planar_graphical_condition(fw)

    def test_three_dimensional_rejected(self):
        fw = Framework(Graph(3, ((1, 2), (1, 3))),
                       Configuration(np.eye(3)))
        with pytest.raises(UnsupportedDimensionError):
            check_planar_graphical_condition(fw)

    def test_too_few_vertices_rejected(self):
        fw = Framework(Graph(2, ((1, 2),)),
                       Configuration(np.array([[0., 0.], [1., 0.]])))
        with pytest.raises(DomainError):
            check_planar_graphical_condition(fw)

    def test_matches_rank_test_on_generic_configurations(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            g = random_connected_graph(rng, n)
            if rng.random() < 0.3 and g.m > n - 1:
                g = Graph(n, g.edges[:-1])  # sometimes disconnect
            fw = Framework(g, Configuration(rng.uniform(-1, 1, (n, 2))))
            graphical = check_planar_graphical_condition(fw)
            rank_based = is_infinitesimally_weakly_rigid(fw, full_triple_set(g))
            assert graphical == rank_based

    def test_sufficient_on_engineered_collinear_configurations(self):
        # Collinearity makes the condition-true => rigid direction the one
        # worth stressing; the converse can fail (see the braced-vertex test).
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            g = random_connected_graph(rng, n)
            pts = rng.uniform(-1, 1, (n, 2))
            direction = rng.uniform(-1, 1, 2)
            for v in range(1, n):
                if rng.random() < 0.5:
                    pts[v] = pts[0] + rng.uniform(-1, 1) * direction
            fw = Framework(g, Configuration(pts))
            if check_planar_graphical_condition(fw):
                assert is_infinitesimally_weakly_rigid(fw, full_triple_set(g))

    def test_braced_collinear_vertex_can_still_be_rigid(self):
        # Vertex 1 sees only collinear edges, yet angle constraints at its
        # neighbors pin the perpendicular motion: the rank test certifies
        # infinitesimal weak rigidity although the graphical test fails.
        # The graphical verdict is therefore sufficient, not necessary, on
        # special configurations like this one.
        g = Graph(5, ((1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)))
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [0.5, -1.5], [-1.0, 0.0]])
        fw = Framework(g, Configuration(pts))
        assert collinearity_defects(fw) == [1]
        assert not check_planar_graphical_condition(fw)
        assert is_infinitesimally_weakly_rigid(fw, full_triple_set(g))


class TestMinIwrSpanningTree:
    def test_hexagon_returns_itself(self, hexagon_framework):
        assert min_iwr_spanning_tree(hexagon_framework) == hexagon_framework.graph

    def test_triangle_deterministic_tree(self):
        fw = Framework(Graph(3, ((1, 2), (1, 3), (2, 3))),
                       Configuration(np.array([[0., 0.], [1., 0.], [0., 1.]])))
        tree = min_iwr_spanning_tree(fw)
        assert tree.edges == ((1, 2), (1, 3))
        re = edge_weak_rigidity_matrix(fw, tree, full_triple_set(tree))
        assert np.linalg.matrix_rank(re) == 3

    def test_star_returns_itself(self):
        fw = Framework(Graph(6, STAR_EDGES), Configuration(STAR_POINTS))
        assert min_iwr_spanning_tree(fw) == fw.graph

    def test_borderline_star_agrees_with_the_graphical_test(self):
        """A star the graphical test accepts at the collinearity threshold
        also extends to a tree, under either labelling of its leaves."""
        for pts in (BORDERLINE_STAR_POINTS, BORDERLINE_STAR_POINTS[[0, 2, 1]]):
            fw = Framework(Graph(3, ((1, 2), (1, 3))), Configuration(pts))
            assert check_planar_graphical_condition(fw)
            tree = min_iwr_spanning_tree(fw)
            assert tree == fw.graph
            assert minimal_triple_set(tree, fw.config).triples == ((2, 1, 1), (3, 1, 1), (1, 2, 3))

    def test_collinear_star_has_no_extension(self, collinear_star):
        with pytest.raises(NoValidExtensionError):
            min_iwr_spanning_tree(collinear_star)

    def test_three_dimensional_rejected(self):
        fw = Framework(Graph(3, ((1, 2), (1, 3))), Configuration(np.eye(3)))
        with pytest.raises(UnsupportedDimensionError):
            min_iwr_spanning_tree(fw)


class TestGenericRigidityProbe:
    """Weak rigidity is generic: configurations with i.i.d. uniform [-1, 1]
    coordinates (trial seeds seed + trial index) all get the same answer
    under the full triple set."""

    @staticmethod
    def iwr_count(g, d, trials, seed):
        full = full_triple_set(g)
        return sum(
            is_infinitesimally_weakly_rigid(
                Framework(g, Configuration(
                    np.random.default_rng(seed + trial).uniform(-1.0, 1.0, (g.n, d)))),
                full)
            for trial in range(trials))

    def test_connected_planar_graph_always_rigid(self):
        g = Graph(4, ((1, 2), (2, 3), (3, 4)))
        assert self.iwr_count(g, 2, trials=20, seed=101) == 20

    def test_disconnected_graph_never_rigid(self):
        g = Graph(4, ((1, 2), (3, 4)))
        assert self.iwr_count(g, 2, trials=10, seed=5) == 0

    def test_fourcycle_generically_rigid_in_3d(self, fourcycle_3d):
        graph, _ = fourcycle_3d
        assert self.iwr_count(graph, 3, trials=20, seed=17) == 20


class TestMinimalTripleSet:
    def test_hexagon_reproduces_published_set(self, hexagon_framework, hexagon_triples):
        tree = min_iwr_spanning_tree(hexagon_framework)
        ts = minimal_triple_set(tree, hexagon_framework.config)
        assert ts.s == 9
        assert set(ts.triples) == set(hexagon_triples.triples)
        rw = weak_rigidity_matrix(hexagon_framework, ts)
        assert np.linalg.matrix_rank(rw) == 9

    def test_star_with_collinear_arms(self):
        # Neighbors 5 and 6 sit on the line through the center and neighbor 2,
        # so the construction pairs them with the smallest off-line neighbor.
        config = Configuration(STAR_POINTS)
        tree = Graph(6, STAR_EDGES)
        ts = minimal_triple_set(tree, config)
        assert ts.s == 9
        angles = {t for t in ts.triples if t[1] != t[2]}
        assert angles == {(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 3, 6)}
        fw = Framework(tree, config)
        assert np.linalg.matrix_rank(weak_rigidity_matrix(fw, ts)) == 9

    def test_three_vertex_path(self):
        tree = Graph(3, ((1, 2), (2, 3)))
        config = Configuration(np.array([[0., 0.], [1., 0.], [1., 1.]]))
        ts = minimal_triple_set(tree, config)
        assert set(ts.triples) == {(2, 1, 1), (3, 2, 2), (2, 1, 3)}

    def test_collinear_tree_rejected(self):
        tree = Graph(3, ((1, 2), (2, 3)))
        config = Configuration(np.array([[0., 0.], [1., 0.], [2., 0.]]))
        with pytest.raises(ConstructionError):
            minimal_triple_set(tree, config)

    def test_cardinality_and_rank_on_random_frameworks(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            fw = random_framework(rng, n, 2)
            assert check_planar_graphical_condition(fw)
            tree = min_iwr_spanning_tree(fw)
            ts = minimal_triple_set(tree, fw.config)
            assert ts.s == 2 * n - 3
            rank = np.linalg.matrix_rank(weak_rigidity_matrix(fw, ts))
            assert rank == 2 * n - 3

    def test_deterministic(self, hexagon_framework):
        t1 = minimal_triple_set(min_iwr_spanning_tree(hexagon_framework),
                                hexagon_framework.config)
        t2 = minimal_triple_set(min_iwr_spanning_tree(hexagon_framework),
                                hexagon_framework.config)
        assert t1 == t2
