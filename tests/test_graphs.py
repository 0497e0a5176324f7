import numpy as np
import pytest

from helpers import (
    csr_neighbors,
    random_connected_graph,
    reference_incidence,
    reference_spanning_tree,
)
from weakrig import DomainError, Graph, InputError, is_connected, spanning_tree


def random_graphs(seed, count):
    """Connected graphs, and graphs with independent edges that are often
    disconnected or edgeless."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(1, 13))
        if trial % 2:
            yield random_connected_graph(rng, n, extra_prob=float(rng.uniform(0.0, 0.6)))
        else:
            p = float(rng.choice([0.0, 0.15, 0.4]))
            yield Graph(n, tuple((i, j) for i in range(1, n + 1)
                                 for j in range(i + 1, n + 1) if rng.random() < p))


class TestGraphValidation:
    def test_canonical_storage(self):
        g = Graph(4, ((3, 1), (2, 4), (1, 2)))
        assert g.edges == ((1, 2), (1, 3), (2, 4))
        assert g.m == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Graph(3, ((1, 1),))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(InputError):
            Graph(3, ((1, 4),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            Graph(3, ((1, 2), (2, 1)))

    def test_bad_vertex_count(self):
        with pytest.raises(InputError):
            Graph(0, ())

    @pytest.mark.parametrize("edges, message", [
        (((1, 2.7), (2, 3)), "edge (1, 2.7) has a non-integer label"),
        (((1, 2), (2.0, 3)), "edge (2.0, 3) has a non-integer label"),
        ([[1, 2], ["2", 3]], "edge ('2', 3) has a non-integer label"),
        (np.array([[1.0, 2.0]]), "edge (np.float64(1.0), np.float64(2.0)) has a non-integer label"),
        (((1, 5), (1, 2.5)), "edge (1,5) has an endpoint outside 1..3"),
    ])
    def test_non_integer_label_rejected(self, edges, message):
        """A label is read by operator.index, never truncated; an earlier bad
        edge is still reported first."""
        with pytest.raises(InputError) as err:
            Graph(3, edges)
        assert str(err.value) == message

    def test_integer_labels_of_any_kind_accepted(self):
        expected = ((1, 2), (2, 3))
        for edges in (((True, 2), (np.int8(3), 2)), np.array([[2, 1], [3, 2]], dtype=np.int32)):
            g = Graph(3, edges)
            assert g.edges == expected
            assert all(type(v) is int for e in g.edges for v in e)
            assert g._keys.dtype == np.int64 and g._ends[0].dtype == np.int64
        # keys are formed in int64 whatever the input's width
        assert Graph(300, np.array([[127, 120]], dtype=np.int8))._keys.tolist() == [119 * 300 + 126]


class TestNeighbors:
    """The adjacency lists of the graph's CSR table."""

    def test_hexagon_vertex_one(self, hexagon_graph):
        assert csr_neighbors(hexagon_graph, 1) == [2, 6]

    def test_single_edge(self):
        assert csr_neighbors(Graph(2, ((1, 2),)), 1) == [2]

    def test_star_center(self):
        g = Graph(6, tuple((1, j) for j in range(2, 7)))
        assert csr_neighbors(g, 1) == [2, 3, 4, 5, 6]

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            for i in range(1, g.n + 1):
                for j in csr_neighbors(g, i):
                    assert i in csr_neighbors(g, j)


class TestIsConnected:
    def test_hexagon(self, hexagon_graph):
        assert is_connected(hexagon_graph)

    def test_two_components(self):
        assert not is_connected(Graph(4, ((1, 2), (3, 4))))

    def test_singleton(self):
        assert is_connected(Graph(1, ()))

    def test_agrees_with_incidence_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            g = random_connected_graph(rng, n)
            if rng.random() < 0.5 and g.m > 0:
                # drop a cut-ish subset of edges to sometimes disconnect
                keep = [e for e in g.edges if rng.random() < 0.6]
                g = Graph(n, tuple(keep))
            rank = np.linalg.matrix_rank(reference_incidence(g)) if g.m else 0
            assert is_connected(g) == (rank == n - 1)


class TestIncidence:
    def test_single_edge(self):
        h = reference_incidence(Graph(2, ((1, 2),)))
        assert h.shape == (1, 2)
        assert np.array_equal(h, [[-1.0, 1.0]])

    def test_row_structure(self, hexagon_graph):
        h = reference_incidence(hexagon_graph)
        assert h.shape == (5, 6)
        for row in h:
            assert np.sum(row == 1.0) == 1
            assert np.sum(row == -1.0) == 1
            assert np.sum(row == 0.0) == len(row) - 2

    def test_hexagon_rank(self, hexagon_graph):
        assert np.linalg.matrix_rank(reference_incidence(hexagon_graph)) == 5

    def test_disconnected_rank(self):
        assert np.linalg.matrix_rank(reference_incidence(Graph(4, ((1, 2), (3, 4))))) == 2

    def test_matches_reference_loop(self):
        """The 0-based end arrays the library reads give the per-edge loop's
        incidence matrix: row per canonical edge, -1 at i and +1 at j."""
        for g in random_graphs(24, 60):
            h = np.zeros((g.m, g.n))
            h[np.arange(g.m)[:, None], np.stack(g._ends, axis=1)] = (-1.0, 1.0)
            assert np.array_equal(h, reference_incidence(g))

    def test_rank_counts_components(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            parts = int(rng.integers(1, 4))
            sizes = [int(rng.integers(2, 5)) for _ in range(parts)]
            edges = []
            offset = 0
            for size in sizes:
                block = random_connected_graph(rng, size)
                edges += [(i + offset, j + offset) for i, j in block.edges]
                offset += size
            g = Graph(offset, tuple(edges))
            assert np.linalg.matrix_rank(reference_incidence(g)) == offset - parts


class TestSpanningTree:
    def test_idempotent_on_trees(self, hexagon_graph):
        assert spanning_tree(hexagon_graph) == hexagon_graph

    def test_three_cycle_bfs_order(self):
        g = Graph(3, ((1, 2), (2, 3), (1, 3)))
        assert spanning_tree(g).edges == ((1, 2), (1, 3))

    def test_disconnected_raises(self):
        with pytest.raises(DomainError):
            spanning_tree(Graph(4, ((1, 2), (3, 4))))

    def test_tree_shape_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            t = spanning_tree(g)
            assert t.m == g.n - 1
            assert is_connected(t)
            assert set(t.edges) <= set(g.edges)

    def test_matches_reference_bfs(self):
        for g in random_graphs(6, 60):
            connected, tree_edges = reference_spanning_tree(g)
            assert is_connected(g) == connected
            if connected:
                assert spanning_tree(g).edges == tree_edges
            else:
                with pytest.raises(DomainError):
                    spanning_tree(g)
