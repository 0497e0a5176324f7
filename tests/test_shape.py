import tracemalloc

import numpy as np
import pytest

from helpers import random_framework, reference_edge_vector_matrix, rigid_transform
from weakrig import (
    Configuration,
    DomainError,
    Framework,
    Graph,
    InputError,
    NotRealizableError,
    align,
    congruent,
    edge_vector_matrix,
    edm,
    gram,
    points_span_full_dimension,
    recover_shape,
    shape_distance,
    weakly_congruent,
)


class TestEdm:
    def test_hexagon_ring_distances(self, hexagon_config):
        d = edm(hexagon_config)
        ring = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
        for i, j in ring:
            assert d[i - 1, j - 1] == pytest.approx(4.0)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_coincident_points(self):
        assert np.array_equal(edm(Configuration(np.ones((3, 2)))), np.zeros((3, 3)))

    def test_translation_invariance(self, hexagon_config):
        shifted = Configuration(hexagon_config.points + np.array([5.0, 7.0]))
        assert np.allclose(edm(shifted), edm(hexagon_config), atol=1e-12)


class TestGram:
    def test_single_edge(self):
        fw = Framework(Graph(2, ((1, 2),)),
                       Configuration(np.array([[0.0, 0.0], [3.0, 0.0]])))
        assert np.array_equal(gram(fw), [[9.0]])

    def test_hexagon_diagonal_and_cross_term(self, hexagon_framework):
        g = gram(hexagon_framework)
        assert np.allclose(np.diag(g), 4.0)
        # edges in canonical order: (1,2) first, (1,6) second;
        # columns e_12 = (-2, 0) and e_16 = (1, -sqrt(3)) give -2
        assert g[0, 1] == pytest.approx(-2.0)

    def test_planar_rank(self, hexagon_framework):
        assert np.linalg.matrix_rank(gram(hexagon_framework)) == 2

    def test_psd_invariants_on_random_frameworks(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            d = int(rng.integers(2, 4))
            fw = random_framework(rng, int(rng.integers(2, 8)), d)
            g = gram(fw)
            assert np.max(np.abs(g - g.T)) <= 1e-12 * max(1.0, np.max(np.abs(g)))
            eig = np.linalg.eigvalsh(g)
            assert eig[0] >= -1e-10 * max(eig[-1], 1.0)
            assert np.linalg.matrix_rank(gram(fw)) <= d

    def test_edge_vectors_match_reference_loop(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            d = 2 + trial % 2
            fw = random_framework(rng, int(rng.integers(1, 10)), d)
            e = reference_edge_vector_matrix(fw)
            assert np.array_equal(edge_vector_matrix(fw), e)
            assert np.array_equal(gram(fw), e.T @ e)


class TestCongruence:
    def test_rigid_transform_is_congruent(self, hexagon_config):
        rng = np.random.default_rng(42)
        moved = rigid_transform(rng, hexagon_config)
        assert congruent(hexagon_config, moved, tol=1e-8)

    def test_reflection_is_congruent(self, hexagon_config):
        flipped = Configuration(hexagon_config.points @ np.diag([-1.0, 1.0]))
        assert congruent(hexagon_config, flipped, tol=1e-8)

    def test_perturbation_breaks_congruence(self, hexagon_config):
        pts = hexagon_config.points.copy()
        pts[0, 0] += 0.1
        assert not congruent(hexagon_config, Configuration(pts), tol=1e-6)

    def test_shape_mismatch_rejected(self, hexagon_config):
        with pytest.raises(InputError):
            congruent(hexagon_config, Configuration(np.zeros((3, 2))))

    def test_weakly_congruent_matches_congruent(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 8))
            p = Configuration(rng.uniform(-1, 1, (n, d)))
            if rng.random() < 0.5:
                q = rigid_transform(rng, p, reflect=bool(rng.random() < 0.5))
            else:
                pts = p.points.copy()
                pts[int(rng.integers(0, n))] += rng.uniform(0.01, 0.5, d)
                q = Configuration(pts)
            assert congruent(p, q) == weakly_congruent(p, q)

    def test_weakly_congruent_matches_full_triple_table(self):
        # reference: the (n, n, n) table of (p_i-p_j)^T (p_i-p_k) built in one piece
        def triple_table(c):
            g = c.points @ c.points.T
            diag = np.diag(g)
            return diag[:, None, None] - g[:, None, :] - g[:, :, None] + g[None, :, :]

        rng = np.random.default_rng(45)
        for trial in range(20):
            d = 2 + trial % 2
            n = int(rng.integers(2, 12))
            p = Configuration(rng.uniform(-1, 1, (n, d)))
            q = (rigid_transform(rng, p) if trial % 2
                 else Configuration(p.points + rng.uniform(-1e-3, 1e-3, (n, d))))
            worst = float(np.max(np.abs(triple_table(p) - triple_table(q))))
            assert weakly_congruent(p, q, tol=worst)
            assert not weakly_congruent(p, q, tol=float(np.nextafter(worst, -np.inf)))

    def test_weakly_congruent_memory_is_quadratic(self):
        rng = np.random.default_rng(46)
        n = 150
        p = Configuration(rng.uniform(-1, 1, (n, 2)))
        q = rigid_transform(rng, p)
        tracemalloc.start()
        try:
            assert weakly_congruent(p, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n^3 table of floats alone would take 27 MB
        assert peak < 4 * 1024 * 1024


class TestAlign:
    def test_recovers_quarter_turn(self):
        rng = np.random.default_rng(44)
        p = Configuration(rng.uniform(-1, 1, (5, 2)))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = Configuration(p.points @ rot.T)
        result = align(p, q)
        assert result.residual <= 1e-10
        # q = R p, so the map taking q back to p is R^T
        assert np.allclose(result.rotation, rot.T, atol=1e-10)

    def test_reflection_detected(self):
        rng = np.random.default_rng(45)
        p = Configuration(rng.uniform(-1, 1, (5, 2)))
        q = Configuration(p.points @ np.diag([-1.0, 1.0]))
        result = align(p, q)
        assert result.residual <= 1e-10
        assert np.linalg.det(result.rotation) == pytest.approx(-1.0)

    def test_noise_scale(self):
        rng = np.random.default_rng(46)
        p = Configuration(rng.uniform(-1, 1, (6, 2)))
        q = Configuration(p.points + rng.normal(scale=0.01, size=(6, 2)))
        result = align(p, q)
        assert 0.0 < result.residual < 0.1


class TestShapeDistance:
    def test_zero_for_rigid_transforms(self, hexagon_config):
        rng = np.random.default_rng(47)
        moved = rigid_transform(rng, hexagon_config, reflect=True)
        assert shape_distance(hexagon_config, moved) <= 1e-10

    def test_positive_for_broken_congruence(self):
        p = Configuration(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        pts = p.points[[1, 0, 2]]  # swapping unequal legs changes the shape
        assert shape_distance(p, Configuration(pts)) > 1e-3


class TestRecoverShape:
    def test_hexagon_round_trip(self, hexagon_framework):
        rec = recover_shape(gram(hexagon_framework), hexagon_framework.graph, 2)
        assert shape_distance(rec, hexagon_framework.config) <= 1e-8

    def test_single_edge(self):
        g = Graph(2, ((1, 2),))
        rec = recover_shape(np.array([[9.0]]), g, 2)
        assert np.linalg.norm(rec.points[0] - rec.points[1]) == pytest.approx(3.0)

    def test_spatial_round_trip(self, fourcycle_3d):
        graph, _ = fourcycle_3d
        rng = np.random.default_rng(48)
        fw = Framework(graph, Configuration(rng.uniform(-1, 1, (4, 3))))
        rec = recover_shape(gram(fw), graph, 3)
        assert shape_distance(rec, fw.config) <= 1e-8

    def test_rank_exceeding_dimension_rejected(self):
        rng = np.random.default_rng(49)
        g = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3)))
        fw = Framework(g, Configuration(rng.uniform(-1, 1, (4, 3))))
        with pytest.raises(NotRealizableError):
            recover_shape(gram(fw), g, 2)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(DomainError):
            recover_shape(np.eye(2), Graph(4, ((1, 2), (3, 4))), 2)

    def test_asymmetric_matrix_rejected(self, hexagon_graph):
        bad = np.eye(5)
        bad[0, 1] = 1e-3
        with pytest.raises(InputError):
            recover_shape(bad, hexagon_graph, 2)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (2, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, entry, value):
        # edges (1,2) and (1,3) form the BFS tree; (2,3) closes the cycle
        fw = Framework(Graph(3, ((1, 2), (1, 3), (2, 3))),
                       Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
        bad = gram(fw)
        bad[entry] = bad[entry[::-1]] = value
        with pytest.raises(InputError, match="finite"):
            recover_shape(bad, fw.graph, 2)

    def test_not_psd_rejected(self):
        g = Graph(3, ((1, 2), (1, 3)))
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotRealizableError):
            recover_shape(bad, g, 2)

    def test_round_trip_on_random_frameworks(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            fw = random_framework(rng, int(rng.integers(d + 1, 9)), d)
            if not points_span_full_dimension(fw.config):
                continue
            rec = recover_shape(gram(fw), fw.graph, d)
            assert shape_distance(rec, fw.config) <= 1e-8

    @pytest.mark.parametrize("scale", [3e-7, 1e-7, 1e-8])
    def test_small_spatial_framework_is_not_planar(self, scale):
        """The tree block's rank follows the numerical_rank rule, which has no
        absolute floor above zero, so a tiny 3-D framework keeps rank 3."""
        rng = np.random.default_rng(52)
        complete = Graph(6, tuple((i, j) for i in range(1, 7) for j in range(i + 1, 7)))
        fw = Framework(complete, Configuration(scale * rng.uniform(-1.0, 1.0, (6, 3))))
        with pytest.raises(NotRealizableError, match="numerical rank 3"):
            recover_shape(gram(fw), complete, 2)
        rec = recover_shape(gram(fw), complete, 3)
        assert shape_distance(rec, fw.config) <= 1e-12 * scale
        flat = Framework(complete, Configuration(fw.points[:, :2]))
        rec = recover_shape(gram(flat), complete, 2)
        assert shape_distance(rec, flat.config) <= 1e-12 * scale

    def test_triangle_breaking_cycle_law_rejected(self):
        # edge vectors (1,0), (0,1), (1,1) on (1,2), (1,3), (2,3): the Gram is PSD
        # with rank 2, but p1-p2 - (p1-p3) + (p2-p3) = (0,-2), not 0
        e = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = Graph(3, ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(NotRealizableError, match="cycle law"):
            recover_shape(e @ e.T, g, 2)

    def test_eigh_runs_once_on_tree_block(self, monkeypatch):
        rng = np.random.default_rng(51)
        fw = random_framework(rng, 9, 2, graph=Graph(9, tuple(
            (i, j) for i in range(1, 10) for j in range(i + 1, 10) if (i + j) % 3)))
        assert fw.graph.m > fw.n - 1
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        rec = recover_shape(gram(fw), fw.graph, 2)
        assert shapes == [(8, 8)]
        assert shape_distance(rec, fw.config) <= 1e-8
