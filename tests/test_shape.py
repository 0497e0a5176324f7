import tracemalloc

import numpy as np
import pytest

from helpers import (
    random_framework,
    reference_edge_vector_matrix,
    rigid_transform,
    spans_full_dimension,
    sparse_planar_framework,
)
from weakrig import (
    Configuration,
    DomainError,
    Framework,
    Graph,
    InputError,
    NotRealizableError,
    congruent,
    edge_vector_matrix,
    edm,
    gram,
    recover_shape,
    shape_distance,
    weakly_congruent,
)
from weakrig.shape import _STRIP, _weak_congruence_gap


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

    @pytest.mark.parametrize("m", [724, 1485, 3000])
    def test_row_strips_match_per_strip_products(self, m):
        """BLAS may pick another kernel for a strip than for the one-shot
        product, so their last bits can differ (at m = 724 and 1,485 they
        do); ``gram`` is the strips', bit for bit."""
        rng = np.random.default_rng(m)
        pairs = np.unique(np.sort(rng.integers(1, 400, (2 * m, 2)), axis=1), axis=0)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]][:m]
        fw = Framework(Graph(400, pairs), Configuration(rng.uniform(-1, 1, (400, 2))))
        assert fw.graph.m == m
        e = reference_edge_vector_matrix(fw)
        rows = _STRIP // m
        strips = [e[:, lo:lo + rows].T @ e for lo in range(0, m, rows)]
        assert np.array_equal(gram(fw), np.vstack(strips))


class TestCongruence:
    def test_rigid_transform_is_congruent(self, hexagon_config):
        rng = np.random.default_rng(42)
        moved = rigid_transform(rng, hexagon_config)
        assert congruent(hexagon_config, moved)

    def test_reflection_is_congruent(self, hexagon_config):
        flipped = Configuration(hexagon_config.points @ np.diag([-1.0, 1.0]))
        assert congruent(hexagon_config, flipped)

    def test_perturbation_breaks_congruence(self, hexagon_config):
        pts = hexagon_config.points.copy()
        pts[0, 0] += 0.1
        assert not congruent(hexagon_config, Configuration(pts))

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
        # reference: the (n, n, n) table of (p_i-p_j)^T (p_i-p_k) built in one
        # piece from the centered points
        def triple_table(c):
            centered = c.points - c.points.mean(axis=0)
            g = centered @ centered.T
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
            assert _weak_congruence_gap(p, q) == worst
            tol = 1e-8 * max(edm(p).max(), edm(q).max())
            assert weakly_congruent(p, q) == (worst <= tol)

    @pytest.mark.parametrize("shift", [1e2, 1e4, 1e6])
    def test_translation_is_weakly_congruent(self, shift):
        p = Configuration(np.random.default_rng(47).uniform(-1, 1, (6, 2)))
        q = Configuration(p.points + shift)
        assert congruent(p, q)
        assert weakly_congruent(p, q)

    @pytest.mark.parametrize("scale", [1e-5, 1.0])
    def test_tolerance_follows_the_shape_size(self, scale):
        rng = np.random.default_rng(48)
        pts = rng.uniform(-1, 1, (6, 2))
        moved = pts.copy()
        moved[2] += 0.3
        p, q = Configuration(scale * pts), Configuration(scale * moved)
        assert not congruent(p, q)
        assert not weakly_congruent(p, q)
        assert congruent(p, p) and weakly_congruent(p, p)

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
    """The Procrustes fit whose residual ``shape_distance`` returns."""

    def test_recovers_quarter_turn(self):
        rng = np.random.default_rng(44)
        p = Configuration(rng.uniform(-1, 1, (5, 2)))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = Configuration(p.points @ rot.T)
        assert shape_distance(p, q) <= 1e-10

    def test_reflection_detected(self):
        rng = np.random.default_rng(45)
        p = Configuration(rng.uniform(-1, 1, (5, 2)))
        q = Configuration(p.points @ np.diag([-1.0, 1.0]))
        assert shape_distance(p, q) <= 1e-10

    def test_noise_scale(self):
        rng = np.random.default_rng(46)
        p = Configuration(rng.uniform(-1, 1, (6, 2)))
        q = Configuration(p.points + rng.normal(scale=0.01, size=(6, 2)))
        assert 0.0 < shape_distance(p, q) < 0.1


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

    def test_complex_gram_rejected(self):
        """Casting to float would drop the imaginary parts and recover three
        coincident points from i·I."""
        triangle = Graph(3, ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(InputError, match="real"):
            recover_shape(1j * np.eye(3), triangle, 2)

    @pytest.mark.parametrize("bad", [[[1.0, 0.0], [0.0]], [[1.0, 0.0, 0.0], [0.0, [1.0], 0.0]]])
    def test_ragged_gram_rejected(self, bad):
        """NumPy's own ValueError from the ragged rows does not escape."""
        triangle = Graph(3, ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(InputError) as exc:
            recover_shape(bad, triangle, 2)
        assert str(exc.value) == "Gram matrix must be 3x3 for this graph, got ragged rows"

    def test_string_gram_rejected(self):
        with pytest.raises(InputError, match="real"):
            recover_shape([["1"]], Graph(2, ((1, 2),)), 2)

    @pytest.mark.parametrize("d", [2.0, True, "2"])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(InputError, match="integer"):
            recover_shape(np.array([[9.0]]), Graph(2, ((1, 2),)), d)

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
            if not spans_full_dimension(fw.config):
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

    @pytest.mark.parametrize("scale", [1e-6, 2.0**-30])
    def test_small_triangle_breaking_cycle_law_rejected(self, scale):
        # the triangle above, scaled: every tolerance scales with max|G|
        e = scale * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = Graph(3, ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(NotRealizableError, match="cycle law"):
            recover_shape(e @ e.T, g, 2)

    def test_small_asymmetric_matrix_rejected(self):
        fw = Framework(Graph(3, ((1, 2), (1, 3))),
                       Configuration(np.array([[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4]])))
        bad = gram(fw)  # diag(1e-8, 1e-8)
        bad[0, 1] += 5e-13
        with pytest.raises(InputError, match="symmetric"):
            recover_shape(bad, fw.graph, 2)

    _NINE = Graph(9, tuple((i, j) for i in range(1, 10) for j in range(i + 1, 10) if (i + j) % 3))

    @staticmethod
    def _eigh_shapes(monkeypatch):
        """Record the shape of every matrix np.linalg.eigh is called on."""
        shapes, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return shapes

    def test_realizable_input_takes_no_eigh(self, monkeypatch):
        rng = np.random.default_rng(51)
        fw = random_framework(rng, 9, 2, graph=self._NINE)
        assert fw.graph.m > fw.n - 1
        shapes = self._eigh_shapes(monkeypatch)
        rec = recover_shape(gram(fw), fw.graph, 2)
        assert shapes == []
        assert shape_distance(rec, fw.config) <= 1e-8

    def test_declined_factor_runs_eigh_once_on_tree_block(self, monkeypatch):
        rng = np.random.default_rng(51)
        spatial = random_framework(rng, 9, 3, graph=self._NINE)
        shapes = self._eigh_shapes(monkeypatch)
        with pytest.raises(NotRealizableError, match="numerical rank 3"):
            recover_shape(gram(spatial), spatial.graph, 2)
        assert shapes == [(8, 8)]
        shapes.clear()
        with pytest.raises(NotRealizableError, match="below the PSD tolerance"):
            recover_shape(np.array([[1.0, 2.0], [2.0, 1.0]]), Graph(3, ((1, 2), (1, 3))), 2)
        assert shapes == [(2, 2)]

    def test_fast_path_needs_no_eigh(self, monkeypatch, hexagon_framework):
        """With eigh unavailable, realizable inputs still recover: the factor
        is accepted on each."""
        def fail(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        rng = np.random.default_rng(53)
        spatial = random_framework(rng, 10, 3)
        assert spans_full_dimension(spatial.config)
        for fw in (hexagon_framework, sparse_planar_framework(rng, 200), spatial):
            rec = recover_shape(gram(fw), fw.graph, fw.d)
            assert shape_distance(rec, fw.config) <= 1e-8
