import numpy as np
import pytest

from conftest import EIGS_DESIGNED_GAIN, EIGS_IDENTITY_GAIN
from helpers import (
    fd_gradient,
    from_stacked,
    local_cost,
    random_framework,
    random_triple_subset,
    reference_barred_weak_rigidity_matrix,
    reference_gain_search,
    reference_velocity_and_residuals,
    rel_err,
    residuals,
    same_gain_bits,
    total_cost,
)
from weakrig import (
    Configuration,
    ControlEvaluator,
    ControllerSpec,
    FormationTarget,
    Framework,
    GainMatrix,
    Graph,
    InputError,
    Law,
    TripleSet,
    Verdict,
    barred_weak_rigidity_matrix,
    build_formation_triples,
    classify_stability,
    distance_triple,
    full_triple_set,
    gain_search,
    is_infinitesimally_rigid,
    jacobian_at_target,
    sort_eigenvalues,
    weak_rigidity_matrix,
)
from weakrig import control

K3 = Graph(3, ((1, 2), (1, 3), (2, 3)))


def triangle_target():
    tree = Graph(3, ((1, 2), (1, 3)))
    witness = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
    return FormationTarget(tree, build_formation_triples(tree, K3), witness)


def random_target(rng, n=None, d=2, triples=full_triple_set):
    fw = random_framework(rng, n or int(rng.integers(3, 7)), d)
    return FormationTarget(fw.graph, triples(fw.graph), fw.config)


def distance_triples(graph):
    return TripleSet(tuple(distance_triple(i, j) for i, j in graph.edges))


def random_triple_choice(rng, trial):
    """Full set, random subset or distance-only set, in turn."""
    return (full_triple_set, lambda g: random_triple_subset(rng, g),
            distance_triples)[trial % 3]


def random_gain(rng, n, d):
    return GainMatrix(tuple(rng.uniform(-1.5, 1.5, (d, d)) for _ in range(n)))


def velocity(p, tgt, gain=None):
    """(n, d) velocity of ``ControlEvaluator``, the code ``integrate`` steps
    with: the gradient law without a gain, the non-gradient law with one."""
    law = Law.GRADIENT if gain is None else Law.NONGRADIENT
    return ControlEvaluator(ControllerSpec(law, tgt, gain)).velocity(p.points)


NAN_BLOCK = np.array([[1.0, np.nan], [0.0, 1.0]])


class TestGainMatrix:
    @pytest.mark.parametrize("blocks, message", [
        ((), "gain needs at least one block"),
        ((np.ones((2, 3)),), "gain blocks must be square matrices"),
        ((np.eye(2), np.ones(2)), "gain blocks must be square matrices"),
        ((np.eye(2), np.eye(3)), "gain blocks must share one dimension"),
        ((np.eye(2), NAN_BLOCK), "gain blocks must be finite"),
        # the first failing block wins, and within it the first failing check
        ((NAN_BLOCK, np.ones((2, 3))), "gain blocks must be finite"),
        ((np.eye(2), np.full((3, 3), np.inf)), "gain blocks must share one dimension"),
        ((np.ones((3, 2)), np.eye(2), NAN_BLOCK), "gain blocks must be square matrices"),
        ((5.0,), "gain blocks must be square matrices"),
        ((np.eye(2), np.ones((2, 2, 2))), "gain blocks must be square matrices"),
        ((np.eye(2), [[np.inf]]), "gain blocks must share one dimension"),
        ((np.eye(2), NAN_BLOCK, np.eye(3)), "gain blocks must be finite"),
        # a complex block is refused, never cast to its real part
        ((np.eye(2), np.eye(2) * (1 + 2j)), "gain blocks must be real"),
        (([[1, 0], [0, 1j]],), "gain blocks must be real"),
        ((np.eye(2) * 1j, np.eye(3)), "gain blocks must be real"),
    ])
    def test_each_message_and_which_wins(self, blocks, message):
        with pytest.raises(InputError) as exc:
            GainMatrix(blocks)
        assert str(exc.value) == message

    def test_blocks_are_read_only_float_views_of_one_stack(self):
        gain = GainMatrix(([[1, 2], [3, 4]], np.eye(2)))
        assert gain.n == 2 and gain.d == 2
        assert all(b.dtype == float and not b.flags.writeable for b in gain.blocks)
        assert np.array_equal(gain.blocks, [[[1.0, 2.0], [3.0, 4.0]], np.eye(2)])
        assert isinstance(gain.blocks, np.ndarray) and gain.blocks.shape == (2, 2, 2)
        assert gain.blocks.dtype == np.float64 and not gain.blocks.flags.writeable

    def test_keeps_its_own_copy(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
        gain = GainMatrix(stack)
        stack[0, 0, 0] = 9.0
        assert np.array_equal(gain.blocks, [np.eye(2), 2.0 * np.eye(2)])


class TestBuildFormationTriples:
    def test_tree_in_triangle(self):
        gf = Graph(3, ((1, 2), (1, 3)))
        ts = build_formation_triples(gf, K3)
        assert ts.triples == ((1, 2, 3), (2, 1, 1), (3, 1, 1))

    def test_single_edge(self):
        g = Graph(2, ((1, 2),))
        assert build_formation_triples(g, g).triples == ((2, 1, 1),)

    def test_complete_graph_equals_full_set(self):
        assert build_formation_triples(K3, K3) == full_triple_set(K3)

    def test_formation_edges_must_be_sensed(self):
        gf = Graph(3, ((1, 2), (2, 3)))
        gs = Graph(3, ((1, 2),))
        with pytest.raises(InputError):
            build_formation_triples(gf, gs)


class TestCosts:
    def test_zero_at_target(self, hexagon_target):
        assert total_cost(hexagon_target.witness, hexagon_target) == 0.0

    def test_single_distance_triple(self):
        g = Graph(2, ((1, 2),))
        tgt = FormationTarget(g, TripleSet(((2, 1, 1),)),
                              Configuration(np.array([[0.0, 0.0], [2.0, 0.0]])))
        p = Configuration(np.array([[0.0, 0.0], [3.0, 0.0]]))
        assert total_cost(p, tgt) == pytest.approx(12.5)

    def test_local_costs_zero_at_target(self, hexagon_target):
        for i in range(1, 7):
            assert local_cost(i, hexagon_target.witness, hexagon_target) == 0.0

    def test_local_cost_locality(self, hexagon_target):
        pts = hexagon_target.witness.points.copy()
        pts[5] += np.array([0.1, 0.0])
        moved = Configuration(pts)
        assert local_cost(6, moved, hexagon_target) > 0.0
        for i in (3, 4, 5):
            assert local_cost(i, moved, hexagon_target) == pytest.approx(0.0, abs=1e-15)

    def test_local_costs_sum_counts_edges_twice(self, hexagon_target):
        rng = np.random.default_rng(60)
        p = Configuration(hexagon_target.witness.points + rng.uniform(-0.3, 0.3, (6, 2)))
        delta = residuals(p, hexagon_target)
        dist_part = sum(0.5 * delta[t] ** 2
                        for t, (i, j, k) in enumerate(hexagon_target.triples.triples)
                        if j == k)
        total = sum(local_cost(i, p, hexagon_target) for i in range(1, 7))
        assert total == pytest.approx(total_cost(p, hexagon_target) + dist_part)
        assert total >= total_cost(p, hexagon_target)

    def test_angle_only_target_sums_exactly(self):
        g = Graph(3, ((1, 2), (1, 3)))
        witness = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        tgt = FormationTarget(g, TripleSet(((1, 2, 3),)), witness)
        p = Configuration(np.array([[0.1, 0.0], [1.2, 0.3], [0.0, 1.4]]))
        total = sum(local_cost(i, p, tgt) for i in range(1, 4))
        assert total == pytest.approx(total_cost(p, tgt))


class TestGradientControl:
    def test_zero_at_target(self, hexagon_target):
        u = velocity(hexagon_target.witness, hexagon_target)
        assert np.max(np.abs(u)) <= 1e-12

    def test_matches_cost_gradient(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            tgt = random_target(rng)
            p0 = rng.uniform(-1, 1, (tgt.n, tgt.d))

            def cost_of(x, tgt=tgt, d=tgt.d):
                return total_cost(from_stacked(x, d), tgt)

            u = velocity(Configuration(p0), tgt).reshape(-1)
            fd = -fd_gradient(cost_of, p0.reshape(-1))
            assert rel_err(u, fd) < 1e-6

    def test_centroid_component_vanishes(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            tgt = random_target(rng)
            p = Configuration(rng.uniform(-1, 1, (tgt.n, tgt.d)))
            u = velocity(p, tgt)
            assert np.max(np.abs(u.sum(axis=0))) <= 1e-12 * max(1.0, np.max(np.abs(u)))


class TestBarredMatrix:
    def test_equals_weak_matrix_for_distance_triples(self):
        rng = np.random.default_rng(63)
        for d in (2, 3):
            fw = random_framework(rng, 5, d)
            ts = distance_triples(fw.graph)
            tgt = FormationTarget(fw.graph, ts, fw.config)
            p = Configuration(rng.uniform(-1, 1, (5, d)))
            rb = barred_weak_rigidity_matrix(p, tgt)
            assert np.array_equal(rb, weak_rigidity_matrix(Framework(fw.graph, p), ts))
            assert np.array_equal(rb, reference_barred_weak_rigidity_matrix(p, tgt))

    def test_matches_stacked_local_gradients(self):
        rng = np.random.default_rng(64)
        for trial in range(12):
            tgt = random_target(rng, d=2 + trial % 2, triples=random_triple_choice(rng, trial))
            p0 = rng.uniform(-1, 1, (tgt.n, tgt.d))
            p = Configuration(p0)
            rb = barred_weak_rigidity_matrix(p, tgt)
            assert np.array_equal(rb, reference_barred_weak_rigidity_matrix(p, tgt))
            stacked = rb.T @ residuals(p, tgt)
            fd = np.concatenate([
                fd_gradient(
                    lambda x, i=i: local_cost(
                        i, from_stacked(
                            np.concatenate([p0.reshape(-1)[:(i - 1) * tgt.d], x,
                                            p0.reshape(-1)[i * tgt.d:]]), tgt.d), tgt),
                    p0[i - 1],
                )
                for i in range(1, tgt.n + 1)
            ])
            assert rel_err(stacked, fd) < 1e-6

    def test_hexagon_rank(self, hexagon_target):
        rb = barred_weak_rigidity_matrix(hexagon_target.witness, hexagon_target)
        assert np.linalg.matrix_rank(rb) == 9


class TestNongradientControl:
    def test_zero_at_target(self, hexagon_target, designed_gain):
        u = velocity(hexagon_target.witness, hexagon_target, designed_gain)
        assert np.max(np.abs(u)) <= 1e-12

    def test_identity_gain_all_distance_equals_gradient(self):
        rng = np.random.default_rng(65)
        fw = random_framework(rng, 5, 2)
        ts = TripleSet(tuple(distance_triple(i, j) for i, j in fw.graph.edges))
        tgt = FormationTarget(fw.graph, ts, fw.config)
        p = Configuration(rng.uniform(-1, 1, (5, 2)))
        u1 = velocity(p, tgt, GainMatrix.identity(5, 2))
        assert np.allclose(u1, velocity(p, tgt), atol=1e-14)

    def test_matches_blockwise_gain_times_local_gradient(self, hexagon_target,
                                                         designed_gain):
        rng = np.random.default_rng(66)
        p0 = hexagon_target.witness.points + rng.uniform(-0.2, 0.2, (6, 2))
        u = velocity(Configuration(p0), hexagon_target, designed_gain)
        flat = p0.reshape(-1)
        for i in range(1, 7):
            def vi(x, i=i):
                full = np.concatenate([flat[:(i - 1) * 2], x, flat[i * 2:]])
                return local_cost(i, from_stacked(full, 2), hexagon_target)

            expected = -designed_gain.blocks[i - 1] @ fd_gradient(vi, p0[i - 1])
            assert rel_err(u[i - 1], expected) < 1e-6


class TestControlEvaluator:
    def test_matches_public_operations(self, hexagon_target):
        """Residuals and cost match the paper's delta and V."""
        rng = np.random.default_rng(67)
        grad_ev = ControlEvaluator(ControllerSpec(Law.GRADIENT, hexagon_target))
        for _ in range(5):
            pts = hexagon_target.witness.points + rng.uniform(-0.5, 0.5, (6, 2))
            p = Configuration(pts)
            assert np.allclose(grad_ev.residuals(pts),
                               residuals(p, hexagon_target), atol=1e-14)
            assert grad_ev.cost(pts) == pytest.approx(total_cost(p, hexagon_target))

    def test_matches_reference_scatter_and_dense_laws(self):
        """d = 2, 3 and 4, each with the full, a random and the distance set
        and random non-diagonal gains, so a change in the order the residual
        dots or the gain rows are summed shows in the last bits. The dense
        laws are -R_w^T delta and -K Rbar^T delta from the public matrices."""
        rng = np.random.default_rng(68)
        for trial in range(18):
            tgt = random_target(rng, d=2 + trial // 6, triples=random_triple_choice(rng, trial))
            gain = random_gain(rng, tgt.n, tgt.d)
            pts = tgt.witness.points + rng.uniform(-0.5, 0.5, (tgt.n, tgt.d))
            p = Configuration(pts)
            delta = residuals(p, tgt)
            rw = weak_rigidity_matrix(Framework(tgt.graph, p), tgt.triples)
            local_grads = (barred_weak_rigidity_matrix(p, tgt).T @ delta).reshape(tgt.n, tgt.d)
            for spec, dense in (
                    (ControllerSpec(Law.GRADIENT, tgt), -(rw.T @ delta)),
                    (ControllerSpec(Law.NONGRADIENT, tgt, gain),
                     -np.matvec(gain.blocks, local_grads).reshape(-1))):
                vel, delta = ControlEvaluator(spec).velocity_and_residuals(pts)
                ref_vel, ref_delta = reference_velocity_and_residuals(spec, pts)
                assert np.array_equal(vel, ref_vel)
                assert np.array_equal(delta, ref_delta)
                assert rel_err(vel.reshape(-1), dense) < 1e-13

    def test_public_methods_adapt_the_field(self):
        """Each public method takes and returns the (n, d) shape, or the (s,)
        residuals, and equals the flat field on the raveled points bit for bit."""
        rng = np.random.default_rng(70)
        for trial in range(6):
            tgt = random_target(rng, d=2 + trial % 2, triples=random_triple_choice(rng, trial))
            pts = tgt.witness.points + rng.uniform(-0.5, 0.5, (tgt.n, tgt.d))
            for spec in (ControllerSpec(Law.GRADIENT, tgt),
                         ControllerSpec(Law.NONGRADIENT, tgt, random_gain(rng, tgt.n, tgt.d))):
                ev = ControlEvaluator(spec)
                flat_vel, flat_delta = ev._field(pts.ravel())
                assert flat_vel.shape == (tgt.n * tgt.d,)
                vel, delta = ev.velocity_and_residuals(pts)
                assert vel.shape == pts.shape and delta.shape == (tgt.triples.s,)
                assert np.array_equal(vel.ravel(), flat_vel)
                assert np.array_equal(ev.velocity(pts).ravel(), flat_vel)
                assert np.array_equal(delta, flat_delta)
                assert np.array_equal(ev.residuals(pts), flat_delta)
                assert ev.cost(pts) == 0.5 * float(np.vecdot(flat_delta, flat_delta))

    def test_gain_required_for_nongradient(self, hexagon_target):
        with pytest.raises(InputError):
            ControllerSpec(Law.NONGRADIENT, hexagon_target)


class TestJacobianEigenvalues:
    @pytest.mark.parametrize("blocks", [
        [np.eye(2)] * 5,    # one agent short
        [np.eye(1)] * 6,    # 1 x 1 blocks on a d = 2 target
    ])
    def test_gain_must_fit_the_target(self, hexagon_target, blocks):
        """The same check ControllerSpec makes, with the same message."""
        gain = GainMatrix(tuple(blocks))
        with pytest.raises(InputError, match="gain blocks do not match the target size"):
            jacobian_at_target(hexagon_target, gain)
        with pytest.raises(InputError, match="gain blocks do not match the target size"):
            ControllerSpec(Law.NONGRADIENT, hexagon_target, gain)

    def test_cached_factor_is_read_only_and_exact(self):
        rng = np.random.default_rng(69)
        for trial in range(6):
            tgt = random_target(rng, d=2 + trial % 2, triples=random_triple_choice(rng, trial))
            gain = random_gain(rng, tgt.n, tgt.d)
            rw = weak_rigidity_matrix(Framework(tgt.graph, tgt.witness), tgt.triples)
            rb = barred_weak_rigidity_matrix(tgt.witness, tgt)
            uncached = np.einsum("nij,nj...->ni...", gain.blocks,
                                 (rb.T @ rw).reshape(tgt.n, tgt.d, -1)).reshape(rw.shape[1], -1)
            assert np.array_equal(jacobian_at_target(tgt, gain), uncached)
            assert tgt._rbar_t_rw is tgt._rbar_t_rw
            assert not tgt._rbar_t_rw.flags.writeable
            with pytest.raises(ValueError):
                tgt._rbar_t_rw[0, 0] = 1.0

    def test_identity_gain_reproduces_published_list(self, hexagon_target):
        j = jacobian_at_target(hexagon_target, GainMatrix.identity(6, 2))
        got = sort_eigenvalues(np.linalg.eigvals(j))
        expected = sort_eigenvalues(EIGS_IDENTITY_GAIN)
        assert np.max(np.abs(got - expected)) < 1e-3

    def test_designed_gain_reproduces_published_list(self, hexagon_target,
                                                     designed_gain):
        j = jacobian_at_target(hexagon_target, designed_gain)
        got = sort_eigenvalues(np.linalg.eigvals(j))
        expected = sort_eigenvalues(EIGS_DESIGNED_GAIN)
        assert np.max(np.abs(got - expected)) < 1e-3

    def test_all_distance_identity_gain_is_psd_with_three_zeros(self):
        rng = np.random.default_rng(68)
        fw = random_framework(rng, 4, 2, graph=Graph(4, tuple(
            (i, j) for i in range(1, 5) for j in range(i + 1, 5))))
        assert is_infinitesimally_rigid(fw)
        ts = TripleSet(tuple(distance_triple(i, j) for i, j in fw.graph.edges))
        tgt = FormationTarget(fw.graph, ts, fw.config)
        j = jacobian_at_target(tgt, GainMatrix.identity(4, 2))
        assert np.allclose(j, j.T, atol=1e-12)
        eig = np.linalg.eigvalsh(j)
        assert eig[0] >= -1e-10 * eig[-1]
        assert int(np.sum(np.abs(eig) <= 1e-6 * eig[-1])) == 3

    def test_translation_invariance(self, hexagon_target, designed_gain):
        shifted = FormationTarget(
            hexagon_target.graph, hexagon_target.triples,
            Configuration(hexagon_target.witness.points + np.array([5.0, -7.0])))
        j0 = jacobian_at_target(hexagon_target, designed_gain)
        j1 = jacobian_at_target(shifted, designed_gain)
        assert np.max(np.abs(j0 - j1)) <= 1e-10

    def test_rotation_preserves_spectrum_with_identity_gain(self, hexagon_target):
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = FormationTarget(
            hexagon_target.graph, hexagon_target.triples,
            Configuration(hexagon_target.witness.points @ rot.T))
        gain = GainMatrix.identity(6, 2)
        e0 = np.sort(np.linalg.eigvals(jacobian_at_target(hexagon_target, gain)).real)
        e1 = np.sort(np.linalg.eigvals(jacobian_at_target(rotated, gain)).real)
        assert np.max(np.abs(e0 - e1)) <= 1e-10


class TestFrameEquivariance:
    def test_gradient_law(self):
        rng = np.random.default_rng(69)
        for _ in range(5):
            tgt = random_target(rng)
            th = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            shift = rng.uniform(-2, 2, 2)
            p = Configuration(rng.uniform(-1, 1, (tgt.n, tgt.d)))
            moved_tgt = FormationTarget(tgt.graph, tgt.triples,
                                        Configuration(tgt.witness.points @ rot.T + shift))
            moved_p = Configuration(p.points @ rot.T + shift)
            u0 = velocity(p, tgt)
            u1 = velocity(moved_p, moved_tgt)
            assert np.max(np.abs(u1 - u0 @ rot.T)) <= 1e-10 * max(1.0, np.max(np.abs(u0)))

    def test_nongradient_law_with_conjugated_gains(self, hexagon_target, designed_gain):
        rng = np.random.default_rng(70)
        th = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        shift = rng.uniform(-2, 2, 2)
        p = Configuration(hexagon_target.witness.points + rng.uniform(-0.3, 0.3, (6, 2)))
        moved_tgt = FormationTarget(
            hexagon_target.graph, hexagon_target.triples,
            Configuration(hexagon_target.witness.points @ rot.T + shift))
        moved_p = Configuration(p.points @ rot.T + shift)
        conj = GainMatrix(tuple(rot @ b @ rot.T for b in designed_gain.blocks))
        u0 = velocity(p, hexagon_target, designed_gain)
        u1 = velocity(moved_p, moved_tgt, conj)
        assert np.max(np.abs(u1 - u0 @ rot.T)) <= 1e-10 * max(1.0, np.max(np.abs(u0)))

    def test_nongradient_law_with_scalar_gains(self):
        rng = np.random.default_rng(71)
        tgt = random_target(rng, n=5)
        gain = GainMatrix(tuple(float(rng.uniform(0.2, 1.5)) * np.eye(2)
                                for _ in range(5)))
        th = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        p = Configuration(rng.uniform(-1, 1, (5, 2)))
        moved_tgt = FormationTarget(tgt.graph, tgt.triples,
                                    Configuration(tgt.witness.points @ rot.T))
        moved_p = Configuration(p.points @ rot.T)
        u0 = velocity(p, tgt, gain)
        u1 = velocity(moved_p, moved_tgt, gain)
        assert np.max(np.abs(u1 - u0 @ rot.T)) <= 1e-10 * max(1.0, np.max(np.abs(u0)))

    def test_both_laws_vanish_on_transformed_target(self, hexagon_target, designed_gain):
        rng = np.random.default_rng(72)
        th = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        at_shape = Configuration(hexagon_target.witness.points @ rot.T + [1.0, 2.0])
        assert np.max(np.abs(velocity(at_shape, hexagon_target))) <= 1e-10
        assert np.max(np.abs(velocity(at_shape, hexagon_target, designed_gain))) <= 1e-10


class TestClassifyStability:
    def test_identity_gain_unstable(self, hexagon_target):
        rep = classify_stability(
            jacobian_at_target(hexagon_target, GainMatrix.identity(6, 2)), 2)
        assert rep.verdict is Verdict.UNSTABLE

    def test_designed_gain_stable(self, hexagon_target, designed_gain):
        rep = classify_stability(jacobian_at_target(hexagon_target, designed_gain), 2)
        assert rep.verdict is Verdict.STABLE

    @pytest.mark.parametrize("scale", [1e-3, 2.0**-10])
    def test_designed_gain_stable_at_small_scale(self, hexagon_graph, hexagon_triples,
                                                 hexagon_config, designed_gain, scale):
        """The tolerance follows the spectral radius (here 49 * scale^2) with no
        absolute floor, so the three zero eigenvalues stay apart from the rest."""
        tgt = FormationTarget(hexagon_graph, hexagon_triples,
                              Configuration(scale * hexagon_config.points))
        rep = classify_stability(jacobian_at_target(tgt, designed_gain), 2)
        assert rep.verdict is Verdict.STABLE

    def test_zero_matrix_marginal(self):
        rep = classify_stability(np.zeros((12, 12)), 2)
        assert rep.verdict is Verdict.MARGINAL

    def test_shared_rule_gives_the_verdict(self, hexagon_target, designed_gain):
        """``_stable``, which the gain search applies to a whole stack, says
        stable exactly where ``classify_stability`` does, one matrix at a
        time or stacked."""
        rotation = np.zeros((12, 12))
        rotation[3:5, 3:5] = [[0.0, -1.0], [1.0, 0.0]]  # eigenvalues +-i: marginal
        rotation[5:, 5:] = np.diag(np.arange(1.0, 8.0))
        extra_zero = np.diag(np.r_[np.zeros(4), np.arange(1.0, 9.0)])  # four zeros: marginal
        cases = {
            Verdict.STABLE: jacobian_at_target(hexagon_target, designed_gain),
            Verdict.UNSTABLE: jacobian_at_target(hexagon_target, GainMatrix.identity(6, 2)),
            Verdict.MARGINAL: rotation,
        }
        mats = [*cases.values(), extra_zero, np.zeros((12, 12))]
        verdicts = [classify_stability(m, 2).verdict for m in mats]
        assert verdicts[:3] == list(cases) and verdicts[3:] == [Verdict.MARGINAL] * 2
        stable = [v is Verdict.STABLE for v in verdicts]
        assert [bool(control._stable(np.linalg.eigvals(m), 2)[0]) for m in mats] == stable
        assert control._stable(np.linalg.eigvals(np.stack(mats)), 2)[0].tolist() == stable

    def test_eigenvalues_sorted(self, hexagon_target, designed_gain):
        rep = classify_stability(jacobian_at_target(hexagon_target, designed_gain), 2)
        reals = rep.eigenvalues.real
        assert all(reals[i] >= reals[i + 1] - 1e-12 for i in range(len(reals) - 1))


class TestGainSearch:
    def test_finds_stabilizing_gain_for_hexagon(self, hexagon_target):
        gain = gain_search(hexagon_target, trials=1000, seed=7)
        assert gain is not None
        rep = classify_stability(jacobian_at_target(hexagon_target, gain), 2)
        assert rep.verdict is Verdict.STABLE

    def test_deterministic(self, hexagon_target):
        g1 = gain_search(hexagon_target, trials=1000, seed=7)
        g2 = gain_search(hexagon_target, trials=1000, seed=7)
        assert g1 is not None and g2 is not None
        assert all(np.array_equal(a, b) for a, b in zip(g1.blocks, g2.blocks))

    def test_all_distance_target_found_quickly(self):
        rng = np.random.default_rng(73)
        fw = random_framework(rng, 3, 2, graph=K3)
        ts = TripleSet(tuple(distance_triple(i, j) for i, j in K3.edges))
        tgt = FormationTarget(K3, ts, fw.config)
        gain = gain_search(tgt, trials=200, seed=0)
        assert gain is not None
        rep = classify_stability(jacobian_at_target(tgt, gain), 2)
        assert rep.verdict is Verdict.STABLE

    def test_trials_validated(self, hexagon_target):
        with pytest.raises(InputError):
            gain_search(hexagon_target, trials=0, seed=1)

    def test_negative_seed_validated(self, hexagon_target):
        with pytest.raises(InputError, match="seed"):
            gain_search(hexagon_target, trials=10, seed=-5)

    @pytest.mark.parametrize("entries, sizes", [
        (None, [64, 64, 64, 58]),
        (144 * 10, [10] * 25),  # 12x12 Jacobians: at most 10 a block
    ])
    def test_blocks_hold_a_fixed_number_of_trials(self, hexagon_target, monkeypatch,
                                                 entries, sizes):
        """Seed 0 finds nothing in 250 trials, so every block is evaluated."""
        if entries is not None:
            monkeypatch.setattr(control, "_BLOCK_ENTRIES", entries)
        seen = []
        eigvals = np.linalg.eigvals

        def record(a):
            seen.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", record)
        assert gain_search(hexagon_target, trials=250, seed=0) is None
        assert seen == sizes

    @pytest.mark.parametrize("i", range(16))
    def test_matches_per_trial_search_on_pool_seeds(self, hexagon_target, i):
        """Seeds i * 100000 with 250 trials, as the benchmark's searches run:
        the same first-found gain, or none, bit for bit."""
        got = gain_search(hexagon_target, trials=250, seed=i * 100_000)
        assert same_gain_bits(got, reference_gain_search(hexagon_target, 250, i * 100_000))
