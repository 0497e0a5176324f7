import numpy as np
import pytest

from helpers import reference_integrate
from test_control import random_target, triangle_target
from weakrig import (
    Configuration,
    ControllerSpec,
    DivergenceError,
    FitError,
    GainMatrix,
    InputError,
    Law,
    SimulationConfig,
    convergence_rate,
    integrate,
    monitor_invariants,
    numerical_rank,
    shape_distance,
)
from weakrig.simulate import MAX_STEPS


def hexagon_run_config(target, gain, seed, **kwargs):
    rng = np.random.default_rng(seed)
    start = Configuration(target.witness.points + rng.uniform(-0.1, 0.1, (6, 2)))
    spec = ControllerSpec(Law.NONGRADIENT, target, gain)
    return SimulationConfig(start, spec, **kwargs)


def triangle_run_config(seed, **kwargs):
    tgt = triangle_target()
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        u = pts[1] - pts[0]
        v = pts[2] - pts[0]
        cross = abs(u[0] * v[1] - u[1] * v[0])
        if cross > 0.05 * np.linalg.norm(u) * np.linalg.norm(v):
            break
    spec = ControllerSpec(Law.GRADIENT, tgt)
    return SimulationConfig(Configuration(pts), spec, **kwargs), tgt


class TestConfigValidation:
    def test_bad_step(self, hexagon_target, designed_gain):
        spec = ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain)
        with pytest.raises(InputError):
            SimulationConfig(hexagon_target.witness, spec, h=0.0)

    def test_bad_record_every(self, hexagon_target):
        spec = ControllerSpec(Law.GRADIENT, hexagon_target)
        with pytest.raises(InputError):
            SimulationConfig(hexagon_target.witness, spec, record_every=0)

    def test_initial_size_mismatch(self, hexagon_target):
        spec = ControllerSpec(Law.GRADIENT, hexagon_target)
        with pytest.raises(InputError):
            SimulationConfig(Configuration(np.zeros((3, 2))), spec)

    def test_step_count_is_bounded(self, hexagon_target):
        spec = ControllerSpec(Law.GRADIENT, hexagon_target)
        start = hexagon_target.witness
        assert SimulationConfig(start, spec, h=0.01, t_max=1e5).n_steps == MAX_STEPS
        with pytest.raises(InputError, match="1e\\+07 RK4 steps"):
            SimulationConfig(start, spec, h=0.01, t_max=1e5 + 0.01)
        with pytest.raises(InputError, match="1e\\+14 RK4 steps"):
            SimulationConfig(start, spec, h=0.01, t_max=1e12)
        with pytest.raises(InputError, match="inf RK4 steps"):
            SimulationConfig(start, spec, h=5e-324, t_max=1e300)


class TestIntegrate:
    def test_equilibrium_stops_immediately(self, hexagon_target, designed_gain):
        spec = ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain)
        trace = integrate(SimulationConfig(hexagon_target.witness, spec))
        assert trace.termination == "stop_cost"
        assert len(trace) == 1
        assert trace.times[0] == 0.0

    def test_equilibrium_is_stationary(self, hexagon_target, designed_gain):
        spec = ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain)
        cfg = SimulationConfig(hexagon_target.witness, spec, t_max=2.0, stop_cost=0.0)
        trace = integrate(cfg)
        assert trace.termination == "t_max"
        drift = np.max(np.abs(trace.positions - trace.positions[0]))
        assert drift <= 1e-12
        assert np.max(trace.cost) <= 1e-20

    def test_hexagon_run_converges(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=1)
        trace = integrate(cfg)
        assert trace.cost[-1] < 1e-6
        assert np.max(np.abs(trace.edge_lengths[-1] - 2.0)) < 1e-3
        final = Configuration(trace.positions[-1])
        assert shape_distance(final, hexagon_target.witness) <= 1e-3

    def test_identity_gain_run_fails_to_decay(self, hexagon_target):
        # The identity gain leaves one linearized mode unstable; a generic
        # perturbation settles on a spurious plateau instead of the target.
        spec = ControllerSpec(Law.NONGRADIENT, hexagon_target,
                              GainMatrix.identity(6, 2))
        rng = np.random.default_rng(0)
        start = Configuration(hexagon_target.witness.points
                              + rng.uniform(-0.1, 0.1, (6, 2)))
        trace = integrate(SimulationConfig(start, spec, stop_cost=0.0))
        assert trace.termination == "t_max"
        assert trace.cost[-1] > 1e-2
        assert convergence_rate(trace, window=100) >= -1e-3

    def test_triangle_gradient_converges_to_shape(self):
        cfg, tgt = triangle_run_config(seed=2, t_max=200.0, stop_cost=1e-16)
        trace = integrate(cfg)
        assert trace.termination == "stop_cost"
        final = Configuration(trace.positions[-1])
        assert shape_distance(final, tgt.witness) <= 1e-6

    def test_deterministic(self, hexagon_target, designed_gain):
        t1 = integrate(hexagon_run_config(hexagon_target, designed_gain, seed=3,
                                          t_max=5.0))
        t2 = integrate(hexagon_run_config(hexagon_target, designed_gain, seed=3,
                                          t_max=5.0))
        assert np.array_equal(t1.positions, t2.positions)
        assert np.array_equal(t1.cost, t2.cost)

    def test_sampling_follows_record_every(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=3, t_max=1.0,
                                 record_every=25, stop_cost=0.0)
        trace = integrate(cfg)
        assert np.allclose(np.diff(trace.times), 0.25)
        assert trace.times[-1] == pytest.approx(1.0)

    def test_step_halving_fourth_order(self, hexagon_target, designed_gain):
        ends = []
        for h in (0.04, 0.02, 0.01):
            cfg = hexagon_run_config(hexagon_target, designed_gain, seed=3,
                                     h=h, t_max=2.0, stop_cost=0.0)
            ends.append(integrate(cfg).positions[-1])
        d1 = np.max(np.abs(ends[0] - ends[1]))
        d2 = np.max(np.abs(ends[1] - ends[2]))
        assert d1 / d2 >= 8.0

    def test_gradient_cost_non_increasing(self):
        cfg, _ = triangle_run_config(seed=4, t_max=30.0, stop_cost=0.0,
                                     record_every=5)
        trace = integrate(cfg)
        assert np.all(np.diff(trace.cost) <= 1e-10)

    def test_nongradient_centroid_drifts(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=42)
        trace = integrate(cfg)
        drift = np.max(np.linalg.norm(trace.centroid - trace.centroid[0], axis=1))
        assert drift > 1e-6

    def test_divergence_carries_partial_trace(self, hexagon_target):
        bad_gain = GainMatrix(tuple(-5.0 * np.eye(2) for _ in range(6)))
        cfg = hexagon_run_config(hexagon_target, bad_gain, seed=5, t_max=50.0)
        with pytest.raises(DivergenceError) as err:
            integrate(cfg)
        trace = err.value.trace
        assert trace is not None
        assert trace.termination == "diverged"
        assert len(trace) >= 1
        assert np.all(np.isfinite(trace.positions))


    @pytest.mark.parametrize("case", ["hexagon_nongradient", "triangle_gradient",
                                      "random_3d_gradient"])
    def test_matches_reference_rk4(self, case, hexagon_target, designed_gain):
        if case == "hexagon_nongradient":
            cfg = hexagon_run_config(hexagon_target, designed_gain, seed=11, t_max=1.0,
                                     record_every=3)
        elif case == "triangle_gradient":
            cfg, _ = triangle_run_config(seed=12, t_max=20.0, stop_cost=1e-6)
        else:
            rng = np.random.default_rng(13)
            tgt = random_target(rng, n=5, d=3)
            start = Configuration(tgt.witness.points + rng.uniform(-0.2, 0.2, (5, 3)))
            cfg = SimulationConfig(start, ControllerSpec(Law.GRADIENT, tgt),
                                   t_max=0.5, record_every=1)
        trace = integrate(cfg)
        times, positions, residuals, costs, termination = reference_integrate(cfg)
        assert trace.termination == termination
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.positions, positions)
        assert np.array_equal(trace.residuals, residuals)
        assert np.array_equal(trace.cost, costs)
        if case == "triangle_gradient":
            assert termination == "stop_cost"


class TestStackedRank:
    def test_matches_per_sample_rank(self):
        rng = np.random.default_rng(21)
        stack = rng.uniform(-1.0, 1.0, (30, 6, 2))
        stack[4] = 0.0
        stack[9] = np.outer(rng.uniform(-1.0, 1.0, 6), [0.6, -0.8])
        stack[17, :, 1] = 1e-13 * stack[17, :, 0]
        ranks = numerical_rank(stack)
        assert ranks.tolist() == [numerical_rank(p) for p in stack]
        assert (ranks[4], ranks[9], ranks[17]) == (0, 1, 1)
        assert numerical_rank(stack.reshape(5, 6, 6, 2)).tolist() == ranks.reshape(5, 6).tolist()

    def test_trace_rank_matches_per_sample_rank(self, hexagon_target, designed_gain):
        trace = integrate(hexagon_run_config(hexagon_target, designed_gain, seed=3,
                                             t_max=1.0))
        assert trace.rank_p.tolist() == [numerical_rank(p) for p in trace.positions]


class TestConvergenceRate:
    def test_negative_slope_on_converging_run(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=1)
        trace = integrate(cfg)
        assert convergence_rate(trace, window=20) < 0.0

    def test_stationary_run_fit_error(self, hexagon_target, designed_gain):
        spec = ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain)
        cfg = SimulationConfig(hexagon_target.witness, spec, t_max=1.0, stop_cost=0.0)
        trace = integrate(cfg)
        with pytest.raises(FitError):
            convergence_rate(trace, window=5)

    def test_window_too_large(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=1, t_max=1.0)
        trace = integrate(cfg)
        with pytest.raises(FitError):
            convergence_rate(trace, window=len(trace) + 1)

    def test_window_too_small(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=1, t_max=1.0)
        trace = integrate(cfg)
        with pytest.raises(FitError):
            convergence_rate(trace, window=1)


class TestMonitorInvariants:
    def test_gradient_triangle_run(self):
        cfg, _ = triangle_run_config(seed=6, t_max=100.0, stop_cost=1e-16,
                                     record_every=5)
        trace = integrate(cfg)
        report = monitor_invariants(trace, Law.GRADIENT)
        assert report.centroid_conserved_expected
        assert report.max_centroid_drift <= 1e-9
        assert report.min_inter_agent_distance > 0.0
        assert report.rank_constant
        assert report.rank_values[0] == 2
        assert report.collision_events == 0

    def test_nongradient_flagged(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=42, t_max=5.0)
        report = monitor_invariants(integrate(cfg), Law.NONGRADIENT)
        assert not report.centroid_conserved_expected
