import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import reference_integrate, reference_recorder_build
from test_control import random_gain, random_target, triangle_target
from weakrig import (
    Configuration,
    ControllerSpec,
    DivergenceError,
    FitError,
    GainMatrix,
    Graph,
    InputError,
    Law,
    SimulationConfig,
    convergence_rate,
    integrate,
    monitor_invariants,
    numerical_rank,
    shape_distance,
)
from weakrig import simulate
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
        """A count of steps: an integer >= 1, numpy's included, but neither a
        float nor a bool (the JSON reader rejects both too)."""
        spec = ControllerSpec(Law.GRADIENT, hexagon_target)
        for every in (0, -3, 2.5, 3.0, True, np.float64(2.0), "2"):
            with pytest.raises(InputError, match="^record_every must be an integer >= 1$"):
                SimulationConfig(hexagon_target.witness, spec, record_every=every)
        cfg = SimulationConfig(hexagon_target.witness, spec, t_max=0.1, stop_cost=0.0,
                               record_every=np.int64(4))
        assert integrate(cfg).times.tolist() == pytest.approx([0.0, 0.04, 0.08, 0.1])

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

    def test_generic_witness_is_stationary(self):
        """The hexagon above is exact under any dot kernel; a generic 3-D
        witness is an equilibrium only if the target values and the closed
        loop share one, and then neither law moves it at all."""
        tgt = random_target(np.random.default_rng(5), n=5, d=3)
        for spec in (ControllerSpec(Law.GRADIENT, tgt),
                     ControllerSpec(Law.NONGRADIENT, tgt,
                                    random_gain(np.random.default_rng(6), 5, 3))):
            trace = integrate(SimulationConfig(tgt.witness, spec, t_max=1.0, stop_cost=0.0))
            assert trace.termination == "t_max"
            assert np.array_equal(trace.positions,
                                  np.broadcast_to(tgt.witness.points, trace.positions.shape))
            assert not trace.cost.any()

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
        with pytest.raises(DivergenceError, match="^state became non-finite at t = 0.04$") as err:
            integrate(cfg)
        trace = err.value.trace
        assert trace is not None
        assert trace.termination == "diverged"
        assert len(trace) >= 1
        assert np.all(np.isfinite(trace.positions))
        # every field of the partial trace, byte for byte: only the start is
        # recorded before the state leaves the floats
        digest = hashlib.sha256()
        for field in ("times", "positions", "residuals", "residual_norm", "cost",
                      "edge_lengths", "centroid", "min_distance", "rank_p"):
            digest.update(getattr(trace, field).tobytes())
        assert digest.hexdigest() == (
            "87e1126db93fa31c81340d8c3141295c209cac76ea321d5020672d8a87c101c9")

    @pytest.mark.parametrize("law", list(Law))
    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e200])
    def test_far_start_diverges_without_warnings(self, hexagon_target, designed_gain,
                                                 law, scale):
        """Squares of the start overflow in the first velocity evaluation;
        the run still ends in DivergenceError, not a RuntimeWarning, and
        leaves numpy's error state as it found it."""
        before = np.geterr()
        gain = designed_gain if law is Law.NONGRADIENT else None
        cfg = SimulationConfig(Configuration(hexagon_target.witness.points * scale),
                               ControllerSpec(law, hexagon_target, gain))
        with pytest.raises(DivergenceError, match="t = 0.01$") as err:
            integrate(cfg)
        assert err.value.trace.termination == "diverged"
        assert np.all(np.isfinite(err.value.trace.positions))
        assert np.geterr() == before


    @pytest.mark.parametrize("case", ["hexagon_nongradient", "triangle_gradient",
                                      "random_3d_gradient", "random_3d_nongradient"])
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
            if case == "random_3d_gradient":
                spec, t_max = ControllerSpec(Law.GRADIENT, tgt), 0.5
            else:
                # full, non-diagonal gain blocks, so every gain row sums d
                # products; the gain does not stabilize, and the state leaves
                # the floats near t = 0.2, so the run stops at t = 0.1
                spec, t_max = ControllerSpec(Law.NONGRADIENT, tgt, random_gain(rng, 5, 3)), 0.1
            cfg = SimulationConfig(start, spec, t_max=t_max, record_every=1)
        trace = integrate(cfg)
        times, positions, residuals, costs, termination = reference_integrate(cfg)
        assert trace.termination == termination
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.positions, positions)
        assert np.array_equal(trace.residuals, residuals)
        assert np.array_equal(trace.cost, costs)
        if case == "triangle_gradient":
            assert termination == "stop_cost"


class TestRunCounters:
    @pytest.mark.parametrize("run, steps", [("stop_cost", None), ("t_max", 100),
                                            ("stop_at_start", 0), ("diverged", 4)])
    def test_counts_every_field_evaluation(self, run, steps, hexagon_target, designed_gain,
                                           monkeypatch):
        """Each RK4 step evaluates the field four times, and the last state
        once more, however the run ends."""
        calls = []

        class Counted(simulate.ControlEvaluator):
            def __init__(self, spec):
                super().__init__(spec)
                field = self._field

                def counted(x):
                    calls.append(x.shape)
                    return field(x)

                self._field = counted

        monkeypatch.setattr(simulate, "ControlEvaluator", Counted)
        if run == "stop_cost":
            cfg, _ = triangle_run_config(seed=12, t_max=20.0, stop_cost=1e-6)
        elif run == "t_max":
            cfg = hexagon_run_config(hexagon_target, designed_gain, seed=3, t_max=1.0,
                                     stop_cost=0.0)
        elif run == "stop_at_start":
            cfg = SimulationConfig(hexagon_target.witness,
                                   ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain))
        else:
            bad_gain = GainMatrix(tuple(-5.0 * np.eye(2) for _ in range(6)))
            cfg = hexagon_run_config(hexagon_target, bad_gain, seed=5, t_max=50.0)
        if run == "diverged":
            with pytest.raises(DivergenceError) as err:
                integrate(cfg)
            trace = err.value.trace
        else:
            trace = integrate(cfg)
            steps = round(trace.times[-1] / cfg.h) if steps is None else steps
            assert trace.times[-1] == steps * cfg.h
        assert trace.termination == run.replace("stop_at_start", "stop_cost")
        assert trace.steps == steps
        assert trace.evaluations == len(calls) == 4 * steps + 1
        assert set(calls) == {(cfg.initial.n * cfg.initial.d,)}
        assert trace.loop_s >= 0.0 and trace.post_s >= 0.0


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
        assert trace.rank_p.tolist() == [numerical_rank(p - p.mean(axis=0))
                                         for p in trace.positions]


class TestRecorderBuild:
    @pytest.mark.parametrize("n, d, samples, edges", [
        (1, 2, 5, ()),
        (2, 3, 7, ((1, 2),)),
        (5, 3, 40, ((1, 2), (1, 5), (2, 3), (3, 4))),
        (12, 2, 2500, ((1, 2), (2, 3), (3, 12), (4, 7), (5, 6), (6, 11))),  # 3 pair blocks
    ])
    def test_matches_full_difference_array(self, n, d, samples, edges):
        rng = np.random.default_rng(n * 100 + d)
        rec = simulate._Recorder(Graph(n, edges)._ends, samples)
        for t in range(samples):
            pts = rng.uniform(-1.0, 1.0, (n, d))
            if t % 7 == 3:
                pts[-1] = pts[0]  # coincident agents
            rec.add(0.1 * t, pts, rng.normal(size=3), float(t))
        trace = rec.build("t_max")
        elens, min_dist, ranks = reference_recorder_build(edges, trace.positions)
        assert trace.edge_lengths.shape == (samples, len(edges))
        assert np.array_equal(trace.edge_lengths, elens)
        assert np.array_equal(trace.min_distance, min_dist)
        assert np.array_equal(trace.rank_p, ranks)

    def test_hexagon_trace_matches_reference(self, hexagon_target, designed_gain):
        trace = integrate(hexagon_run_config(hexagon_target, designed_gain, seed=5,
                                             t_max=2.0, record_every=1))
        elens, min_dist, ranks = reference_recorder_build(hexagon_target.graph.edges,
                                                          trace.positions)
        assert np.array_equal(trace.edge_lengths, elens)
        assert np.array_equal(trace.min_distance, min_dist)
        assert np.array_equal(trace.rank_p, ranks)

    def test_build_memory_is_bounded(self, hexagon_target, monkeypatch):
        """Post-processing a 20,001-sample hexagon run allocates ~9 MB; the full
        (T, n, n, d) difference array took it to ~27 MB."""
        recorders = []
        build = simulate._Recorder.build

        def keep(rec, termination):
            recorders.append(rec)
            return build(rec, termination)

        monkeypatch.setattr(simulate._Recorder, "build", keep)
        rng = np.random.default_rng(8)
        start = Configuration(hexagon_target.witness.points + rng.normal(0.0, 0.3, (6, 2)))
        cfg = SimulationConfig(start, ControllerSpec(Law.GRADIENT, hexagon_target),
                               t_max=200.0, record_every=1, stop_cost=0.0)
        assert len(integrate(cfg)) == 20001
        tracemalloc.start()
        try:
            build(recorders[0], "t_max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_samples_held_before_build(self, hexagon_target, monkeypatch):
        """A 20,001-sample hexagon run held 9.8 MB as one small ndarray per sample,
        and 6.0 MB in arrays of doubling capacity; capped at the 20,002 samples
        the run can take, they hold 3.7 MB."""
        held = []
        build = simulate._Recorder.build

        def measure(rec, termination):
            held.append(tracemalloc.get_traced_memory()[0])
            return build(rec, termination)

        monkeypatch.setattr(simulate._Recorder, "build", measure)
        rng = np.random.default_rng(8)
        start = Configuration(hexagon_target.witness.points + rng.normal(0.0, 0.3, (6, 2)))
        cfg = SimulationConfig(start, ControllerSpec(Law.GRADIENT, hexagon_target),
                               t_max=200.0, record_every=1, stop_cost=0.0)
        tracemalloc.start()
        try:
            assert len(integrate(cfg)) == 20001
        finally:
            tracemalloc.stop()
        assert held[0] < 4e6

    def test_capacity_stops_at_run_length(self, hexagon_target, monkeypatch):
        """A full-length run fills the recorder to its cap, never past it, and
        its trace is bit-identical to one whose recorder may keep doubling."""
        rng = np.random.default_rng(9)
        start = Configuration(hexagon_target.witness.points + rng.normal(0.0, 0.3, (6, 2)))
        cfg = SimulationConfig(start, ControllerSpec(Law.GRADIENT, hexagon_target),
                               t_max=30.0, record_every=3, stop_cost=0.0)
        cap = cfg.n_steps // cfg.record_every + 2
        capacities = []
        add = simulate._Recorder.add

        def watched(rec, *args):
            add(rec, *args)
            capacities.append(rec._capacity)

        monkeypatch.setattr(simulate._Recorder, "add", watched)
        capped = integrate(cfg)
        assert len(capped) == cap - 1 and max(capacities) == cap
        init = simulate._Recorder.__init__
        monkeypatch.setattr(simulate._Recorder, "__init__",
                            lambda rec, ends, _: init(rec, ends, 10**9))
        capacities.clear()
        uncapped = integrate(cfg)
        assert max(capacities) == 1024
        for field in ("times", "positions", "residuals", "residual_norm", "cost",
                      "edge_lengths", "centroid", "min_distance", "rank_p"):
            assert np.array_equal(getattr(capped, field), getattr(uncapped, field)), field
        assert capped.termination == uncapped.termination == "t_max"


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
        assert trace.rank_p[0] == 2
        assert report.collision_events == 0

    def test_rank_drop_is_flagged(self):
        """Points that fall onto a line lower the rank of the centered points
        from 2 to 1 partway through the trace."""
        rec = simulate._Recorder(Graph(3, ((1, 2), (2, 3)))._ends, 4)
        plane = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        line = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        for t, pts in enumerate((plane, plane, line)):
            rec.add(0.1 * t, pts, np.zeros(2), 0.0)
        trace = rec.build("t_max")
        assert trace.rank_p.tolist() == [2, 2, 1]
        assert not monitor_invariants(trace, Law.GRADIENT).rank_constant

    def test_collinear_start_keeps_centered_rank_one(self):
        """A collinear start off the origin stays on its line under the
        gradient law (every velocity is a sum of edge vectors along it). The
        point matrix has rank 2 there, but the centered points rank 1."""
        pts = np.array([[0.0, 1.0], [1.0, 1.0], [2.5, 1.0]])
        cfg = SimulationConfig(Configuration(pts), ControllerSpec(Law.GRADIENT, triangle_target()),
                               t_max=2.0)
        trace = integrate(cfg)
        assert numerical_rank(trace.positions[0]) == 2
        assert trace.rank_p.tolist() == [1] * len(trace)
        assert monitor_invariants(trace, Law.GRADIENT).rank_constant

    def test_nongradient_flagged(self, hexagon_target, designed_gain):
        cfg = hexagon_run_config(hexagon_target, designed_gain, seed=42, t_max=5.0)
        report = monitor_invariants(integrate(cfg), Law.NONGRADIENT)
        assert not report.centroid_conserved_expected
