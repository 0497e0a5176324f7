"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 3 is a known-red check: the slowest closed-loop mode certified by
criterion 2 (eigenvalues 0.1053 +/- 0.1757i) gives the cost a time constant
of ~4.75, so a fixed 0.1-magnitude perturbation typically needs t ~ 55-100
to push V below 1e-6; the t = 50 deadline fails for roughly 8 of 20 seeds.
The run table is printed so the failure is auditable; see the README.
"""

import time
from itertools import combinations

import numpy as np

from conftest import EIGS_DESIGNED_GAIN, EIGS_IDENTITY_GAIN
from helpers import (
    fd_gradient,
    fd_jacobian,
    from_stacked,
    local_cost,
    random_connected_graph,
    random_framework,
    rel_err,
    residuals,
    rigid_transform,
    spans_full_dimension,
    total_cost,
)
from test_control import triangle_target
from weakrig import (
    Configuration,
    ControlEvaluator,
    ControllerSpec,
    FormationTarget,
    Framework,
    GainMatrix,
    Graph,
    Law,
    SimulationConfig,
    TripleSet,
    Verdict,
    barred_weak_rigidity_matrix,
    check_planar_graphical_condition,
    classify_stability,
    congruent,
    convergence_rate,
    edge_weak_rigidity_matrix,
    full_triple_set,
    gram,
    integrate,
    is_connected,
    is_infinitesimally_weakly_rigid,
    jacobian_at_target,
    min_iwr_spanning_tree,
    minimal_triple_set,
    monitor_invariants,
    recover_shape,
    shape_distance,
    sort_eigenvalues,
    trivial_motion_basis,
    weak_rigidity_function,
    weak_rigidity_matrix,
    weakly_congruent,
)


def _verdict(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_identity_gain_eigenvalues(hexagon_target):
    start = time.perf_counter()
    j = jacobian_at_target(hexagon_target, GainMatrix.identity(6, 2))
    got = sort_eigenvalues(np.linalg.eigvals(j))
    expected = sort_eigenvalues(EIGS_IDENTITY_GAIN)
    worst = float(np.max(np.abs(got - expected)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 1.0
    _verdict(1, ok, f"max eigenvalue deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_designed_gain_eigenvalues(hexagon_target, designed_gain):
    start = time.perf_counter()
    j = jacobian_at_target(hexagon_target, designed_gain)
    report = classify_stability(j, 2)
    expected = sort_eigenvalues(EIGS_DESIGNED_GAIN)
    worst = float(np.max(np.abs(report.eigenvalues - expected)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and report.verdict is Verdict.STABLE and elapsed < 1.0
    _verdict(2, ok, f"max deviation {worst:.2e}, verdict {report.verdict.value}, "
                    f"{elapsed:.3f}s")


def test_criterion_3_hexagon_simulation_ensemble(hexagon_target, designed_gain):
    start = time.perf_counter()
    spec = ControllerSpec(Law.NONGRADIENT, hexagon_target, designed_gain)
    converged = 0
    edges_ok = 0
    slopes_ok = 0
    worst_v = 0.0
    rows = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        start_pts = hexagon_target.witness.points + rng.uniform(-0.1, 0.1, (6, 2))
        cfg = SimulationConfig(Configuration(start_pts), spec,
                               t_max=50.0, stop_cost=1e-6)
        trace = integrate(cfg)
        reached = trace.termination == "stop_cost"
        edge_err = float(np.max(np.abs(trace.edge_lengths[-1] - 2.0)))
        # window spans a full period of the slow oscillatory mode so the
        # least-squares slope reflects the decay envelope
        slope = convergence_rate(trace, window=min(len(trace), 360))
        converged += reached
        edges_ok += edge_err < 1e-3
        slopes_ok += slope < 0.0
        worst_v = max(worst_v, float(trace.cost[-1]))
        rows.append(f"  seed {seed:2d}: final V {trace.cost[-1]:.2e} at "
                    f"t={trace.times[-1]:5.1f}, edge err {edge_err:.1e}, "
                    f"slope {slope:+.3f}")
    elapsed = time.perf_counter() - start
    print()
    print("\n".join(rows))
    ok = (converged == 20 and edges_ok == 20 and slopes_ok == 20 and elapsed < 10.0)
    _verdict(3, ok, f"{converged}/20 reached V<1e-6 by t=50, {edges_ok}/20 edge "
                    f"lengths within 1e-3, {slopes_ok}/20 negative slopes, worst "
                    f"final V {worst_v:.2e}, {elapsed:.1f}s")


def test_criterion_4_graphical_oracle_agreement():
    rng = np.random.default_rng(2026)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        fw = Framework(g, Configuration(rng.uniform(-1.0, 1.0, (n, 2))))
        graphical = check_planar_graphical_condition(fw)
        rank_based = is_infinitesimally_weakly_rigid(fw, full_triple_set(g))
        disagreements += graphical != rank_based
    _verdict(4, disagreements == 0, f"{200 - disagreements}/200 agreements")


def test_criterion_5_constructive_algorithms():
    rng = np.random.default_rng(2027)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        fw = random_framework(rng, n, 2)
        if not check_planar_graphical_condition(fw):
            failures += 1
            continue
        tree = min_iwr_spanning_tree(fw)
        tree_fw = Framework(tree, fw.config)
        tree_ok = (tree.m == n - 1
                   and is_infinitesimally_weakly_rigid(tree_fw, full_triple_set(tree)))
        tdag = minimal_triple_set(tree, fw.config)
        rank = np.linalg.matrix_rank(weak_rigidity_matrix(fw, tdag))
        if not (tree_ok and tdag.s == 2 * n - 3 and rank == 2 * n - 3):
            failures += 1
    _verdict(5, failures == 0, f"{100 - failures}/100 frameworks: minimally "
                               f"rigid tree, 2n-3 triples, full rank")


def test_criterion_6_triangle_almost_global_stability():
    start = time.perf_counter()
    tgt = triangle_target()
    spec = ControllerSpec(Law.GRADIENT, tgt)
    worst_shape = 0.0
    worst_drift = 0.0
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        while True:
            pts = rng.uniform(-1.0, 1.0, (3, 2))
            u, v = pts[1] - pts[0], pts[2] - pts[0]
            cross = abs(u[0] * v[1] - u[1] * v[0])
            if cross > 0.05 * np.linalg.norm(u) * np.linalg.norm(v):
                break
        cfg = SimulationConfig(Configuration(pts), spec, t_max=300.0,
                               stop_cost=1e-16, record_every=5)
        trace = integrate(cfg)
        report = monitor_invariants(trace, Law.GRADIENT)
        final_shape = shape_distance(Configuration(trace.positions[-1]), tgt.witness)
        worst_shape = max(worst_shape, final_shape)
        worst_drift = max(worst_drift, report.max_centroid_drift)
        good = (trace.termination == "stop_cost"
                and final_shape <= 1e-6
                and report.min_inter_agent_distance > 0.0
                and report.max_centroid_drift <= 1e-9
                and report.rank_constant)
        if not good:
            failures.append(seed)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _verdict(6, ok, f"{100 - len(failures)}/100 runs converged, worst shape "
                    f"distance {worst_shape:.1e}, worst centroid drift "
                    f"{worst_drift:.1e}, {elapsed:.1f}s")


def test_criterion_7_congruence_equivalence_and_round_trip():
    rng = np.random.default_rng(2028)
    disagreements = 0
    for _ in range(500):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 9))
        p = Configuration(rng.uniform(-1.0, 1.0, (n, d)))
        if rng.random() < 0.5:
            q = rigid_transform(rng, p, reflect=bool(rng.random() < 0.5))
        else:
            pts = p.points.copy()
            pts[int(rng.integers(0, n))] += rng.uniform(0.01, 0.5, d)
            q = Configuration(pts)
        complete = Graph(n, tuple((i, j) for i in range(1, n + 1)
                                  for j in range(i + 1, n + 1)))
        c = congruent(p, q)
        w = weakly_congruent(p, q)
        g_equal = (n == 1 or float(np.max(np.abs(
            gram(Framework(complete, p)) - gram(Framework(complete, q))))) <= 1e-8)
        disagreements += not (c == w == g_equal)

    round_trip_failures = 0
    done = 0
    while done < 100:
        d = int(rng.integers(2, 4))
        fw = random_framework(rng, int(rng.integers(d + 1, 9)), d)
        if not spans_full_dimension(fw.config):
            continue
        done += 1
        rec = recover_shape(gram(fw), fw.graph, d)
        if shape_distance(rec, fw.config) > 1e-8:
            round_trip_failures += 1
    ok = disagreements == 0 and round_trip_failures == 0
    _verdict(7, ok, f"{500 - disagreements}/500 equivalence agreements, "
                    f"{100 - round_trip_failures}/100 round trips within 1e-8")


def test_criterion_8_spatial_counterexamples(fourcycle_3d, path_3d):
    cycle_graph, cycle_triples = fourcycle_3d
    path_graph, path_triples = path_3d
    rng = np.random.default_rng(2029)
    failures = 0
    trees = [Graph(4, keep) for keep in combinations(cycle_graph.edges, 3)
             if is_connected(Graph(4, keep))]
    assert len(trees) == 4
    for _ in range(20):
        fw = Framework(cycle_graph, Configuration(rng.uniform(-1, 1, (4, 3))))
        if np.linalg.matrix_rank(weak_rigidity_matrix(fw, cycle_triples)) != 6:
            failures += 1
        for tree in trees:
            r = edge_weak_rigidity_matrix(fw, tree, cycle_triples)
            if np.linalg.matrix_rank(r) >= 6:
                failures += 1
        path_fw = Framework(path_graph, Configuration(rng.uniform(-1, 1, (4, 3))))
        if np.linalg.matrix_rank(weak_rigidity_matrix(path_fw, path_triples)) >= 6:
            failures += 1
    _verdict(8, failures == 0, f"20 configurations: 4-cycle rank 6, every tree "
                               f"restriction deficient, path rank < 6; "
                               f"{failures} failures")


def test_criterion_9_differential_consistency():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        fw = random_framework(rng, n, 2)
        tgt = FormationTarget(fw.graph, full_triple_set(fw.graph), fw.config)
        gain = GainMatrix(tuple(rng.uniform(-1.5, 1.5, (2, 2)) for _ in range(n)))
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        p = Configuration(pts)
        flat = pts.reshape(-1)

        rw = weak_rigidity_matrix(Framework(fw.graph, p), tgt.triples)
        fd_rw = fd_jacobian(
            lambda x: weak_rigidity_function(
                Framework(fw.graph, from_stacked(x, 2)), tgt.triples),
            flat)
        worst = max(worst, rel_err(rw, fd_rw))

        stacked = barred_weak_rigidity_matrix(p, tgt).T @ residuals(p, tgt)
        fd_barred = np.concatenate([
            fd_gradient(
                lambda x, i=i: local_cost(
                    i, from_stacked(
                        np.concatenate([flat[:(i - 1) * 2], x, flat[i * 2:]]), 2),
                    tgt),
                pts[i - 1])
            for i in range(1, n + 1)
        ])
        worst = max(worst, rel_err(stacked, fd_barred))

        u_grad = ControlEvaluator(ControllerSpec(Law.GRADIENT, tgt)).velocity(pts).reshape(-1)
        fd_grad = -fd_gradient(
            lambda x: total_cost(from_stacked(x, 2), tgt), flat)
        worst = max(worst, rel_err(u_grad, fd_grad))

        u_non = ControlEvaluator(ControllerSpec(Law.NONGRADIENT, tgt, gain)).velocity(pts)
        expected = np.stack([-gain.blocks[i] @ fd_barred[2 * i:2 * i + 2]
                             for i in range(n)])
        worst = max(worst, rel_err(u_non, expected))
    _verdict(9, worst <= 1e-6, f"worst relative error {worst:.2e} over 100 states")


def test_criterion_10_trivial_motion_annihilation():
    rng = np.random.default_rng(2031)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        fw = random_framework(rng, int(rng.integers(d + 1, 9)), d)
        full = full_triple_set(fw.graph)
        kept = tuple(t for t in full.triples if rng.random() < 0.7)
        ts = TripleSet(kept if kept else full.triples[:1])
        rw = weak_rigidity_matrix(fw, ts)
        basis = trivial_motion_basis(fw.config)
        resid = float(np.max(np.abs(rw @ basis))) / max(1.0, float(np.max(np.abs(rw))))
        worst = max(worst, resid)
    _verdict(10, worst <= 1e-10, f"worst relative residual {worst:.2e} over 200 "
                                 f"frameworks")
