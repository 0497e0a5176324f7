"""Fixed-step RK4 integration of the closed-loop formation system.

A single run is deterministic for a given configuration; traces carry the
diagnostics needed to check conservation laws after the fact (cost, residuals,
edge lengths, centroid, pairwise distances, rank of the point matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlEvaluator, ControllerSpec, Law
from .errors import DivergenceError, FitError, InputError
from .framework import Configuration
from .linalg import numerical_rank

COLLISION_THRESHOLD = 1e-9
MAX_STEPS = 10**7


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    initial: Configuration
    controller: ControllerSpec
    h: float = 0.01
    t_max: float = 50.0
    record_every: int = 10
    stop_cost: float = 1e-12

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise InputError("step h must be positive and finite")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise InputError("t_max must be positive and finite")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")
        if not (self.stop_cost >= 0 and math.isfinite(self.stop_cost)):
            raise InputError("stop_cost must be finite and >= 0")
        if self.t_max / self.h - 1e-9 > MAX_STEPS:
            raise InputError(f"t_max / h asks for {self.t_max / self.h:.6g} RK4 steps; "
                             f"the limit is {MAX_STEPS}")
        tgt = self.controller.target
        if self.initial.n != tgt.n or self.initial.d != tgt.d:
            raise InputError("initial configuration does not match the target")

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.t_max / self.h - 1e-9))


@dataclass(eq=False)
class SimulationTrace:
    times: np.ndarray          # (T,)
    positions: np.ndarray      # (T, n, d)
    residuals: np.ndarray      # (T, s)
    residual_norm: np.ndarray  # (T,)
    cost: np.ndarray           # (T,)
    edge_lengths: np.ndarray   # (T, m)
    centroid: np.ndarray       # (T, d)
    min_distance: np.ndarray   # (T,)
    rank_p: np.ndarray         # (T,)
    termination: str

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class InvariantReport:
    max_centroid_drift: float
    centroid_conserved_expected: bool
    rank_constant: bool
    rank_values: tuple[int, ...]
    min_inter_agent_distance: float
    collision_events: int


class _Recorder:
    def __init__(self, edges):
        self._edges = edges
        self.times = []
        self.positions = []
        self.residuals = []
        self.costs = []

    def add(self, t: float, pts: np.ndarray, delta: np.ndarray, cost: float):
        self.times.append(t)
        self.positions.append(pts.copy())
        self.residuals.append(delta.copy())
        self.costs.append(cost)

    def build(self, termination: str) -> SimulationTrace:
        pos = np.array(self.positions)
        res = np.array(self.residuals)
        costs = np.array(self.costs)
        nsamp = pos.shape[0]
        elens = np.zeros((nsamp, len(self._edges)))
        for col, (i, j) in enumerate(self._edges):
            elens[:, col] = np.linalg.norm(pos[:, i - 1] - pos[:, j - 1], axis=1)
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        dists = np.sqrt(np.einsum("tijk,tijk->tij", diff, diff))
        iu = np.triu_indices(pos.shape[1], k=1)
        min_dist = (dists[:, iu[0], iu[1]].min(axis=1)
                    if iu[0].size else np.full(nsamp, np.inf))
        ranks = numerical_rank(pos)
        return SimulationTrace(
            times=np.array(self.times),
            positions=pos,
            residuals=res,
            residual_norm=np.sqrt(2.0 * costs),
            cost=costs,
            edge_lengths=elens,
            centroid=pos.mean(axis=1),
            min_distance=min_dist,
            rank_p=ranks,
            termination=termination,
        )


def integrate(cfg: SimulationConfig) -> SimulationTrace:
    """Classical RK4 with fixed step, recording every record_every-th step plus
    the final state; stops early once the cost falls below stop_cost.

    Raises DivergenceError (carrying the partial trace) if the state leaves
    the finite floats.
    """
    ev = ControlEvaluator(cfg.controller)
    rec = _Recorder(cfg.controller.target.graph.edges)
    pts = cfg.initial.points.copy()
    h = cfg.h
    n_steps = cfg.n_steps

    # the velocity at the current state doubles as the next step's first stage
    vel, delta = ev.velocity_and_residuals(pts)
    cost = 0.5 * float(delta @ delta)
    rec.add(0.0, pts, delta, cost)
    if cost < cfg.stop_cost:
        return rec.build("stop_cost")

    termination = "t_max"
    for step in range(1, n_steps + 1):
        k1 = vel
        k2 = ev.velocity(pts + 0.5 * h * k1)
        k3 = ev.velocity(pts + 0.5 * h * k2)
        k4 = ev.velocity(pts + h * k3)
        pts = pts + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * h
        if not np.isfinite(pts).all():
            raise DivergenceError(
                f"state became non-finite at t = {t:.6g}", rec.build("diverged")
            )
        vel, delta = ev.velocity_and_residuals(pts)
        cost = 0.5 * float(delta @ delta)
        stop = cost < cfg.stop_cost
        if stop or step % cfg.record_every == 0 or step == n_steps:
            rec.add(t, pts, delta, cost)
        if stop:
            termination = "stop_cost"
            break
    return rec.build(termination)


def convergence_rate(trace: SimulationTrace, window: int) -> float:
    """Least-squares slope of ln V over the trailing ``window`` samples.

    A negative slope certifies exponential decay empirically. Raises FitError
    if the window does not fit or the cost is not strictly positive on it.
    """
    if window < 2:
        raise FitError("window must contain at least 2 samples")
    if window > len(trace):
        raise FitError(f"window {window} exceeds the {len(trace)} recorded samples")
    v = trace.cost[-window:]
    if np.any(v <= 0.0):
        raise FitError("cost reaches zero inside the fit window")
    t = trace.times[-window:]
    slope, _ = np.polyfit(t, np.log(v), 1)
    return float(slope)


def monitor_invariants(trace: SimulationTrace, law: Law) -> InvariantReport:
    """Post-hoc conservation report: centroid drift (a gradient-law invariant),
    rank of the point matrix, and minimum inter-agent distance."""
    drift = float(np.max(np.linalg.norm(trace.centroid - trace.centroid[0], axis=1)))
    ranks = tuple(int(r) for r in trace.rank_p)
    min_dist = float(trace.min_distance.min())
    return InvariantReport(
        max_centroid_drift=drift,
        centroid_conserved_expected=(law is Law.GRADIENT),
        rank_constant=all(r == ranks[0] for r in ranks),
        rank_values=ranks,
        min_inter_agent_distance=min_dist,
        collision_events=int(np.count_nonzero(trace.min_distance < COLLISION_THRESHOLD)),
    )
