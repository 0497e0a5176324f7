"""Fixed-step RK4 integration of the closed-loop formation system.

A single run is deterministic for a given configuration; traces carry the
diagnostics needed to check conservation laws after the fact (cost, residuals,
edge lengths, centroid, pairwise distances, rank of the centered points).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .control import ControlEvaluator, ControllerSpec, Law
from .errors import DivergenceError, FitError, InputError
from .framework import Configuration
from .linalg import numerical_rank

COLLISION_THRESHOLD = 1e-9
MAX_STEPS = 10**7
_PAIR_BLOCK = 2**16  # vertex pairs per block of the minimum-distance pass
_FIRST_CAPACITY = 64  # recorded samples before the recorder's first doubling


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
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise InputError("record_every must be an integer >= 1")
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
    steps: int = 0             # RK4 steps taken
    evaluations: int = 0       # closed-loop field evaluations, 4 * steps + 1
    loop_s: float = 0.0        # seconds in the step loop
    post_s: float = 0.0        # seconds building the trace from the samples

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class InvariantReport:
    max_centroid_drift: float
    centroid_conserved_expected: bool
    rank_constant: bool
    min_inter_agent_distance: float
    collision_events: int


class _Recorder:
    """Samples in arrays whose capacity doubles when full, up to the most
    samples the run can take, so memory follows the samples taken."""

    def __init__(self, ends, max_samples: int):
        self._ends = ends  # 0-based edge ends, as Graph._ends
        self._max = max_samples
        self._size = self._capacity = 0
        self._data = ()  # times (T,), positions (T, n, d), residuals (T, s), costs (T,)

    def add(self, t: float, pts: np.ndarray, delta: np.ndarray, cost: float):
        k = self._size
        sample = (t, pts, delta, cost)
        if k == self._capacity:
            self._capacity = min(max(2 * k, _FIRST_CAPACITY), self._max)
            grown = [np.empty((self._capacity,) + np.shape(x)) for x in sample]
            for new, old in zip(grown, self._data):
                new[:k] = old
            self._data = grown
        times, positions, residuals, costs = self._data
        times[k], positions[k], residuals[k], costs[k] = sample
        self._size = k + 1

    def build(self, termination: str) -> SimulationTrace:
        times, pos, res, costs = (a[:self._size].copy() for a in self._data)
        i, j = self._ends
        elens = np.linalg.norm(pos[:, i] - pos[:, j], axis=2)
        # the n(n-1)/2 vertex pairs i < j, in blocks of samples of bounded size
        iu = np.triu_indices(pos.shape[1], k=1)
        min_dist = np.full(pos.shape[0], np.inf)
        block = max(1, _PAIR_BLOCK // max(1, iu[0].size))
        for lo in range(0, pos.shape[0] if iu[0].size else 0, block):
            diff = pos[lo:lo + block, iu[0]] - pos[lo:lo + block, iu[1]]
            min_dist[lo:lo + block] = np.sqrt(np.einsum("tpk,tpk->tp", diff, diff)).min(axis=1)
        centroid = pos.mean(axis=1)
        return SimulationTrace(
            times=times,
            positions=pos,
            residuals=res,
            residual_norm=np.sqrt(2.0 * costs),
            cost=costs,
            edge_lengths=elens,
            centroid=centroid,
            min_distance=min_dist,
            rank_p=numerical_rank(pos - centroid[:, None]),
            termination=termination,
        )


def _finish(rec: _Recorder, termination: str, steps: int, start: float) -> SimulationTrace:
    """The trace of a run that took ``steps`` RK4 steps, four field evaluations
    each plus one at the last state, in a loop that began at ``start``."""
    loop_end = time.perf_counter()
    trace = rec.build(termination)
    trace.steps, trace.evaluations = steps, 4 * steps + 1
    trace.loop_s, trace.post_s = loop_end - start, time.perf_counter() - loop_end
    return trace


@np.errstate(over="ignore", invalid="ignore")
def integrate(cfg: SimulationConfig) -> SimulationTrace:
    """Classical RK4 with fixed step, recording every record_every-th step plus
    the final state; stops early once the cost falls below stop_cost.

    Raises DivergenceError (carrying the partial trace) if the state leaves
    the finite floats; floating-point overflow on the way there is silent.
    """
    field = ControlEvaluator(cfg.controller)._field
    h, n_steps, every, stop_cost = cfg.h, cfg.n_steps, cfg.record_every, cfg.stop_cost
    half, sixth, shape = 0.5 * h, h / 6.0, cfg.initial.points.shape
    # the start, every record_every-th step, and a last step or stop between them
    rec = _Recorder(cfg.controller.target.graph._ends, n_steps // every + 2)
    pts = cfg.initial.points.flatten()
    start = time.perf_counter()
    for step in range(n_steps + 1):
        # the velocity at the current state doubles as the next step's first stage
        vel, delta = field(pts)
        cost = 0.5 * float(delta @ delta)
        # a non-finite coordinate of a vertex in a triple reaches that triple's
        # residual, and a vertex in no triple never moves: a finite cost means
        # a finite state, so only a non-finite cost needs the full scan
        if not math.isfinite(cost) and not np.isfinite(pts).all():
            raise DivergenceError(f"state became non-finite at t = {step * h:.6g}",
                                  _finish(rec, "diverged", step, start))
        stop = cost < stop_cost
        if stop or step % every == 0 or step == n_steps:
            rec.add(step * h, pts.reshape(shape), delta, cost)
        if stop or step == n_steps:
            return _finish(rec, "stop_cost" if stop else "t_max", step, start)
        k2 = field(pts + half * vel)[0]
        k3 = field(pts + half * k2)[0]
        k4 = field(pts + h * k3)[0]
        pts = pts + sixth * (vel + 2.0 * k2 + 2.0 * k3 + k4)


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
    rank of the centered points, and minimum inter-agent distance."""
    drift = float(np.max(np.linalg.norm(trace.centroid - trace.centroid[0], axis=1)))
    return InvariantReport(
        max_centroid_drift=drift,
        centroid_conserved_expected=(law is Law.GRADIENT),
        rank_constant=bool((trace.rank_p == trace.rank_p[0]).all()),
        min_inter_agent_distance=float(trace.min_distance.min()),
        collision_events=int(np.count_nonzero(trace.min_distance < COLLISION_THRESHOLD)),
    )
