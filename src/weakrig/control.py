"""Formation control laws on triple constraints, and the stability analyzer.

Two laws steer single-integrator agents toward a target shape encoded by
inner-product constraints: the gradient law u = -R_w^T delta descending the
global cost, and the per-agent law u_i = -K_i grad_i(V_i) built from local
costs, equivalently u = -K Rbar^T delta. The linearization K Rbar^T R_w at
the target decides local exponential stability: exactly d(d+1)/2 zero
eigenvalues with the rest in the open right half-plane.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .framework import (
    Configuration,
    Framework,
    TripleSet,
    _ConstraintOperator,
    weak_rigidity_function,
    weak_rigidity_matrix,
)
from .graphs import Graph
from .triples import full_triple_set


class Law(enum.Enum):
    GRADIENT = "gradient"
    NONGRADIENT = "nongradient"


class Verdict(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """Per-agent d x d gain blocks; the full gain is their block diagonal."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = []
        d = None
        for b in self.blocks:
            arr = np.array(b, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise InputError("gain blocks must be square matrices")
            if d is None:
                d = arr.shape[0]
            elif arr.shape[0] != d:
                raise InputError("gain blocks must share one dimension")
            if not np.all(np.isfinite(arr)):
                raise InputError("gain blocks must be finite")
            arr.setflags(write=False)
            blocks.append(arr)
        if not blocks:
            raise InputError("gain needs at least one block")
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        return self.blocks[0].shape[0]

    def stacked(self) -> np.ndarray:
        return np.stack(self.blocks)

    @classmethod
    def identity(cls, n: int, d: int) -> "GainMatrix":
        return cls(tuple(np.eye(d) for _ in range(n)))


@dataclass(frozen=True, eq=False)
class FormationTarget:
    """Target shape as triple constraints with the values they must take.

    Always built from an explicit witness configuration, so the target is
    realizable by construction; raw constraint values are never accepted.
    """

    graph: Graph
    triples: TripleSet
    witness: Configuration
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.triples.require_valid_for(self.graph)
        if self.graph.n != self.witness.n:
            raise InputError("witness configuration does not match the graph")
        vals = weak_rigidity_function(Framework(self.graph, self.witness), self.triples)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.witness.d

    @functools.cached_property
    def _rbar_t_rw(self) -> np.ndarray:
        """Rbar^T R_w at the witness: the gain-independent, read-only factor of
        the target Jacobian, formed once per target."""
        rw = weak_rigidity_matrix(Framework(self.graph, self.witness), self.triples)
        m = barred_weak_rigidity_matrix(self.witness, self).T @ rw
        m.setflags(write=False)
        return m


@dataclass(frozen=True, eq=False)
class ControllerSpec:
    law: Law
    target: FormationTarget
    gain: GainMatrix | None = None

    def __post_init__(self):
        if self.law is Law.NONGRADIENT:
            if self.gain is None:
                raise InputError("the non-gradient law requires a gain matrix")
            if self.gain.n != self.target.n or self.gain.d != self.target.d:
                raise InputError("gain blocks do not match the target size")


def build_formation_triples(gf: Graph, gs: Graph) -> TripleSet:
    """Triples usable by the gradient law: both legs are formation edges and
    the legs can sense each other (j = k or (j, k) a sensing edge)."""
    if gf.n != gs.n:
        raise InputError("formation and sensing graphs must share the vertex set")
    missing = gs._edge_ids(*gf._ends) < 0
    if missing.any():
        raise InputError(f"formation edge {gf.edges[missing.argmax()]} missing from the sensing graph")
    full = full_triple_set(gf)
    _, l1, l2 = full._idx
    return TripleSet(full._arr[(l1 == l2) | (gs._edge_ids(l1, l2) >= 0)])


def residuals(p: Configuration, tgt: FormationTarget) -> np.ndarray:
    """delta(p): constraint values at p minus the target values."""
    return weak_rigidity_function(Framework(tgt.graph, p), tgt.triples) - tgt.values


def total_cost(p: Configuration, tgt: FormationTarget) -> float:
    """V = 0.5 |delta|^2; zero exactly on the target shape manifold."""
    delta = residuals(p, tgt)
    return 0.5 * float(delta @ delta)


def local_cost(i: int, p: Configuration, tgt: FormationTarget) -> float:
    """Per-agent cost: apex-owned angle residuals plus the residual of every
    incident edge (each edge is counted by both endpoints)."""
    if not 1 <= i <= tgt.n:
        raise InputError(f"agent {i} outside 1..{tgt.n}")
    a, j, k = tgt.triples._arr.T
    owned = residuals(p, tgt)[(a == i) | ((j == k) & (j == i))]
    return 0.5 * sum((owned ** 2).tolist())


def gradient_control(p: Configuration, tgt: FormationTarget) -> np.ndarray:
    """u = -R_w(p)^T delta(p), the negative gradient of the total cost."""
    rw = weak_rigidity_matrix(Framework(tgt.graph, p), tgt.triples)
    return -(rw.T @ residuals(p, tgt))


def barred_weak_rigidity_matrix(p: Configuration, tgt: FormationTarget) -> np.ndarray:
    """The matrix Rbar with stacked per-agent gradients of the local costs
    equal to Rbar^T delta: distance rows match R_w, angle rows keep only the
    apex block."""
    tgt.triples.require_valid_for(tgt.graph)
    if p.n != tgt.n:
        raise InputError("configuration does not match the target size")
    op = _ConstraintOperator.on_vertices(tgt.triples, tgt.n, p.d, barred=True)
    return op.dense(p.points)


def _apply_gain(gain: GainMatrix, m: np.ndarray) -> np.ndarray:
    """K m for the block-diagonal gain K, applied block by block."""
    k = gain.stacked()
    return np.einsum("nij,nj...->ni...", k, m.reshape(gain.n, gain.d, -1)).reshape(m.shape)


def nongradient_control(p: Configuration, tgt: FormationTarget,
                        gain: GainMatrix) -> np.ndarray:
    """u = -K Rbar(p)^T delta(p); agent i applies K_i to its local-cost gradient."""
    rb = barred_weak_rigidity_matrix(p, tgt)
    return -_apply_gain(gain, rb.T @ residuals(p, tgt))


class ControlEvaluator:
    """Precompiled closed-loop evaluator for repeated integration steps.

    Produces the same velocities as ``gradient_control``/``nongradient_control``
    (asserted by the test suite) without rebuilding matrices per call. One
    gather yields the edge table and the signed slot vectors; the slots,
    weighted by the negated residual, scatter straight into -grad V.
    """

    def __init__(self, spec: ControllerSpec):
        tgt = spec.target
        tgt.triples.require_valid_for(tgt.graph)
        self.n = tgt.n
        self.d = tgt.d
        self._s = tgt.triples.s
        self._rstar = tgt.values
        self._gain = spec.gain.stacked() if spec.law is Law.NONGRADIENT else None
        # the gradient law scatters through R_w, the non-gradient law through Rbar
        self._op = _ConstraintOperator.on_vertices(tgt.triples, self.n, self.d,
                                                   barred=self._gain is not None)
        self._row = self._op._row
        self._bins = ((self._op._col * self.d)[:, None] + np.arange(self.d)).ravel()

    def _velocity_and_negated_residuals(self, pts: np.ndarray):
        """Velocity and -delta; negating delta before the scatter is exact."""
        v = self._op.slots(pts)
        s = self._s
        neg_delta = self._rstar - np.einsum("ij,ij->i", v[:s], v[s:2 * s])
        neg_grad = np.bincount(self._bins, (v * neg_delta.take(self._row)[:, None]).ravel(),
                               minlength=self.n * self.d).reshape(self.n, self.d)
        if self._gain is None:
            return neg_grad, neg_delta
        return np.einsum("nij,nj->ni", self._gain, neg_grad), neg_delta

    def residuals(self, pts: np.ndarray) -> np.ndarray:
        v = self._op.slots(pts)
        s = self._s
        return np.einsum("ij,ij->i", v[:s], v[s:2 * s]) - self._rstar

    def cost(self, pts: np.ndarray) -> float:
        delta = self.residuals(pts)
        return 0.5 * float(delta @ delta)

    def velocity(self, pts: np.ndarray) -> np.ndarray:
        """(n, d) agent velocities at the given positions."""
        return self._velocity_and_negated_residuals(pts)[0]

    def velocity_and_residuals(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Velocity plus the residual vector, sharing the edge-vector work."""
        vel, neg_delta = self._velocity_and_negated_residuals(pts)
        return vel, -neg_delta


@dataclass(frozen=True, eq=False)
class StabilityReport:
    verdict: Verdict
    eigenvalues: np.ndarray  # sorted by (real desc, imag desc)


def jacobian_at_target(tgt: FormationTarget, gain: GainMatrix) -> np.ndarray:
    """K Rbar^T R_w evaluated at the target witness configuration."""
    return _apply_gain(gain, tgt._rbar_t_rw)


def sort_eigenvalues(ev: np.ndarray) -> np.ndarray:
    """Order by real part descending, then imaginary part descending."""
    ev = np.asarray(ev, dtype=complex)
    return ev[np.lexsort((-ev.imag, -ev.real))]


def _stable(ev: np.ndarray, d: int):
    """Verdicts (...) and tolerances (..., 1) for eigenvalues (..., N): with
    tol = 1e-6 * max(1, max |lambda|), exactly d(d+1)/2 of them within tol of
    zero and every other with real part above tol."""
    mag = np.abs(ev)
    tol = 1e-6 * np.maximum(1.0, mag.max(axis=-1, initial=0.0, keepdims=True))
    near_zero = mag <= tol
    ok = ((np.count_nonzero(near_zero, axis=-1) == d * (d + 1) // 2)
          & np.all(near_zero | (ev.real > tol), axis=-1))
    return ok, tol


def classify_stability(j: np.ndarray, d: int) -> StabilityReport:
    """Stable: exactly d(d+1)/2 eigenvalues at zero (within tolerance), the
    rest with positive real part. Unstable: any eigenvalue with real part
    below -tolerance. Marginal otherwise."""
    ev = sort_eigenvalues(np.linalg.eigvals(np.asarray(j, dtype=float)))
    stable, tol = _stable(ev, d)
    if stable:
        verdict = Verdict.STABLE
    elif np.any(ev.real < -tol):
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL
    return StabilityReport(verdict, ev)


def _diagonal_gain_jacobians(tgt: FormationTarget, k: np.ndarray) -> np.ndarray:
    """``jacobian_at_target`` for each diagonal gain of the (B, n, d) stack ``k``,
    bit for bit. The einsum of ``_apply_gain`` sums every entry from +0.0, so
    a -0.0 product comes out +0.0; adding +0.0 does the same here, since the
    sign of a zero changes what ``eigvals`` returns."""
    n, d = tgt.n, tgt.d
    j = k[:, :, :, None] * tgt._rbar_t_rw.reshape(n, d, n * d)
    j += 0.0
    return j.reshape(-1, n * d, n * d)


# blocks of consecutive trials double from the first size to the last, so an
# early find wastes few trials; a block's Jacobians hold at most
# _BLOCK_ENTRIES floats, which bounds memory on large targets
_FIRST_BLOCK, _LAST_BLOCK, _BLOCK_ENTRIES = 4, 64, 1 << 20


def gain_search(tgt: FormationTarget, trials: int, seed: int) -> GainMatrix | None:
    """Sample diagonal gain blocks with entries uniform on [-1.5, 1.5] and
    return the first stabilizing gain, or None. Trial seeds are derived as
    seed + trial index, so results are reproducible and trials independent.
    Blocks of consecutive trials share one Jacobian broadcast and one stacked
    ``eigvals`` call."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    n, d = tgt.n, tgt.d
    cap = max(1, min(_LAST_BLOCK, _BLOCK_ENTRIES // (n * d) ** 2))
    start, size = 0, min(_FIRST_BLOCK, cap)
    while start < trials:
        stop = min(trials, start + size)
        k = np.stack([np.random.default_rng(seed + trial).uniform(-1.5, 1.5, size=(n, d))
                      for trial in range(start, stop)])
        stable, _ = _stable(np.linalg.eigvals(_diagonal_gain_jacobians(tgt, k)), d)
        if stable.any():
            return GainMatrix(tuple(np.diag(row) for row in k[stable.argmax()]))
        start, size = stop, min(2 * size, cap)
    return None
