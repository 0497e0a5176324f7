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
    """Per-agent gain blocks, one read-only (n, d, d) array; K is their block diagonal."""

    blocks: np.ndarray

    def __post_init__(self):
        try:
            blocks = [np.asarray(b) for b in self.blocks]
        except ValueError:  # a ragged block
            raise InputError("gain blocks must be square matrices") from None
        if not blocks:
            raise InputError("gain needs at least one block")
        d = blocks[0].shape[0] if blocks[0].ndim else 0
        # the blocks up to the first that is not d x d, which fails after them
        k = next((c for c, b in enumerate(blocks) if b.shape != (d, d)), len(blocks))
        stack = np.array(blocks[:k])
        if stack.dtype.kind not in "biuf":  # as for Configuration
            raise InputError("gain blocks must be real")
        stack = stack.astype(float, copy=False)
        if not np.isfinite(stack).all():
            raise InputError("gain blocks must be finite")
        if k < len(blocks):
            square = blocks[k].ndim == 2 and blocks[k].shape[0] == blocks[k].shape[1]
            raise InputError("gain blocks must share one dimension" if square
                             else "gain blocks must be square matrices")
        stack.setflags(write=False)
        object.__setattr__(self, "blocks", stack)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

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
            _require_gain_fits(self.gain, self.target)


def _require_gain_fits(gain: GainMatrix, tgt: FormationTarget) -> None:
    if gain.n != tgt.n or gain.d != tgt.d:
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


def barred_weak_rigidity_matrix(p: Configuration, tgt: FormationTarget) -> np.ndarray:
    """The matrix Rbar with stacked per-agent gradients of the local costs
    equal to Rbar^T delta: distance rows match R_w, angle rows keep only the
    apex block."""
    if p.n != tgt.n:
        raise InputError("configuration does not match the target size")
    op = _ConstraintOperator.on_vertices(tgt.triples, tgt.n, p.d, barred=True)
    return op.dense(p.points)


def _apply_gain(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K m for each block-diagonal gain K of the (..., n, d, d) block stack
    ``k``, applied block by block; the result has shape (...,) + m.shape."""
    n, d = k.shape[-3:-1]
    km = np.einsum("...nij,njc->...nic", k, m.reshape(n, d, -1))
    return km.reshape(k.shape[:-3] + m.shape)


class ControlEvaluator:
    """Precompiled closed-loop evaluator for repeated integration steps.

    ``__init__`` compiles the law into one closure, ``_field``, from the flat
    (n*d,) state to the flat velocity and the residuals. Its gather puts tails
    before heads, which yields the negated slot vectors exactly: the dots of
    the first 2s are the e1.e2 table, and each, times its residual, scatters
    straight into -grad V. The public methods reshape (n, d) points around it.
    """

    def __init__(self, spec: ControllerSpec):
        tgt = spec.target
        n, d, s, rstar = tgt.n, tgt.d, tgt.triples.s, tgt.values
        gain = spec.gain.blocks if spec.law is Law.NONGRADIENT else None
        # the gradient law scatters through R_w, the non-gradient law through Rbar
        op = _ConstraintOperator.on_vertices(tgt.triples, n, d, barred=gain is not None)
        k, nd, axes = op._row.size, n * d, np.arange(d)
        gather = np.concatenate([op._idx[k:], op._idx[:k]])[:, None] * d + axes
        rows = np.repeat(op._row, d)  # the residual row of each slot coordinate
        bins = (op._col[:, None] * d + axes).ravel()
        vecdot, bincount, matvec = np.vecdot, np.bincount, np.matvec  # fix the rounding
        if not k:  # np.bincount of no slots would give int64 zeros
            def bincount(bins, weights, minlength):
                return np.zeros(minlength)

        def field(x):
            g = x[gather]
            neg = g[:k] - g[k:]
            delta = vecdot(neg[:s], neg[s:2 * s]) - rstar
            vel = bincount(bins, neg.ravel() * delta[rows], minlength=nd)
            return (vel if gain is None else matvec(gain, vel.reshape(n, d)).reshape(nd)), delta

        self._field = field

    def residuals(self, pts: np.ndarray) -> np.ndarray:
        return self._field(pts.ravel())[1]

    def cost(self, pts: np.ndarray) -> float:
        delta = self.residuals(pts)
        return 0.5 * float(np.vecdot(delta, delta))

    def velocity(self, pts: np.ndarray) -> np.ndarray:
        """(n, d) agent velocities at the given positions."""
        return self._field(pts.ravel())[0].reshape(pts.shape)

    def velocity_and_residuals(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Velocity plus the residual vector, sharing the edge-vector work."""
        vel, delta = self._field(pts.ravel())
        return vel.reshape(pts.shape), delta


@dataclass(frozen=True, eq=False)
class StabilityReport:
    verdict: Verdict
    eigenvalues: np.ndarray  # sorted by (real desc, imag desc)


def jacobian_at_target(tgt: FormationTarget, gain: GainMatrix) -> np.ndarray:
    """K Rbar^T R_w evaluated at the target witness configuration."""
    _require_gain_fits(gain, tgt)
    return _apply_gain(gain.blocks, tgt._rbar_t_rw)


def sort_eigenvalues(ev: np.ndarray) -> np.ndarray:
    """Order by real part descending, then imaginary part descending."""
    ev = np.asarray(ev, dtype=complex)
    return ev[np.lexsort((-ev.imag, -ev.real))]


def _stable(ev: np.ndarray, d: int):
    """Verdicts (...) and tolerances (..., 1) for eigenvalues (..., N): with
    tol = 1e-6 * max |lambda|, exactly d(d+1)/2 of them within tol of zero and
    every other with real part above tol. There is no absolute floor: scaling
    the Jacobian by s > 0 scales tol with its eigenvalues."""
    mag = np.abs(ev)
    tol = 1e-6 * mag.max(axis=-1, initial=0.0, keepdims=True)
    near_zero = mag <= tol
    ok = ((np.count_nonzero(near_zero, axis=-1) == d * (d + 1) // 2)
          & np.all(near_zero | (ev.real > tol), axis=-1))
    return ok, tol


def classify_stability(j: np.ndarray, d: int) -> StabilityReport:
    """Stable: exactly d(d+1)/2 eigenvalues at zero, the rest with positive
    real part. Unstable: any eigenvalue with real part below -tolerance.
    Marginal otherwise. The tolerance is 1e-6 times the spectral radius."""
    ev = sort_eigenvalues(np.linalg.eigvals(np.asarray(j, dtype=float)))
    stable, tol = _stable(ev, d)
    if stable:
        verdict = Verdict.STABLE
    elif np.any(ev.real < -tol):
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL
    return StabilityReport(verdict, ev)


# a block's Jacobians hold at most _BLOCK_ENTRIES floats, which bounds memory
# on large targets
_MAX_BLOCK, _BLOCK_ENTRIES = 64, 1 << 20


def gain_search(tgt: FormationTarget, trials: int, seed: int) -> GainMatrix | None:
    """Sample diagonal gain blocks with entries uniform on [-1.5, 1.5] and
    return the first stabilizing gain, or None. Trial seeds are derived as
    seed + trial index, so results are reproducible and trials independent.
    Blocks of consecutive trials share one stacked gain product and one
    stacked ``eigvals`` call."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    n, d = tgt.n, tgt.d
    size = max(1, min(_MAX_BLOCK, _BLOCK_ENTRIES // (n * d) ** 2))
    for start in range(0, trials, size):
        k = np.stack([np.random.default_rng(seed + trial).uniform(-1.5, 1.5, size=(n, d))
                      for trial in range(start, min(trials, start + size))])
        jac = _apply_gain(k[..., None] * np.eye(d), tgt._rbar_t_rw)
        stable, _ = _stable(np.linalg.eigvals(jac), d)
        if stable.any():
            return GainMatrix(tuple(np.diag(row) for row in k[stable.argmax()]))
    return None
