"""Numerical rank and collinearity tests with fixed, scale-aware tolerances."""

from functools import cache, reduce

import numpy as np

RANK_RTOL = 1e-10
COLLINEAR_RTOL = 1e-9
_U = np.finfo(float).eps / 2  # unit roundoff


def numerical_rank(m):
    """Count singular values above ``max(shape) * smax * 1e-10``.

    A stack of matrices, shape (..., r, c), gets one rank per matrix from a
    single stacked SVD, returned as an int array.
    """
    a = np.asarray(m, dtype=float)
    ranks = _rank_of(np.linalg.svd(a, compute_uv=False), a.shape[-2:])
    return int(ranks) if a.ndim == 2 else ranks


def _rank_of(sv, shape):
    """Count the descending singular values (..., k) above ``max(shape) * smax
    * 1e-10``, where ``shape`` is that of the matrix they came from. Every
    rank the package decides is counted by this rule."""
    return np.count_nonzero(sv > max(shape) * sv[..., :1] * RANK_RTOL, axis=-1)


def _gamma(k: int) -> float:
    """Higham's γ_k = ku/(1 - ku): the relative error bound of k roundings."""
    return k * _U / (1 - k * _U)


@cache
def _minor_axes(d):
    """Index pairs (a, b), a < b, of the 2x2 minors of a (d, 2) matrix."""
    return np.triu_indices(d, 1)


def are_collinear(u, v):
    """Scale-invariant collinearity test: ``|u ^ v| <= 1e-9 * |u| * |v|``.

    ``|u ^ v|`` is the hypot of the 2x2 minors ``u_a v_b - u_b v_a`` (a < b).
    Swapping u and v, or negating either, negates each minor exactly, so the
    verdict stays, and a zero vector is collinear with anything. Stacks of
    shape (..., d) are tested pair by pair and give a bool array; a pair of
    1-D vectors gives a bool; d >= 1. Each vector of u and v is first scaled
    by the power of two that brings its own largest |entry| into [0.5, 1):
    that is exact, so it changes no verdict, no product or norm below can
    overflow or underflow, and a pair in a stack is decided as it is alone.
    """
    # each vector's largest |entry| is taken column by column, which beats a
    # reduction over the last axis on long stacks of short vectors
    u, v = (np.ldexp(x, -np.frexp(reduce(np.maximum, np.abs(x.T)).T)[1][..., None])
            for x in (np.asarray(u, dtype=float), np.asarray(v, dtype=float)))
    a, b = _minor_axes(u.shape[-1])
    wedge = np.hypot.reduce(u[..., a] * v[..., b] - u[..., b] * v[..., a], axis=-1, initial=0.0)
    ok = wedge <= COLLINEAR_RTOL * (np.sqrt(np.vecdot(u, u)) * np.sqrt(np.vecdot(v, v)))
    return bool(ok) if ok.ndim == 0 else ok
