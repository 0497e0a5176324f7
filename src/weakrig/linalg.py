"""Numerical rank and collinearity tests with fixed, scale-aware tolerances."""

import numpy as np

RANK_RTOL = 1e-10
COLLINEAR_RTOL = 1e-9


def numerical_rank(m):
    """Count singular values above ``max(shape) * smax * 1e-10`` (floor 1e-12).

    A stack of matrices, shape (..., r, c), gets one rank per matrix from a
    single stacked SVD, returned as an int array.
    """
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0 if a.ndim <= 2 else np.zeros(a.shape[:-2], dtype=np.intp)
    ranks = _rank_of(np.linalg.svd(a, compute_uv=False), a.shape[-2:])
    return int(ranks) if a.ndim == 2 else ranks


def _rank_of(sv, shape):
    """Count the singular values (..., k) above ``max(shape) * smax * 1e-10``
    (floor 1e-12), where ``shape`` is that of the matrix they came from."""
    tol = max(shape) * sv[..., :1] * RANK_RTOL
    tol[tol == 0.0] = 1e-12
    return np.count_nonzero(sv > tol, axis=-1)


def _dot(u, v):
    """Dot products over the last axis, each rounded as a 1-D ``u @ v`` is."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def are_collinear(u, v):
    """Scale-invariant collinearity test; zero vectors are collinear with anything.

    Uses the rejection of ``u`` from ``v``, so the effective criterion is
    ``|cross| <= 1e-9 * |u| * |v|`` without the cancellation a Gram-determinant
    formula would suffer near zero angle. Stacks of shape (..., d) are tested
    pair by pair and give a bool array; a pair of 1-D vectors gives a bool.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.sqrt(_dot(u, u))
    nv = np.sqrt(_dot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):  # zero v: decided by nv below
        w = u - v * (_dot(u, v) / (nv * nv))[..., None]
    ok = (nu == 0.0) | (nv == 0.0) | (np.sqrt(_dot(w, w)) <= COLLINEAR_RTOL * nu)
    return bool(ok) if ok.ndim == 0 else ok
