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
    s = np.linalg.svd(a, compute_uv=False)
    tol = max(a.shape[-2:]) * s[..., :1] * RANK_RTOL
    tol[tol == 0.0] = 1e-12
    ranks = np.count_nonzero(s > tol, axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def are_collinear(u, v) -> bool:
    """Scale-invariant collinearity test; zero vectors are collinear with anything.

    Uses the rejection of ``u`` from ``v``, so the effective criterion is
    ``|cross| <= 1e-9 * |u| * |v|`` without the cancellation a Gram-determinant
    formula would suffer near zero angle.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return True
    w = u - v * ((u @ v) / (nv * nv))
    return float(np.linalg.norm(w)) <= COLLINEAR_RTOL * nu
