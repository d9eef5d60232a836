"""Numeric kernels: P1 element matrices and the dense-oracle linear algebra,
vectorized with numpy."""

from __future__ import annotations

import math

import numpy as np

# read by the benchmark's machine facts; there is no compiled path
USING_NUMBA = False


# ---------------------------------------------------------------------------
# P1 element matrices
# ---------------------------------------------------------------------------

def p1_elements(nodes: np.ndarray, tris: np.ndarray):
    """Stiffness and consistent mass entries for every triangle.

    Returns (stiff, mass, area): stiff and mass have shape (ntri, 9) in
    row-major (local i, local j) order, area has shape (ntri,).
    """
    p = nodes[tris]                       # (m, 3, 2)
    x = p[:, :, 0]
    y = p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    inv4a = 1.0 / (4.0 * area)
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    stiff *= inv4a[:, None, None]
    mref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    mass = area[:, None, None] * mref[None, :, :]
    return stiff.reshape(-1, 9), mass.reshape(-1, 9), area


# ---------------------------------------------------------------------------
# Dense-oracle linear algebra (independent of LAPACK/ARPACK)
# ---------------------------------------------------------------------------

def cholesky_lower(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0.0:
            raise np.linalg.LinAlgError("matrix not positive definite")
        L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = L.shape[0]
    x = b.astype(float).copy()
    for i in range(n):
        if i:
            x[i] -= L[i, :i] @ x[:i]
        x[i] /= L[i, i]
    return x


def tridiagonalize(a: np.ndarray):
    """Householder reduction to tridiagonal form; eigenvalues only."""
    a = a.copy()
    n = a.shape[0]
    e = np.zeros(max(n - 1, 0))
    for k in range(n - 2):
        x = a[k + 1:, k].copy()
        nrm = math.sqrt(float(x @ x))
        if nrm == 0.0:
            e[k] = 0.0
            continue
        alpha = -nrm if x[0] >= 0.0 else nrm
        v = x
        v[0] -= alpha
        vv = float(v @ v)
        e[k] = alpha
        if vv == 0.0:
            continue
        beta = 2.0 / vv
        sub = a[k + 1:, k + 1:]
        w = beta * (sub @ v)
        kappa = 0.5 * beta * float(v @ w)
        w -= kappa * v
        sub -= np.outer(v, w) + np.outer(w, v)
        a[k + 1:, k + 1:] = sub
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    return np.diag(a).copy(), e


def _sturm_count(d, e2, xs):
    """Number of eigenvalues of the tridiagonal matrix strictly below each x."""
    n = d.shape[0]
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cnt = np.zeros(xs.shape, dtype=np.int64)
    q = d[0] - xs
    cnt += q < 0.0
    tiny = np.finfo(float).tiny
    for i in range(1, n):
        denom = np.where(np.abs(q) < tiny, np.where(q < 0, -tiny, tiny), q)
        q = d[i] - xs - e2[i - 1] / denom
        cnt += q < 0.0
    return cnt


def tridiag_eigenvalues(d, e):
    n = d.shape[0]
    if n == 0:
        return np.zeros(0)
    e2 = e * e
    r = np.zeros(n)
    if n > 1:
        r[:-1] += np.abs(e)
        r[1:] += np.abs(e)
    lo = float(np.min(d - r))
    hi = float(np.max(d + r))
    span = max(hi - lo, 1.0)
    los = np.full(n, lo)
    his = np.full(n, hi)
    target = np.arange(1, n + 1)
    for _ in range(100):
        mid = 0.5 * (los + his)
        cnt = _sturm_count(d, e2, mid)
        below = cnt < target
        los = np.where(below, mid, los)
        his = np.where(below, his, mid)
        if np.max(his - los) < 1e-15 * span:
            break
    return 0.5 * (los + his)
