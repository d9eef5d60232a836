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
# Dense-oracle linear algebra: blocked numpy, matmul only, so the oracle
# shares no code with LAPACK's factorizations or eigensolvers.  Each kernel
# works on panels of NB columns; matmul does the updates between panels and
# the column or row loops run only inside one panel.
# ---------------------------------------------------------------------------

NB = 32


def _cholesky_diag(a: np.ndarray) -> np.ndarray:
    """Column Cholesky of one diagonal block (already updated)."""
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


def _solve_diag(L: np.ndarray, x: np.ndarray) -> None:
    """Row forward substitution with one diagonal block, in place."""
    for i in range(L.shape[0]):
        if i:
            x[i] -= L[i, :i] @ x[:i]
        x[i] /= L[i, i]


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower L with a = L L^T (left-looking, by block columns)."""
    n = a.shape[0]
    L = np.zeros_like(a)
    for j0 in range(0, n, NB):
        j1 = min(j0 + NB, n)
        Lj = L[j0:j1, :j0]
        L[j0:j1, j0:j1] = _cholesky_diag(a[j0:j1, j0:j1] - Lj @ Lj.T)
        if j1 < n:
            # L21 = (a21 - L20 L10^T) L11^-T, as L11 L21^T = (...)^T
            r = np.ascontiguousarray((a[j1:, j0:j1] - L[j1:, :j0] @ Lj.T).T)
            _solve_diag(L[j0:j1, j0:j1], r)
            L[j1:, j0:j1] = r.T
    return L


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L x = b for lower-triangular L; b is a vector or a matrix."""
    n = L.shape[0]
    x = b.astype(float)                 # a new array
    for i0 in range(0, n, NB):
        i1 = min(i0 + NB, n)
        if i0:
            x[i0:i1] -= L[i0:i1, :i0] @ x[:i0]
        _solve_diag(L[i0:i1, i0:i1], x[i0:i1])
    return x


def tridiagonalize(a: np.ndarray):
    """Householder reduction to tridiagonal form; eigenvalues only.

    Panel form of the reduction: the reflectors of NB columns act on the
    trailing block through V and W, A - V W^T - W V^T, and are applied to
    it once per panel (Dongarra, Sorensen & Hammarling, J. Comput. Appl.
    Math. 27, 1989)."""
    a = a.copy()
    n = a.shape[0]
    e = np.zeros(max(n - 1, 0))
    for k0 in range(0, n - 2, NB):
        nb = min(NB, n - 2 - k0)
        m = n - k0 - 1                      # rows k0+1.. of the panel's V, W
        V = np.zeros((m, nb))
        W = np.zeros((m, nb))
        for j in range(nb):
            k = k0 + j
            col = a[k, k:]                  # row k = column k, by symmetry
            if j:
                # bring column k up to date with the panel's reflectors
                col -= V[j - 1:, :j] @ W[j - 1, :j] + W[j - 1:, :j] @ V[j - 1, :j]
            x = col[1:].copy()
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
            Vj, Wj = V[j:, :j], W[j:, :j]
            w = a[k + 1:, k + 1:] @ v
            w -= Vj @ (Wj.T @ v) + Wj @ (Vj.T @ v)
            w *= beta
            kappa = 0.5 * beta * float(v @ w)
            w -= kappa * v
            V[j:, j] = v
            W[j:, j] = w
        # one rank-2nb update of the trailing block, in place
        s = k0 + nb
        sub = a[s:, s:]
        sub -= V[nb - 1:] @ W[nb - 1:].T
        sub -= W[nb - 1:] @ V[nb - 1:].T
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    return np.diag(a).copy(), e


def _sturm_count(d, e2, xs):
    """Number of eigenvalues of the tridiagonal matrix strictly below each x."""
    n = d.shape[0]
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    tiny = np.finfo(float).tiny
    neg = np.empty((n,) + xs.shape, dtype=bool)
    q = np.subtract(d[0], xs)
    t = np.empty_like(q)
    np.less(q, 0.0, out=neg[0])
    dl, e2l = d.tolist(), e2.tolist()
    for i in range(1, n):
        if not np.abs(q, out=t).min() >= tiny:      # true also on a nan
            # a pivot below tiny becomes +-tiny, with the sign of q
            small = t < tiny
            q[small] = np.where(q[small] < 0.0, -tiny, tiny)
        np.divide(e2l[i - 1], q, out=t)
        np.subtract(dl[i], xs, out=q)
        q -= t
        np.less(q, 0.0, out=neg[i])
    return np.count_nonzero(neg, axis=0)


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
        # stop when every bracket is below 1e-15 of the span or within 4
        # ulps: far from 0 the ulp can exceed 1e-15 of the span
        width = his - los
        ulp = np.spacing(np.maximum(np.abs(los), np.abs(his)))
        if np.all((width < 1e-15 * span) | (width <= 4.0 * ulp)):
            break
    return 0.5 * (los + his)
