"""Numeric kernels: P1 element matrices and energies and the dense-oracle
linear algebra, vectorized with numpy."""

from __future__ import annotations

import math

import numpy as np

# read by the benchmark's machine facts; there is no compiled path
USING_NUMBA = False


# ---------------------------------------------------------------------------
# P1 element matrices and energies
# ---------------------------------------------------------------------------

def _p1_geometry(nodes: np.ndarray, tris: np.ndarray):
    """(b, c, area): 2A times the hat gradients' x and y parts, and A."""
    x = nodes[:, 0][tris]                 # (m, 3), one gather per coordinate
    y = nodes[:, 1][tris]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def p1_elements(nodes: np.ndarray, tris: np.ndarray):
    """Stiffness and consistent mass entries for every triangle.

    Returns (stiff, mass, area): stiff and mass have shape (ntri, 9) in
    row-major (local i, local j) order, area has shape (ntri,).
    """
    b, c, area = _p1_geometry(nodes, tris)
    inv4a = 1.0 / (4.0 * area)
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    stiff *= inv4a[:, None, None]
    mref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    mass = area[:, None, None] * mref[None, :, :]
    return stiff.reshape(-1, 9), mass.reshape(-1, 9), area


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def p1_energies(nodes: np.ndarray, tris: np.ndarray, v: np.ndarray):
    """(sum_t v_t^H S_t v_t, sum_t v_t^H M_t v_t) for the element matrices
    of `p1_elements` and v of shape (ntri, 3), real or complex, from gradients
    and areas: v^H S v = (|b.v|^2 + |c.v|^2) / 4A, v^H M v = A/12 (|v|^2 +
    |sum v|^2)."""
    b, c, area = _p1_geometry(nodes, tris)
    v0, v1, v2 = v[:, 0], v[:, 1], v[:, 2]
    bv = b[:, 0] * v0 + b[:, 1] * v1 + b[:, 2] * v2
    cv = c[:, 0] * v0 + c[:, 1] * v1 + c[:, 2] * v2
    stiff = (_abs2(bv) + _abs2(cv)) / (4.0 * area)
    mass = area * (_abs2(v0) + _abs2(v1) + _abs2(v2) + _abs2(v0 + v1 + v2))
    return float(stiff.sum()), float(mass.sum()) / 12.0


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


# sweep cap; multisection points a bracket gets at least; a Newton step
# above this share of the last is slow and gets multisection points too
_MAX_SWEEPS = 100
_MIN_SECTION = 7
_STALL = 0.25


def _sturm_count(d, e2, xs, m=0):
    """(counts, s): the number of eigenvalues of the tridiagonal matrix
    strictly below each x, and the Newton sums of the first m points.

    s holds S(x) = d/dx log|det(T - x)| = sum_i q_i'/q_i.  The sums come
    from the derivative of the pivot recurrence,
    q_i' = -1 + e2_{i-1} q_{i-1}' / q_{i-1}^2, carried as u_i = q_i'/q_i:
    u_i = (t u_{i-1} - 1) / q_i with t = e2_{i-1} / q_{i-1}.  A pivot that
    vanishes makes S infinite or nan; the caller checks it.

    IEEE arithmetic needs no guard on small pivots: a zero pivot gives
    t = +inf and the next pivot -inf, the signs that replacing it by +tiny
    gives.  A zero coupling skips the division (0/0), and d + 0.0 turns a
    -0.0 pivot, whose infinity would have the wrong sign, into +0.0.

    The pivot signs of all n rows are kept in one bool array and counted
    once.  A sweep has about n points, so the array is about n^2 bytes, an
    eighth of one n x n float64 matrix of the dense oracle.
    """
    n = d.shape[0]
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    neg = np.empty((n,) + xs.shape, dtype=bool)
    q = np.subtract(d[0] + 0.0, xs)
    t = np.empty_like(q)
    np.less(q, 0.0, out=neg[0])
    dl, e2l = (d + 0.0).tolist(), e2.tolist()
    qm, tm = q[:m], t[:m]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.divide(-1.0, qm)
        s = u.copy()
        for i in range(1, n):
            if e2l[i - 1]:
                np.divide(e2l[i - 1], q, out=t)
                np.subtract(dl[i], xs, out=q)
                q -= t
                u *= tm
                u -= 1.0
                u /= qm
            else:
                np.subtract(dl[i], xs, out=q)
                np.divide(-1.0, qm, out=u)
            np.less(q, 0.0, out=neg[i])
            s += u
    return np.count_nonzero(neg, axis=0), s


def tridiag_eigenvalues(d, e):
    """All eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: Sturm counts with a certified Newton finish.

    Each value lies within half a width of lambda_j, where the width is that
    of a Sturm bracket [a, b] of lambda_j, count(a) <= j - 1 < j <= count(b),
    no wider than 1e-15 of the Gershgorin span or 4 ulps.  One sweep is one
    `_sturm_count` call at about n points, spent in this order:

    1. a Newton point x - 1/S(x) in each bracket that isolates its
       eigenvalue (the midpoint when the step leaves the bracket or does not
       halve the last one), and the probe pair x -+ delta of each converged
       iterate x, delta = max(2 ulps, 0.5e-15 span): count(x - delta) <=
       j - 1 and count(x + delta) >= j certify x, other counts send its
       bracket back to multisection;
    2. multisection of the other distinct brackets and of those whose
       Newton steps shrink slowly, each with at least _MIN_SECTION points and
       a share of the rest by its number of eigenvalues.

    Sources: multisection, Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput.
    8 (1987); root finders kept safe by Sturm counts, Li & Zeng, SIAM J.
    Sci. Comput. 15 (1994).  Raises LinAlgError if _MAX_SWEEPS sweeps leave
    a bracket open.
    """
    n = d.shape[0]
    if n == 0:
        return np.zeros(0)
    e2 = e * e
    r = np.zeros(n)
    if n > 1:
        r[:-1] += np.abs(e)
        r[1:] += np.abs(e)
    lo0 = float(np.min(d - r))
    hi0 = float(np.max(d + r))
    tol = 1e-15 * max(hi0 - lo0, 1.0)
    j = np.arange(n)                # count(lo[j]) <= j < count(hi[j])
    lo, hi = np.full(n, lo0), np.full(n, hi0)
    clo, chi = np.zeros(n, dtype=np.int64), np.full(n, n)
    x = np.full(n, np.nan)          # next Newton point; nan: the midpoint
    step = np.full(n, np.inf)       # the Newton step that gave x
    probe = np.zeros(n, dtype=bool)     # x has converged: probe it
    stall = np.zeros(n, dtype=bool)     # slow Newton steps: multisect too
    newton = np.ones(n, dtype=bool)     # false once a probe has failed
    done = np.zeros(n, dtype=bool)
    for sweep in range(_MAX_SWEEPS + 1):
        done |= hi - lo <= np.maximum(
            tol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
        if done.all():
            return np.sort(0.5 * (lo + hi))
        if sweep == _MAX_SWEEPS:
            raise np.linalg.LinAlgError(
                f"Sturm counts left a bracket open after {sweep} sweeps")
        iso = ~done & newton & (clo == j) & (chi == j + 1)
        nw = np.flatnonzero(iso & ~probe)
        pr = np.flatnonzero(iso & probe)
        ms = np.flatnonzero(~done & ~iso)
        xn = x[nw]
        xn = np.where((xn > lo[nw]) & (xn < hi[nw]), xn,
                      0.5 * (lo[nw] + hi[nw]))
        xp = x[pr]
        delta = np.maximum(2.0 * np.spacing(np.abs(xp)), 0.5 * tol)
        pa = np.clip(xp - delta, lo[pr], hi[pr])
        pb = np.clip(xp + delta, lo[pr], hi[pr])
        # identical brackets share their points; sb holds one eigenvalue of
        # each bracket to multisect, cb its number of eigenvalues
        _, first, which, cb = np.unique(
            np.stack([lo[ms], hi[ms]], axis=1), axis=0, return_index=True,
            return_inverse=True, return_counts=True)
        slow = nw[stall[nw]]
        sb = np.concatenate([ms[first], slow])
        cb = np.concatenate([cb, np.ones(slow.size, dtype=cb.dtype)])
        rest = max(n - nw.size - 2 * pr.size, 0)
        npt = np.maximum(_MIN_SECTION, rest * cb // max(ms.size + slow.size, 1))
        seg = np.repeat(np.arange(sb.size), npt)
        k = np.arange(seg.size) - np.repeat(np.cumsum(npt) - npt, npt) + 1
        grid = np.minimum(lo[sb][seg] + (hi[sb] - lo[sb])[seg]
                          * (k / (npt[seg] + 1)), hi[sb][seg])
        xs = np.concatenate([xn, pa, pb, grid])
        cnt, s = _sturm_count(d, e2, xs, nw.size)
        # each open bracket is a run [lo, its points in order, hi], keyed by
        # one of its eigenvalues; the first entry whose count passes j (by a
        # running maximum, so counts need not be monotone) closes lambda_j's
        ends = np.concatenate([nw, pr, ms[first]])
        sid = np.concatenate([ends, nw, pr, pr, sb[seg], ends])
        px = np.concatenate([lo[ends], xs, hi[ends]])
        pc = np.concatenate([clo[ends], cnt, chi[ends]])
        cls = np.repeat([0, 1, 2], [ends.size, xs.size, ends.size])
        order = np.lexsort((cls, px, sid))
        px, pc = px[order], pc[order]
        key = np.maximum.accumulate(sid[order] * (n + 1) + pc)
        op = np.concatenate([nw, pr, ms])
        own = np.concatenate([nw, pr, ms[first][which.reshape(-1)]])
        g = np.searchsorted(key, own * (n + 1) + j[op], side="right")
        lo[op], clo[op], hi[op], chi[op] = px[g - 1], pc[g - 1], px[g], pc[g]
        # x - 1/S is the next Newton point if it stays inside and at least
        # halves the step; it has converged if the step, or the error
        # predicted from the last two steps, is below the certificate width
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nx = xn - 1.0 / s
            ns = np.abs(nx - xn)
            width = np.maximum(tol, 4.0 * np.spacing(np.abs(xn)))
            conv = (ns <= width) | ((ns ** 3 <= 0.1 * width * step[nw] ** 2)
                                    & (step[nw] < np.inf))
        ok = conv | ((nx > lo[nw]) & (nx < hi[nw]) & (ns <= 0.5 * step[nw]))
        stall[nw] = ~ok | (ns > _STALL * step[nw])
        x[nw] = np.where(ok, nx, np.nan)
        step[nw] = np.where(ok, ns, np.inf)
        probe[nw] = conv
        cp = cnt[nw.size:nw.size + 2 * pr.size].reshape(2, -1)
        cert = (cp[0] <= j[pr]) & (cp[1] > j[pr])
        done[pr] |= cert
        newton[pr] = cert
        probe[pr] = False
