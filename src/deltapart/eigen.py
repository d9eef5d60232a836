"""Generalized symmetric eigensolvers.

`lowest_eigenpairs` is the production path (dense LAPACK for small problems,
seeded shift-invert Lanczos above that).  Given the closed-form spectral
bottom of the form (`closedform.spectral_bottom`), it solves once from a
shift just below it; otherwise it runs two stages, the first from a shift
below a certified lower bound the caller passes, to place the second.
`lowest_form_eigenpairs` runs it on an assembled form with the form's
`coercivity_bound`, started from the prolonged eigenvectors of the same
form two mesh levels coarser (nested iteration).  A k = 1 solve from the
spectral bottom with that warm start is this module's one-vector LOBPCG
(`_lobpcg`, Knyazev 2001), preconditioned by a two-grid cycle on the
coarse level (Knyazev & Neymeyr 2003): it needs no fine factorization,
and its products with n-vectors are einsums, not BLAS calls.
`dense_eigen_oracle` is a self-contained cross-check that shares no
factorization code with it: its Cholesky, triangular solves and
Householder reduction are blocked numpy kernels built on matmul alone,
followed by Sturm counts with a certified Newton finish.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels, forms

__all__ = ["SpectrumResult", "lowest_eigenpairs", "lowest_form_eigenpairs",
           "dense_eigen_oracle"]

_DENSE_CUTOFF = 400
_JACOBI_WEIGHT, _SWEEPS = 0.6, 3
_MAXITER, _STOP = 200, 1e-20    # _lobpcg's steps and its bound on ||r||_2^2


class _BottomError(RuntimeError):
    """The spectral bottom given to a solve is not a lower bound."""


@dataclass(frozen=True)
class SpectrumResult:
    """The lowest eigenpairs of a pencil.  The eigenvectors are the columns
    that LAPACK's generalized `eigh` (dense) or ARPACK's shift-invert mode
    returns, which are M-orthonormal by construction, or the M-unit vector
    of `_lobpcg`."""
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray     # relative residual per pair, see _residuals
    method: str               # "dense" | "shift-invert" | "lobpcg"
    converged: bool
    tol: float
    shift: float | None = None

    def count_below(self, threshold: float, slack: float = 0.0) -> int | None:
        """Eigenvalues below threshold - slack, or None when every computed
        one is: the spectrum may hold more than were computed."""
        below = int(np.count_nonzero(self.eigenvalues < threshold - slack))
        return None if below == self.eigenvalues.size else below


def _residuals(A, M, vals, V):
    """||A v - lam M v||_2 / ((||A||_inf + |lam| ||M||_inf) ||v||_2) per
    pair, the columns of R = A V - (M V) diag(vals)."""
    na = spla.norm(A, np.inf) if sp.issparse(A) else np.linalg.norm(A, np.inf)
    nm = spla.norm(M, np.inf) if sp.issparse(M) else np.linalg.norm(M, np.inf)
    R = A @ V - (M @ V) * vals
    scale = (na + np.abs(vals) * nm) * np.linalg.norm(V, axis=0)
    return np.linalg.norm(R, axis=0) / scale


def _dense(n: int, k: int) -> bool:
    return n <= max(_DENSE_CUTOFF, 3 * (k + 5))


def _two_grid(K, P):
    """The symmetric two-grid cycle for K (SPD) as a function of a residual
    vector: _SWEEPS damped-Jacobi sweeps from 0 (the first is w * r), the
    Galerkin coarse correction P (P^T K P)^-1 P^T, then _SWEEPS more
    sweeps."""
    w = _JACOBI_WEIGHT / K.diagonal()
    coarse = spla.splu(sp.csc_matrix(P.T @ K @ P))

    def smooth(x, r, sweeps):
        for _ in range(sweeps):
            x = x + w * (r - K @ x)
        return x

    def cycle(r):
        x = smooth(w * r, r, _SWEEPS - 1)
        x = x + P @ coarse.solve(P.T @ (r - K @ x))
        return smooth(x, r, _SWEEPS)

    return cycle


def _lobpcg(A, M, x, precond):
    """(lam, v) for the lowest eigenpair of A v = lam M v by LOBPCG for one
    vector (Knyazev 2001) from x, preconditioned by precond: stops once
    ||A x - lam M x||_2^2 <= _STOP for the M-unit x, after _MAXITER steps, or
    when the basis [x, w, p] loses rank.  v is M-unit.  The dense products
    with n-vectors (the norms, the Gram matrices and the combination S c)
    are einsums, never BLAS: these n x 3 products are too small to gain
    from BLAS threads, whose start-up and spinning cost more than they
    save."""
    S = np.empty((3, 3, x.size))    # rows x, w, p; columns v, A v, M v
    S[0] = x, A @ x, M @ x
    rows = 2                        # p joins after the first step
    for step in range(_MAXITER + 1):
        S[0] /= np.sqrt(np.einsum("n,n", S[0, 0], S[0, 2]))
        x, Ax, Mx = S[0]
        lam = np.einsum("n,n", x, Ax)
        r = Ax - lam * Mx
        if step == _MAXITER or np.einsum("n,n", r, r) <= _STOP:
            break
        w = precond(r)
        S[1] = w, A @ w, M @ w
        B = S[1:rows]
        B /= np.sqrt(np.einsum("in,in->i", B[:, 0], B[:, 2]))[:, None, None]
        GA = np.einsum("in,jn->ij", S[:rows, 0], S[:rows, 1])
        GM = np.einsum("in,jn->ij", S[:rows, 0], S[:rows, 2])
        for m in range(rows, 1, -1):    # drop p if [x, w, p] loses rank
            try:
                L = np.linalg.inv(np.linalg.cholesky(GM[:m, :m]))
            except np.linalg.LinAlgError:
                continue
            c = L.T @ np.linalg.eigh(L @ GA[:m, :m] @ L.T)[1][:, 0]
            break
        else:
            break
        p = np.einsum("i,ijn->jn", c[1:], S[1:m])
        S[0] = c[0] * S[0] + p
        S[2] = p
        rows = 3
    return lam, x


def lowest_eigenpairs(A, M, k: int, tol: float = 1e-8, seed: int = 0,
                      lower_bound: float | None = None,
                      start: np.ndarray | None = None,
                      bottom: float | None = None,
                      prolong: sp.spmatrix | None = None) -> SpectrumResult:
    """k smallest eigenpairs of A v = lam M v (A symmetric, M SPD).

    Pencils of at most _DENSE_CUTOFF rows (or 3(k + 5)) go to dense LAPACK.
    Above that the solve is shift-invert Lanczos, deterministic for a fixed
    seed: the start vector is drawn from a seeded generator.  This path
    requires lower_bound, a certified lb <= lambda_min (an assembled form's
    `coercivity_bound`): without it a ValueError is raised.

    With bottom, a lower bound of lambda_1 by theorem (the form's
    `closedform.spectral_bottom`), one full-precision solve runs from the
    shift max(bottom, lower_bound) - 1e-9 max(1, |.|).  Every eigenvalue
    lies above that shift, so an eigenvalue returned below it means the
    bottom was no bound: a RuntimeError is raised.  Without bottom the
    solve has two stages.  Stage 1 finds an estimate lam_hat >= lambda_1
    from the shift 1 below lower_bound.  Stage 2 solves at full precision
    from a shift below lam_hat and must not land above it.

    start (n x j), e.g. prolonged coarse-mesh eigenvectors, seeds the
    solves; without it the seeded random vector is the one column.  Stage
    1 starts from start[:, 0], the full-precision solve from the sum of
    its normalized columns, each with the seeded random vector mixed in
    at weight 0.01, so that no eigenvector is missing from the Krylov
    space even when start is orthogonal to it.  Whatever the start, an
    ARPACK solve for j eigenvalues keeps 2j + 8 Lanczos vectors (10 at
    stage 1) and the stage-2 shift sits 2% of max(1, |lam_hat|) below
    lam_hat: the margin covers stage 1's Ritz error, which ARPACK's
    residual test bounds for any start vector.

    prolong, the prolongation P from a coarser level of the same form
    (`forms.coarse_form`), serves k = 1 solves from bottom only: there the
    one solve is `_lobpcg` (method "lobpcg") from the same mixed start
    vector, preconditioned by a two-grid cycle for K = A - shift M on the
    coarse level P^T K P, so A - shift M is never factored.  It stops once
    ||A v - lam M v||_2 <= 1e-10 for the M-unit v, and the result is
    accepted as converged only when its residual meets tol.  A Rayleigh
    quotient never lies below lambda_1, so the bottom is refused as above.
    """
    n = A.shape[0]
    if A.shape != (n, n) or M.shape != (n, n):
        raise ValueError("A and M must be square and of equal size")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if _dense(n, k):
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
        vals, V = sla.eigh(Ad, Md)
        vals, V = vals[:k], V[:, :k]
        res = _residuals(A, M, vals, V)
        return SpectrumResult(vals, V, res, "dense",
                              bool(np.all(res <= tol)), tol, None)

    if lower_bound is None:
        raise ValueError(f"a pencil of {n} rows takes the Lanczos path, which "
                         "needs lower_bound, a certified bound below lambda_1")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    start = np.asarray(v0 if start is None else start, dtype=float).reshape(n, -1)
    unit = start / np.linalg.norm(start, axis=0)
    noise = 0.01 * v0 / np.linalg.norm(v0)
    v1 = unit[:, 0] + noise
    v0 = unit.sum(axis=1) / np.sqrt(unit.shape[1]) + noise
    # an ARPACK solve for j eigenvalues keeps 2j + 8 Lanczos vectors, which
    # the Lanczos path's n > max(400, 3(k + 5)) always allows
    if bottom is not None:
        # the bottom bounds lambda_1 by theorem: no stage 1 is needed
        floor = max(float(bottom), float(lower_bound))
        sigma = floor - 1e-9 * max(1.0, abs(floor))
    else:
        # stage 1: shift below the certified bound, so the nearest-to-shift
        # eigenvalue is provably the bottom; loose tolerance keeps it cheap
        sigma1 = float(lower_bound) - 1.0
        rough = spla.eigsh(A, k=1, M=M, sigma=sigma1, which="LM", v0=v1,
                           ncv=10, maxiter=5000, tol=1e-5,
                           return_eigenvectors=False)
        lam_hat = float(np.min(rough))  # >= lambda_1 (Ritz from below in OP)
        # stage 2: refined shift with a safety margin
        sigma = lam_hat - 0.02 * max(1.0, abs(lam_hat))
    if bottom is not None and k == 1 and prolong is not None:
        lam, v = _lobpcg(A, M, v0, _two_grid(A - sigma * M, prolong))
        vals, V = np.array([lam]), v[:, None]
        method, converged = "lobpcg", True
    else:
        method = "shift-invert"
        try:
            vals, V = spla.eigsh(A, k=k, M=M, sigma=sigma, which="LM", v0=v0,
                                 ncv=2 * k + 8, maxiter=5000)
            converged = True
        except spla.ArpackNoConvergence as exc:  # keep whatever did converge
            vals, V = exc.eigenvalues, exc.eigenvectors
            converged = vals.size >= k
    low = float(np.min(vals)) if vals.size else None
    if bottom is not None and low is not None and low < sigma:
        raise _BottomError(
            f"spectral bottom {float(bottom)!r} is not a lower bound: "
            f"eigenvalue {low!r} lies below the shift {sigma!r} under it")
    if bottom is None and low is not None and (
            low > lam_hat + 1e-6 * max(1.0, abs(lam_hat))):
        raise RuntimeError(
            f"refined solve lost the spectral bottom: {low!r} "
            f"above the certified-shift estimate {lam_hat!r}")
    order = np.argsort(vals)
    vals, V = vals[order], V[:, order]
    res = _residuals(A, M, vals, V)
    return SpectrumResult(vals, V, res, method,
                          converged and bool(np.all(res <= tol)), tol, sigma)


def lowest_form_eigenpairs(df: forms.DiscreteForm, k: int, tol: float = 1e-8,
                           seed: int = 0,
                           bottom: float | None = None) -> SpectrumResult:
    """k smallest eigenpairs of an assembled form (nested iteration).

    On a form that takes the Lanczos path and has a `forms.coarse_form`,
    that form two levels coarser is solved first (by this function, so
    the coarse solve is warm-started too) and its
    eigenvectors, prolonged, start the fine solve; a k = 1 solve from
    bottom also takes the prolongation, for LOBPCG's two-grid
    preconditioner (see `lowest_eigenpairs`).  The meshes are nested,
    so each coarse lambda_j bounds the fine lambda_j from above; a fine
    result above that bound has missed an eigenvalue.  It, a coarse or
    fine solve that fails or does not converge, a form without that
    coarse level, or one whose coarse form has no more than k dofs gets
    the solve from the seeded random vector alone.  Either way the first
    shift lies below the form's certified `coercivity_bound`, or, given
    bottom (`closedform.spectral_bottom` of the form, a bound at every
    mesh level), the one shift lies just below bottom at every level.  A
    bottom refused at either level (the RuntimeError of
    `lowest_eigenpairs`) is raised at once, with no random-start retry."""
    solve = functools.partial(lowest_eigenpairs, df.A, df.M, k, tol=tol,
                              seed=seed, lower_bound=df.coercivity_bound,
                              bottom=bottom)
    warm = None if _dense(df.n_dofs, k) else forms.coarse_form(df)
    if warm is not None:
        cf, P = warm
        if cf.n_dofs > k:
            try:
                coarse = lowest_form_eigenpairs(cf, k, tol, seed, bottom)
                r = solve(start=P @ coarse.eigenvectors, prolong=P)
            except _BottomError:
                raise           # the random start would be refused the same
            except (RuntimeError, np.linalg.LinAlgError):
                pass            # ArpackError is a RuntimeError
            else:
                bound = coarse.eigenvalues + 1e-6 * np.maximum(
                    1.0, np.abs(coarse.eigenvalues))
                if (coarse.converged and r.converged
                        and np.all(r.eigenvalues <= bound)):
                    return r
    return solve()


def dense_eigen_oracle(A, M) -> np.ndarray:
    """All eigenvalues, ascending, of A v = lam M v by an independent route:
    own Cholesky of M, explicit reduction to standard form, Householder
    tridiagonalization, then Sturm counts with a certified Newton finish
    (each value within a Sturm bracket of 1e-15 of the spectral span or 4
    ulps). O(n^3) with a small constant; capped at n = 2500.  Non-finite
    entries in A or M raise ValueError."""
    n = A.shape[0]
    if n > 2500:
        raise ValueError(f"oracle capped at 2500 dofs, got {n}")
    Ad = np.ascontiguousarray(A.toarray() if sp.issparse(A) else A, dtype=float)
    Md = np.ascontiguousarray(M.toarray() if sp.issparse(M) else M, dtype=float)
    for name, a in (("A", Ad), ("M", Md)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")
    try:
        L = _kernels.cholesky_lower(Md)
    except np.linalg.LinAlgError:
        raise ValueError("mass matrix is not positive definite") from None
    X = _kernels.solve_lower(L, Ad)                      # L^-1 A
    C = _kernels.solve_lower(L, np.ascontiguousarray(X.T)).T  # L^-1 A L^-T
    C = np.ascontiguousarray(0.5 * (C + C.T))
    # free the dead n x n arrays: the reduction's copy and trailing updates
    # would otherwise set the peak memory on top of them
    del Ad, Md, L, X
    d, e = _kernels.tridiagonalize(C)
    return _kernels.tridiag_eigenvalues(d, e)
