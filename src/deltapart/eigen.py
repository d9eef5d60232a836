"""Generalized symmetric eigensolvers.

`lowest_eigenpairs` is the production path (dense LAPACK for small problems,
seeded shift-invert Lanczos above that).  Given the closed-form spectral
bottom of the form (`closedform.spectral_bottom`), it solves once from a
shift just below it; otherwise it runs two stages, the first from a shift
below a certified lower bound the caller passes, to place the second.
`lowest_form_eigenpairs` runs it on an assembled form with the form's
`coercivity_bound`, started from the prolonged eigenvectors of the same
form two mesh levels coarser (nested iteration).
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


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # columns, M-orthonormal
    residuals: np.ndarray     # relative residual per pair, see _residuals
    method: str               # "dense" | "shift-invert"
    converged: bool
    tol: float
    shift: float | None = None

    def count_below(self, threshold: float, slack: float = 0.0) -> int | None:
        """Eigenvalues below threshold - slack, or None when every computed
        one is: the spectrum may hold more than were computed."""
        below = int(np.count_nonzero(self.eigenvalues < threshold - slack))
        return None if below == self.eigenvalues.size else below


def _m_orthonormalize(M, V):
    G = V.T @ (M @ V)
    G = 0.5 * (G + G.T)
    L = np.linalg.cholesky(G)
    return sla.solve_triangular(L, V.T, lower=True).T


def _residuals(A, M, vals, V):
    """||A v - lam M v||_2 / ((||A||_inf + |lam| ||M||_inf) ||v||_2)."""
    na = spla.norm(A, np.inf) if sp.issparse(A) else np.linalg.norm(A, np.inf)
    nm = spla.norm(M, np.inf) if sp.issparse(M) else np.linalg.norm(M, np.inf)
    out = np.empty(vals.size)
    for j in range(vals.size):
        v = V[:, j]
        scale = (na + abs(vals[j]) * nm) * float(np.linalg.norm(v))
        out[j] = float(np.linalg.norm(A @ v - vals[j] * (M @ v))) / scale
    return out


def _dense(n: int, k: int) -> bool:
    return n <= max(_DENSE_CUTOFF, 3 * (k + 5))


def lowest_eigenpairs(A, M, k: int, tol: float = 1e-8, seed: int = 0,
                      lower_bound: float | None = None,
                      start: np.ndarray | None = None,
                      bottom: float | None = None) -> SpectrumResult:
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
    solves: stage 1 from start[:, 0], the full-precision solve from the
    sum of its normalized columns, each with the seeded random vector
    mixed in at weight 0.01, so that no eigenvector is missing from the
    Krylov space even when start is orthogonal to it.  A good start lets
    the Lanczos basis shrink to 2k + 8 vectors and the stage-2 margin to
    2% of max(1, |lam_hat|).  Without start the basis has max(4k + 10, 40)
    vectors and the margin is 50%.
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
        V = _m_orthonormalize(M, V)
        res = _residuals(A, M, vals, V)
        return SpectrumResult(vals, V, res, "dense",
                              bool(np.all(res <= tol)), tol, None)

    if lower_bound is None:
        raise ValueError(f"a pencil of {n} rows takes the Lanczos path, which "
                         "needs lower_bound, a certified bound below lambda_1")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if start is None:
        v1, ncv1, ncv, margin = v0, 40, max(4 * k + 10, 40), 0.5
    else:
        start = np.asarray(start, dtype=float).reshape(n, -1)
        unit = start / np.linalg.norm(start, axis=0)
        noise = 0.01 * v0 / np.linalg.norm(v0)
        v1 = unit[:, 0] + noise
        v0 = unit.sum(axis=1) / np.sqrt(unit.shape[1]) + noise
        ncv1, ncv, margin = 10, 2 * k + 8, 0.02
    ncv = min(n - 1, ncv)
    if bottom is not None:
        # the bottom bounds lambda_1 by theorem: no stage 1 is needed
        floor = max(float(bottom), float(lower_bound))
        sigma = floor - 1e-9 * max(1.0, abs(floor))
    else:
        # stage 1: shift below the certified bound, so the nearest-to-shift
        # eigenvalue is provably the bottom; loose tolerance keeps it cheap
        sigma1 = float(lower_bound) - 1.0
        rough = spla.eigsh(A, k=1, M=M, sigma=sigma1, which="LM", v0=v1,
                           ncv=min(n - 1, ncv1), maxiter=5000, tol=1e-5,
                           return_eigenvectors=False)
        lam_hat = float(np.min(rough))  # >= lambda_1 (Ritz from below in OP)
        # stage 2: refined shift with a safety margin
        sigma = lam_hat - margin * max(1.0, abs(lam_hat))
    try:
        vals, V = spla.eigsh(A, k=k, M=M, sigma=sigma, which="LM", v0=v0,
                             ncv=ncv, maxiter=5000)
        converged = True
    except spla.ArpackNoConvergence as exc:  # keep whatever did converge
        vals, V = exc.eigenvalues, exc.eigenvectors
        converged = vals.size >= k
    low = float(np.min(vals)) if vals.size else None
    if bottom is not None and low is not None and low < sigma:
        raise RuntimeError(
            f"spectral bottom {float(bottom)!r} is not a lower bound: "
            f"eigenvalue {low!r} lies below the shift {sigma!r} under it")
    if bottom is None and low is not None and (
            low > lam_hat + 1e-6 * max(1.0, abs(lam_hat))):
        raise RuntimeError(
            f"refined solve lost the spectral bottom: {low!r} "
            f"above the certified-shift estimate {lam_hat!r}")
    order = np.argsort(vals)
    vals, V = vals[order], V[:, order]
    V = _m_orthonormalize(M, V)
    res = _residuals(A, M, vals, V)
    return SpectrumResult(vals, V, res, "shift-invert",
                          converged and bool(np.all(res <= tol)), tol, sigma)


def lowest_form_eigenpairs(df: forms.DiscreteForm, k: int, tol: float = 1e-8,
                           seed: int = 0,
                           bottom: float | None = None) -> SpectrumResult:
    """k smallest eigenpairs of an assembled form (nested iteration).

    On a delta or delta' form of refinement level >= 2 that takes the
    Lanczos path, the same form two levels coarser is solved first (by
    this function, so the coarse solve is warm-started too) and its
    eigenvectors, prolonged, start the fine solve.  The meshes are nested,
    so each coarse lambda_j bounds the fine lambda_j from above; a fine
    result above that bound has missed an eigenvalue.  It, a coarse or
    fine solve that fails or does not converge, a form without that
    coarse level, or one whose coarse form has no more than k dofs gets
    the solve from the seeded random vector alone.  Either way the first
    shift lies below the form's certified `coercivity_bound`, or, given
    bottom (`closedform.spectral_bottom` of the form, a bound at every
    mesh level), the one shift lies just below bottom at every level."""
    solve = functools.partial(lowest_eigenpairs, df.A, df.M, k, tol=tol,
                              seed=seed, lower_bound=df.coercivity_bound,
                              bottom=bottom)
    if (df.interaction is not None and df.mesh.refinement_level >= 2
            and not _dense(df.n_dofs, k)):
        cf, P = forms.coarse_form(df)
        if cf.n_dofs > k:
            try:
                coarse = lowest_form_eigenpairs(cf, k, tol, seed, bottom)
                r = solve(start=P @ coarse.eigenvectors)
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
    """All eigenvalues of A v = lam M v by an independent route: own Cholesky
    of M, explicit reduction to standard form, Householder tridiagonalization,
    then Sturm counts with a certified Newton finish (each value within a
    Sturm bracket of 1e-15 of the spectral span or 4 ulps). O(n^3) with a
    small constant; capped at n = 2500.  Non-finite entries in A or M raise
    ValueError."""
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
    return np.sort(_kernels.tridiag_eigenvalues(d, e))
