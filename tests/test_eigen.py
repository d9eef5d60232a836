import collections
import dataclasses
import functools
import importlib

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from deltapart import closedform, eigen, forms, geometry, mesh


def _form(name, levels, operator="delta", bc="dirichlet", alpha=1.0,
          beta=2.0, box_radius=4.0, **params):
    params["box_radius"] = box_radius
    p = geometry.build_canonical_partition(name, params)
    m = mesh.triangulate(p, levels)
    d = geometry.InteractionData.uniform(p, alpha, beta)
    maker = (forms.assemble_delta if operator == "delta"
             else forms.assemble_delta_prime)
    return maker(m, d, bc)


def _random_pencil(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = 0.5 * (B + B.T)
    C = rng.standard_normal((n, n))
    M = C @ C.T + n * np.eye(n)
    return sp.csr_matrix(A), sp.csr_matrix(M)


def test_dense_path_matches_lapack():
    A, M = _random_pencil(60, 0)
    r = eigen.lowest_eigenpairs(A, M, 4)
    ref = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)[:4]
    assert r.method == "dense"
    assert np.allclose(r.eigenvalues, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("path", ["dense", "lanczos", "warm", "lobpcg"])
def test_result_invariants(path, solve_starts):
    """Ascending eigenvalues, residuals within tol and M-orthonormal
    eigenvectors, as LAPACK, ARPACK and LOBPCG return them, on each path:
    dense (star3 L3, k = 6), a bare-pencil Lanczos solve from the random
    start (star3 L4, k = 6), a warm-started k = 10 solve of the Neumann
    island's delta' form and a warm-started k = 1 solve of the half-plane
    delta form from its spectral bottom (L5)."""
    if path == "warm":
        df = _form("island", 3, operator="delta-prime", bc="neumann")
        r = eigen.lowest_form_eigenpairs(df, 10)
        assert solve_starts[-1] == (df.n_dofs, True)
    elif path == "lobpcg":
        df, bottom = _half_plane_bottom("delta", 5)
        r = eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
        assert solve_starts[-1] == (df.n_dofs, True)
    else:
        df = _form("star3", 3 if path == "dense" else 4)
        r = eigen.lowest_eigenpairs(df.A, df.M, 6,
                                    lower_bound=df.coercivity_bound)
        assert solve_starts == [(df.n_dofs, False)]
    assert r.method == {"dense": "dense", "lobpcg": "lobpcg"}.get(
        path, "shift-invert")
    k = r.eigenvalues.size
    assert k == {"warm": 10, "lobpcg": 1}.get(path, 6)
    assert np.all(np.diff(r.eigenvalues) >= 0.0)
    assert np.all(r.residuals <= r.tol)
    G = r.eigenvectors.T @ (df.M @ r.eigenvectors)
    assert np.max(np.abs(G - np.eye(k))) <= 1e-10
    assert r.converged


def test_residuals_match_the_per_pair_formula():
    """The residuals, columns of R = A V - (M V) diag(vals), against the
    formula taken one pair at a time; only the order of the norms' sums
    differs."""
    df = _form("star3", 4)
    r = eigen.lowest_eigenpairs(df.A, df.M, 6,
                                lower_bound=df.coercivity_bound)
    na = np.abs(df.A).sum(axis=1).max()
    nm = np.abs(df.M).sum(axis=1).max()
    ref = [np.linalg.norm(df.A @ v - lam * (df.M @ v))
           / ((na + abs(lam) * nm) * np.linalg.norm(v))
           for lam, v in zip(r.eigenvalues, r.eigenvectors.T)]
    assert np.allclose(r.residuals, ref, rtol=1e-12, atol=0.0)


def test_shift_invert_matches_dense():
    df = _form("star3", 4)          # 841 dofs -> iterative path
    r = eigen.lowest_eigenpairs(df.A, df.M, 5,
                                lower_bound=df.coercivity_bound)
    ref = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True)[:5]
    assert r.method == "shift-invert" and r.shift is not None
    assert np.max(np.abs(r.eigenvalues - ref) /
                  np.maximum(1.0, np.abs(ref))) <= 1e-8


def test_determinism():
    df = _form("star3", 4, operator="delta-prime")     # 888 dofs
    r1 = eigen.lowest_eigenpairs(df.A, df.M, 3, seed=42,
                                 lower_bound=df.coercivity_bound)
    r2 = eigen.lowest_eigenpairs(df.A, df.M, 3, seed=42,
                                 lower_bound=df.coercivity_bound)
    assert r1.method == "shift-invert"
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_count_below():
    r = eigen.SpectrumResult(np.array([-2.0, -1.0, -0.5, 0.5]),
                             np.eye(4), np.zeros(4), "dense", True, 1e-8)
    assert r.count_below(0.0) == 3
    assert r.count_below(-0.5) == 2
    assert r.count_below(-0.5, slack=0.6) == 1
    # every computed eigenvalue below: more may lie below, uncomputed
    assert r.count_below(1.0) is None
    assert r.count_below(1.0, slack=0.6) == 3


def test_argument_validation():
    A, M = _random_pencil(10, 1)
    with pytest.raises(ValueError, match="1 <= k < n"):
        eigen.lowest_eigenpairs(A, M, 10)
    with pytest.raises(ValueError, match="square"):
        eigen.lowest_eigenpairs(A, sp.csr_matrix(np.eye(9)), 2)


def test_oracle_matches_lapack():
    A, M = _random_pencil(120, 2)
    vals = eigen.dense_eigen_oracle(A, M)
    ref = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    assert np.max(np.abs(vals - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_oracle_rejects_indefinite_mass():
    A = sp.csr_matrix(np.eye(5))
    M = sp.csr_matrix(np.diag([1.0, 1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="positive definite"):
        eigen.dense_eigen_oracle(A, M)


def test_certified_bound_below_true_minimum():
    for operator in ("delta", "delta-prime"):
        df = _form("line_with_bump", 2, operator=operator, bc="neumann",
                   alpha=2.0, beta=0.6)
        ref = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True)[0]
        assert df.coercivity_bound <= ref + 1e-12


def test_lanczos_path_needs_lower_bound():
    df = _form("half_plane", 4)
    assert df.n_dofs > eigen._DENSE_CUTOFF
    with pytest.raises(ValueError, match="lower_bound"):
        eigen.lowest_eigenpairs(df.A, df.M, 1)


# -- nested-mesh warm start ---------------------------------------------------

_WARM_CASES = [("star3", 4, {}), ("grid", 4, {"variant": "chi4"}),
               ("island", 3, {})]


@pytest.fixture
def solve_starts(monkeypatch):
    """Records (n, start given) of every lowest_eigenpairs call."""
    calls = []
    plain = eigen.lowest_eigenpairs

    def spy(A, M, k, **kwargs):
        calls.append((A.shape[0], kwargs.get("start") is not None))
        return plain(A, M, k, **kwargs)

    monkeypatch.setattr(eigen, "lowest_eigenpairs", spy)
    return calls


@pytest.mark.parametrize("name,levels,params", _WARM_CASES)
def test_warm_start_matches_dense(name, levels, params, solve_starts):
    for operator in ("delta", "delta-prime"):
        for bc in ("dirichlet", "neumann"):
            df = _form(name, levels, operator=operator, bc=bc, **params)
            ref = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                           subset_by_index=[0, 9])
            for k in (1, 5, 10):
                solve_starts.clear()
                r = eigen.lowest_form_eigenpairs(df, k)
                assert solve_starts[-1] == (df.n_dofs, True)
                assert r.method == "shift-invert" and r.converged
                assert np.max(np.abs(r.eigenvalues - ref[:k])
                              / np.maximum(1.0, np.abs(ref[:k]))) <= 1e-8


def test_warm_start_resolves_close_pairs():
    # the bottom ten of star3 hold pairs a few percent apart, which the
    # single combined stage-2 start vector must both resolve
    df = _form("star3", 4, operator="delta-prime", bc="neumann")
    ref = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                   subset_by_index=[0, 9])
    assert np.min(np.diff(ref) / np.maximum(1.0, np.abs(ref[1:]))) < 0.02
    r = eigen.lowest_form_eigenpairs(df, 10)
    assert np.max(np.abs(r.eigenvalues - ref)
                  / np.maximum(1.0, np.abs(ref))) <= 1e-8


def test_warm_start_determinism():
    df = _form("grid", 4, operator="delta-prime", variant="chi4")
    r1 = eigen.lowest_form_eigenpairs(df, 5, seed=7)
    r2 = eigen.lowest_form_eigenpairs(df, 5, seed=7)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_warm_start_fallbacks(solve_starts):
    # level < 2: no mesh two levels coarser
    df = _form("island", 1, bc="neumann", sides=128)
    assert df.n_dofs > 400
    eigen.lowest_form_eigenpairs(df, 1)
    assert solve_starts == [(df.n_dofs, False)]
    # a form small enough for LAPACK needs no start
    solve_starts.clear()
    small = _form("star3", 3)
    eigen.lowest_form_eigenpairs(small, 1)
    assert solve_starts == [(small.n_dofs, False)]
    # a subdomain Robin form has no delta/delta' assembler to coarsen
    p = geometry.build_canonical_partition("half_plane", {"box_radius": 4.0})
    m = mesh.triangulate(p, 5)
    rf = forms.assemble_subdomain_robin(m, int(m.subdomain_ids()[0]), 1.0)
    assert rf.n_dofs > 400
    solve_starts.clear()
    eigen.lowest_form_eigenpairs(rf, 1)
    assert solve_starts == [(rf.n_dofs, False)]
    # the coarse level has no more than k dofs
    hp = _form("half_plane", 4)
    assert forms.coarse_form(hp)[0].n_dofs <= 30 < hp.n_dofs
    solve_starts.clear()
    r = eigen.lowest_form_eigenpairs(hp, 30)
    assert solve_starts == [(hp.n_dofs, False)]
    ref = sla.eigh(hp.A.toarray(), hp.M.toarray(), eigvals_only=True)[:30]
    assert np.max(np.abs(r.eigenvalues - ref)
                  / np.maximum(1.0, np.abs(ref))) <= 1e-8


@functools.lru_cache(maxsize=None)
def _bottom_six(problem):
    """A form and its six lowest eigenpairs: dense for grid chi4 at level 4,
    from the random start (checked against dense elsewhere) for the
    Neumann island, whose first shift lies at the far patch bound near
    -395, and for the 32k-dof half-plane."""
    if problem == "grid":
        df = _form("grid", 4, variant="chi4")
        vals, V = sla.eigh(df.A.toarray(), df.M.toarray(),
                           subset_by_index=[0, 5])
        return df, vals, V
    if problem == "island":
        df = _form("island", 5, operator="delta-prime", bc="neumann",
                   alpha=0.0, beta=1.0, box_radius=6.0, sides=16, radius=3.0)
    else:
        df = _form("half_plane", 7, operator="delta-prime", alpha=0.0,
                   beta=2.0, box_radius=16.0)
    r = eigen.lowest_eigenpairs(df.A, df.M, 6, lower_bound=df.coercivity_bound)
    assert r.converged
    return df, r.eigenvalues, r.eigenvectors


@pytest.mark.parametrize("problem", ["grid", "island", "half_plane"])
@pytest.mark.parametrize("k,hidden", [(1, 0), (3, 1)])
def test_start_cannot_hide_an_eigenvalue(problem, k, hidden):
    """A start M-orthogonal to one of the bottom k eigenvectors (what a
    coarse level that misses it would give) still yields the true bottom
    k, through the seeded random vector mixed into both stages."""
    df, vals, V = _bottom_six(problem)
    X = V @ np.random.default_rng(5).standard_normal((6, k))
    X -= np.outer(V[:, hidden], V[:, hidden] @ (df.M @ X))
    r = eigen.lowest_eigenpairs(df.A, df.M, k, start=X,
                                lower_bound=df.coercivity_bound)
    assert np.max(np.abs(r.eigenvalues - vals[:k])
                  / np.maximum(1.0, np.abs(vals[:k]))) <= 1e-8


def _no_convergence(r):
    raise ArpackNoConvergence("no convergence", r.eigenvalues, r.eigenvectors)


def _singular(r):
    raise np.linalg.LinAlgError("not positive definite")


@pytest.mark.parametrize("level,spoil", [
    # the warm solve returns lambda_2 as lambda_1, above the coarse bound
    pytest.param("fine", lambda r: dataclasses.replace(
        r, eigenvalues=r.eigenvalues + 1.0), id="fine-above-bound"),
    pytest.param("fine", lambda r: dataclasses.replace(r, converged=False),
                 id="fine-unconverged"),
    pytest.param("fine", _no_convergence, id="fine-raises"),
    pytest.param("coarse", lambda r: dataclasses.replace(r, converged=False),
                 id="coarse-unconverged"),
    pytest.param("coarse", _singular, id="coarse-raises"),
])
def test_warm_start_falls_back_to_the_random_start(monkeypatch, solve_starts,
                                                   level, spoil):
    df = _form("grid", 4, variant="chi4")
    ref = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                   subset_by_index=[0, 2])
    n = df.n_dofs if level == "fine" else forms.coarse_form(df)[0].n_dofs
    plain = eigen.lowest_eigenpairs

    def spoiled(A, M, k, **kwargs):
        # spoils the warm fine solve, or every solve of the coarse level
        r = plain(A, M, k, **kwargs)
        if A.shape[0] == n and (level == "coarse"
                                or kwargs.get("start") is not None):
            return spoil(r)
        return r

    monkeypatch.setattr(eigen, "lowest_eigenpairs", spoiled)
    r = eigen.lowest_form_eigenpairs(df, 3)
    assert solve_starts[-1] == (df.n_dofs, False)
    assert r.converged
    assert np.max(np.abs(r.eigenvalues - ref)
                  / np.maximum(1.0, np.abs(ref))) <= 1e-8


def test_fine_level_solve_count(monkeypatch):
    """Operator solves of k=1 half-plane solves at 8k dofs, counted through
    the SuperLU factor that ARPACK's shift-invert mode builds: 27 for
    delta and delta' (82 and 102 from a random start)."""
    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    plain = arpack.splu
    counts = collections.Counter()

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            counts[self._lu.shape[0]] += 1
            return self._lu.solve(*args, **kwargs)

    monkeypatch.setattr(arpack, "splu", lambda *a, **kw: Counted(plain(*a, **kw)))
    for operator, alpha, beta in (("delta", 1.0, 1.0), ("delta-prime", 0.0, 2.0)):
        df = _form("half_plane", 6, operator=operator, alpha=alpha, beta=beta,
                   box_radius=8.0)
        counts.clear()
        r = eigen.lowest_form_eigenpairs(df, 1, seed=0)
        assert r.converged
        assert 0 < counts[df.n_dofs] <= 30


# -- one solve from the closed-form spectral bottom ---------------------------

def _half_plane_bottom(operator, levels):
    """A Dirichlet half-plane form (alpha = 1, beta = 2) and its
    `closedform.spectral_bottom`."""
    df = _form("half_plane", levels, operator=operator, alpha=1.0, beta=2.0,
               box_radius=8.0)
    return df, closedform.spectral_bottom("half_plane", operator,
                                          "dirichlet", 1.0, 2.0)


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
@pytest.mark.parametrize("k", [1, 10])
def test_bottom_path_matches_two_stage_path(operator, k):
    df, bottom = _half_plane_bottom(operator, 5)
    assert df.n_dofs > eigen._DENSE_CUTOFF
    two_stage = eigen.lowest_form_eigenpairs(df, k)
    one = eigen.lowest_form_eigenpairs(df, k, bottom=bottom)
    assert one.converged and one.shift < bottom < one.eigenvalues[0]
    assert np.max(np.abs(one.eigenvalues - two_stage.eigenvalues)
                  / np.abs(two_stage.eigenvalues)) <= 1e-12


def _count_calls(monkeypatch, *names):
    """{name: Counter of the row counts A of each call} for these solvers
    as `eigen` calls them: its own `_lobpcg`, or one of scipy.sparse.linalg
    (`eigsh`)."""
    calls = {}
    for name in names:
        owner = eigen if name.startswith("_") else eigen.spla
        plain = getattr(owner, name)
        calls[name] = sizes = collections.Counter()

        def counted(A, *args, _plain=plain, _sizes=sizes, **kwargs):
            _sizes[A.shape[0]] += 1
            return _plain(A, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
def test_bottom_path_calls_lobpcg_once_per_warm_level(monkeypatch, operator):
    """Levels 6 and 4 of this form take the Lanczos path (level 2 is
    dense), each warm-started from the level two below: one lobpcg solve
    from the bottom and no eigsh call at each, two eigsh calls each with
    stage 1."""
    df, bottom = _half_plane_bottom(operator, 6)
    calls = _count_calls(monkeypatch, "eigsh", "_lobpcg")
    eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
    once = dict(calls["_lobpcg"])
    assert not calls["eigsh"]
    calls["_lobpcg"].clear()
    eigen.lowest_form_eigenpairs(df, 1)
    assert len(once) == 2 and df.n_dofs in once
    assert all(v == 1 for v in once.values())
    assert not calls["_lobpcg"]
    assert calls["eigsh"] == {n: 2 for n in once}


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
def test_bottom_path_finds_a_hidden_lambda1(operator):
    """A k = 1 LOBPCG solve from the bottom, started M-orthogonal to v_1
    (what a coarse level that misses it would give), still returns the
    dense lambda_1: from v_2 itself, whose residual is already within tol,
    only the seeded random vector mixed into the start leads away from
    lambda_2, and from a mix of v_2 .. v_6."""
    df, bottom = _half_plane_bottom(operator, 5)
    vals, V = sla.eigh(df.A.toarray(), df.M.toarray(), subset_by_index=[0, 5])
    mix = V @ np.random.default_rng(5).standard_normal(6)
    mix -= V[:, 0] * (V[:, 0] @ (df.M @ mix))
    for x in (V[:, 1], mix):
        r = eigen.lowest_eigenpairs(df.A, df.M, 1, start=x, bottom=bottom,
                                    lower_bound=df.coercivity_bound,
                                    prolong=forms.coarse_form(df)[1])
        assert r.method == "lobpcg" and r.converged
        assert np.all(r.residuals <= r.tol)
        assert abs(r.eigenvalues[0] - vals[0]) <= 1e-8 * max(1.0, abs(vals[0]))


@pytest.mark.parametrize("solver", ["pencil", "form"])
def test_bottom_above_lambda1_is_refused(solver, monkeypatch):
    """A bottom between lambda_1 and lambda_2 puts the shift above lambda_1:
    the solve raises instead of returning lambda_2 as the bottom, also
    from the warm start (a LOBPCG solve), after one fine solve and no
    random-start retry."""
    df, _ = _half_plane_bottom("delta", 5)
    lam = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                   subset_by_index=[0, 1])
    bottom = lam[0] + 0.05 * (lam[1] - lam[0])
    calls = _count_calls(monkeypatch, "eigsh", "_lobpcg")
    with pytest.raises(RuntimeError, match="spectral bottom .* not a lower"):
        if solver == "pencil":
            eigen.lowest_eigenpairs(df.A, df.M, 1, bottom=bottom,
                                    lower_bound=df.coercivity_bound)
        else:
            eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
    fine = {name: sizes[df.n_dofs] for name, sizes in calls.items()}
    assert fine == {"eigsh": int(solver == "pencil"),
                    "_lobpcg": int(solver == "form")}


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
def test_lobpcg_helper_against_dense(operator, monkeypatch):
    """`_lobpcg` on the L5 half-plane pencil, preconditioned by the
    two-grid cycle at the form's shift from the bottom on
    `forms.coarse_form`'s level and started from the prolonged coarse
    eigenvector: the dense lambda_1 to 1e-12, an M-unit vector and a
    residual within 1e-10.  From the dense v_1 it stops before any
    preconditioner call.  The form's solve that gives the shift is itself
    a "lobpcg" solve with scipy's lobpcg made to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(eigen.spla, "lobpcg", refuse)
    df, bottom = _half_plane_bottom(operator, 5)
    fine = eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
    assert fine.method == "lobpcg"
    cf, P = forms.coarse_form(df)
    coarse = eigen.lowest_form_eigenpairs(cf, 1, bottom=bottom)
    cycle = eigen._two_grid(df.A - fine.shift * df.M, P)
    vals, V = sla.eigh(df.A.toarray(), df.M.toarray(), subset_by_index=[0, 0])
    lam, v = eigen._lobpcg(df.A, df.M, P @ coarse.eigenvectors[:, 0], cycle)
    assert abs(lam - vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))
    assert abs(v @ (df.M @ v) - 1.0) <= 1e-12
    assert np.linalg.norm(df.A @ v - lam * (df.M @ v)) <= 1e-10
    lam, v = eigen._lobpcg(df.A, df.M, V[:, 0], refuse)
    assert abs(lam - vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))


def _refuse_cholesky(monkeypatch, orders):
    """Make numpy's Cholesky fail on every single matrix whose order is in
    orders, as on a Gram matrix of dependent rows; returns the list of the
    orders refused."""
    plain, refused = np.linalg.cholesky, []

    def cholesky(a, *args, **kwargs):
        if np.ndim(a) == 2 and len(a) in orders:
            refused.append(len(a))
            raise np.linalg.LinAlgError("refused")
        return plain(a, *args, **kwargs)

    monkeypatch.setattr(eigen.np.linalg, "cholesky", cholesky)
    return refused


def test_lobpcg_helper_exits(monkeypatch):
    """Each way `_lobpcg` stops short returns the M-unit iterate and its
    Rayleigh quotient, on A = diag(1, 2, 3, 4), M = I from x = (1, 1, 1, 1):
    a preconditioner that returns x makes [x, w] dependent (its Gram
    Cholesky fails exactly: x is (1/2, 1/2, 1/2, 1/2)), so no step is
    taken; with p refused at every step, [x, w] alone still reaches
    lambda_1 = 1; and _MAXITER steps end the loop unconverged."""
    A, M = sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr(), sp.identity(4, format="csr")
    ones = np.ones(4)

    def rayleigh(lam, v):
        assert v @ (M @ v) == pytest.approx(1.0, abs=1e-14)
        assert lam == pytest.approx(v @ (A @ v), abs=1e-14)
        return np.linalg.norm(A @ v - lam * (M @ v))

    lam, v = eigen._lobpcg(A, M, ones, lambda r: ones)
    assert np.array_equal(v, ones / 2) and lam == 2.5
    assert rayleigh(lam, v) > 1e-10

    with monkeypatch.context() as patch:
        refused = _refuse_cholesky(patch, {3})
        lam, v = eigen._lobpcg(A, M, ones, lambda r: r)
        assert set(refused) == {3} and lam == pytest.approx(1.0)
        assert rayleigh(lam, v) <= 1e-10

    monkeypatch.setattr(eigen, "_MAXITER", 2)
    lam, v = eigen._lobpcg(A, M, ones, lambda r: r)
    assert rayleigh(lam, v) > 1e-10


@pytest.mark.parametrize("miss", ["steps", "rank"])
def test_lobpcg_miss_takes_arpack_fallback(miss, monkeypatch):
    """A k = 1 solve from the bottom whose `_lobpcg` stops unconverged,
    after _MAXITER = 0 steps or on a Gram matrix whose Cholesky fails, is
    solved again by ARPACK from the random start, to the same lambda_1."""
    df, bottom = _half_plane_bottom("delta", 5)
    want = eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
    calls = _count_calls(monkeypatch, "eigsh", "_lobpcg")
    if miss == "steps":
        monkeypatch.setattr(eigen, "_MAXITER", 0)
    else:
        _refuse_cholesky(monkeypatch, {2, 3})
    got = eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
    assert want.method == "lobpcg" and got.method == "shift-invert"
    assert got.converged and calls["_lobpcg"][df.n_dofs] == 1
    assert calls["eigsh"][df.n_dofs] == 1
    assert abs(got.eigenvalues[0] - want.eigenvalues[0]) <= 1e-12 * abs(
        want.eigenvalues[0])


def test_one_lanczos_policy_for_every_start(monkeypatch):
    """From the random start and from a warm start alike, an ARPACK solve
    for j eigenvalues keeps 2j + 8 Lanczos vectors (10 at stage 1), and
    the stage-2 shift sits 2% of max(1, |lam_hat|) below stage 1's
    estimate lam_hat."""
    df = _form("star3", 4)
    k = 3
    cf, P = forms.coarse_form(df)
    warm = P @ eigen.lowest_form_eigenpairs(cf, k).eigenvectors
    calls = []
    plain = eigen.spla.eigsh

    def spy(A, *args, **kwargs):
        out = plain(A, *args, **kwargs)
        calls.append((kwargs["k"], kwargs["ncv"], kwargs["sigma"], out))
        return out

    monkeypatch.setattr(eigen.spla, "eigsh", spy)
    for start in (None, warm):
        calls.clear()
        r = eigen.lowest_eigenpairs(df.A, df.M, k, start=start,
                                    lower_bound=df.coercivity_bound)
        (k1, ncv1, _, rough), (k2, ncv2, sigma2, _) = calls
        assert (k1, ncv1, k2, ncv2) == (1, 10, k, 2 * k + 8)
        lam_hat = float(np.min(rough))
        assert sigma2 == lam_hat - 0.02 * max(1.0, abs(lam_hat))
        assert r.shift == sigma2 < r.eigenvalues[0]
        assert r.method == "shift-invert" and r.converged
