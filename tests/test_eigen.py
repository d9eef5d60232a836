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


def test_result_invariants():
    df = _form("star3", 3)
    r = eigen.lowest_eigenpairs(df.A, df.M, 6,
                                lower_bound=df.coercivity_bound)
    assert np.all(np.diff(r.eigenvalues) >= 0.0)
    assert np.all(r.residuals <= r.tol)
    G = r.eigenvectors.T @ (df.M @ r.eigenvectors)
    assert np.max(np.abs(G - np.eye(6))) <= 1e-10
    assert r.converged


def test_shift_invert_matches_dense():
    df = _form("star3", 3)          # several hundred dofs -> iterative path
    r = eigen.lowest_eigenpairs(df.A, df.M, 5,
                                lower_bound=df.coercivity_bound)
    ref = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True)[:5]
    if r.method == "shift-invert":
        assert r.shift is not None
    assert np.max(np.abs(r.eigenvalues - ref) /
                  np.maximum(1.0, np.abs(ref))) <= 1e-8


def test_determinism():
    df = _form("star3", 3, operator="delta-prime")
    r1 = eigen.lowest_eigenpairs(df.A, df.M, 3, seed=42,
                                 lower_bound=df.coercivity_bound)
    r2 = eigen.lowest_eigenpairs(df.A, df.M, 3, seed=42,
                                 lower_bound=df.coercivity_bound)
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


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
def test_bottom_path_calls_eigsh_once_per_lanczos_level(monkeypatch, operator):
    """Levels 6 and 4 of this form take the Lanczos path (level 2 is
    dense): two eigsh calls from the bottom, four with stage 1."""
    df, bottom = _half_plane_bottom(operator, 6)
    plain = eigen.spla.eigsh
    sizes = collections.Counter()

    def counted(A, *args, **kwargs):
        sizes[A.shape[0]] += 1
        return plain(A, *args, **kwargs)

    monkeypatch.setattr(eigen.spla, "eigsh", counted)
    eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
    once = dict(sizes)
    sizes.clear()
    eigen.lowest_form_eigenpairs(df, 1)
    assert len(once) == 2 and df.n_dofs in once
    assert all(v == 1 for v in once.values())
    assert sizes == {n: 2 for n in once}


@pytest.mark.parametrize("solver", ["pencil", "form"])
def test_bottom_above_lambda1_is_refused(solver):
    """A bottom between lambda_1 and lambda_2 puts the shift above lambda_1:
    the solve raises instead of returning lambda_2 as the bottom, also
    through the warm start's fallback to the random start."""
    df, _ = _half_plane_bottom("delta", 5)
    lam = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                   subset_by_index=[0, 1])
    bottom = lam[0] + 0.05 * (lam[1] - lam[0])
    with pytest.raises(RuntimeError, match="spectral bottom .* not a lower"):
        if solver == "pencil":
            eigen.lowest_eigenpairs(df.A, df.M, 1, bottom=bottom,
                                    lower_bound=df.coercivity_bound)
        else:
            eigen.lowest_form_eigenpairs(df, 1, bottom=bottom)
