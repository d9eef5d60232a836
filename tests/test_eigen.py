import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from deltapart import eigen, forms, geometry, mesh


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
        diag = df.A.diagonal()
        excess = np.asarray(abs(df.A).sum(axis=1)).ravel() - np.abs(diag) - diag
        assert eigen.gershgorin_lower_bound(excess, df.M) <= ref + 1e-12
        assert df.coercivity_bound <= ref + 1e-12
