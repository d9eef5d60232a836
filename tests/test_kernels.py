"""Reference checks of the numpy kernels against closed forms and LAPACK."""

import numpy as np
import pytest

import deltapart._kernels as kernels


def test_p1_elements_reference_values():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]], dtype=np.int64)
    stiff, mass, area = kernels.p1_elements(pts, tris)
    assert area[0] == pytest.approx(0.5)
    # exact P1 element mass: area/12 * [[2,1,1],[1,2,1],[1,1,2]]
    m_ref = (0.5 / 12.0) * np.array([2, 1, 1, 1, 2, 1, 1, 1, 2], dtype=float)
    assert np.allclose(mass[0], m_ref, rtol=0, atol=1e-16)
    k_ref = 0.5 * np.array([2, -1, -1, -1, 1, 0, -1, 0, 1], dtype=float)
    assert np.allclose(stiff[0], k_ref, rtol=0, atol=1e-15)


def test_linear_algebra_kernels_against_lapack():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((40, 40))
    S = np.ascontiguousarray(B @ B.T + 40 * np.eye(40))
    L = kernels.cholesky_lower(S)
    assert np.max(np.abs(L @ L.T - S)) <= 1e-11 * np.max(np.abs(S))
    X = kernels.solve_lower(L, np.eye(40))
    assert np.max(np.abs(L @ X - np.eye(40))) <= 1e-12
    C = np.ascontiguousarray(0.5 * (B + B.T))
    d, e = kernels.tridiagonalize(C)
    ev = np.sort(kernels.tridiag_eigenvalues(d, e))
    assert np.max(np.abs(ev - np.linalg.eigvalsh(C))) <= 1e-11


def test_cholesky_signals_non_spd():
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        kernels.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
