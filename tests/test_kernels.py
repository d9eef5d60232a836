"""Reference checks of the numpy kernels against closed forms and LAPACK."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_p1_energies_reference_values():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]], dtype=np.int64)
    assert kernels.p1_energies(pts, tris, np.array([[1.0, 0.0, 0.0]])) \
        == pytest.approx((1.0, 1.0 / 12.0), rel=1e-15)
    # a constant has no energy and mass = area
    assert kernels.p1_energies(pts, tris, np.array([[1.0, 1.0, 1.0]])) \
        == pytest.approx((0.0, 0.5), rel=1e-15, abs=1e-15)


_coord = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*[_coord] * 6), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_p1_energies_match_element_matrices(corners, seed):
    """On random counterclockwise triangles, not near degenerate, and random
    complex v, the energies from gradients and areas equal the sums of
    conj(v)^T S v and conj(v)^T M v over the element matrices of p1_elements."""
    pts = np.array(corners).reshape(-1, 2)
    tris = np.arange(pts.shape[0]).reshape(-1, 3)
    x, y = pts[tris, 0], pts[tris, 1]
    twice_area = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) \
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    longest = ((x - np.roll(x, 1, axis=1)) ** 2
               + (y - np.roll(y, 1, axis=1)) ** 2).max(axis=1)
    assume(np.all(np.abs(twice_area) > 1e-3 * longest))
    tris[twice_area < 0] = tris[twice_area < 0][:, [0, 2, 1]]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(tris.shape) + 1j * rng.standard_normal(tris.shape)
    stiff, mass, _ = kernels.p1_elements(pts, tris)
    S, M = stiff.reshape(-1, 3, 3), mass.reshape(-1, 3, 3)
    s, m = kernels.p1_energies(pts, tris, v)
    assert s == pytest.approx(np.real(np.einsum("ti,tij,tj->", np.conj(v), S, v)),
                              rel=1e-12)
    assert m == pytest.approx(np.real(np.einsum("ti,tij,tj->", np.conj(v), M, v)),
                              rel=1e-12)


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


# -- blocked dense-oracle kernels ---------------------------------------------

NB = kernels.NB
_SIZES = [1, 2, 3, NB - 1, NB, NB + 1, 2 * NB + 1, 100]


def _random_symmetric(n, seed):
    B = np.random.default_rng(seed).standard_normal((n, n))
    return np.ascontiguousarray(0.5 * (B + B.T))


def _assert_same_spectrum(ev, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(ev - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("n", _SIZES)
def test_tridiagonalize_against_eigvalsh(n):
    C = _random_symmetric(n, n)
    before = C.copy()
    d, e = kernels.tridiagonalize(C)
    assert d.shape == (n,) and e.shape == (max(n - 1, 0),)
    assert np.array_equal(C, before)                 # input left alone
    _assert_same_spectrum(np.sort(kernels.tridiag_eigenvalues(d, e)),
                          np.linalg.eigvalsh(C))


def test_tridiagonalize_zero_subcolumn_inside_a_panel():
    """A direct sum of blocks: the column that closes a block has a zero
    sub-column, once in the first panel and twice in the second."""
    sizes = [5, 40, 9, 20]
    C = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for i, s in enumerate(sizes):
        C[at:at + s, at:at + s] = _random_symmetric(s, 10 + i)
        at += s
    d, e = kernels.tridiagonalize(C)
    for end in np.cumsum(sizes)[:-1]:
        assert e[end - 1] == 0.0
    _assert_same_spectrum(np.sort(kernels.tridiag_eigenvalues(d, e)),
                          np.linalg.eigvalsh(C))


def test_tridiagonal_with_repeated_eigenvalues():
    """Two copies of the (-1, 2, -1) matrix joined by a zero coupling: every
    eigenvalue is double."""
    m = NB + 3
    d = np.full(2 * m, 2.0)
    e = np.full(2 * m - 1, -1.0)
    e[m - 1] = 0.0
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(T)
    assert np.allclose(ref[0::2], ref[1::2], rtol=0, atol=1e-13)
    _assert_same_spectrum(np.sort(kernels.tridiag_eigenvalues(d, e)), ref)
    _assert_same_spectrum(
        np.sort(kernels.tridiag_eigenvalues(*kernels.tridiagonalize(T))), ref)


@pytest.mark.parametrize("n", _SIZES)
def test_cholesky_and_solve_against_lapack(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    S = np.ascontiguousarray(B @ B.T + n * np.eye(n))
    L = kernels.cholesky_lower(S)
    ref = np.linalg.cholesky(S)
    assert np.max(np.abs(L - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(L, np.tril(L))
    rhs = rng.standard_normal((n, n + 3))
    X = kernels.solve_lower(ref, rhs)
    Xr = sla.solve_triangular(ref, rhs, lower=True)
    assert np.max(np.abs(X - Xr)) <= 1e-12 * max(1.0, np.max(np.abs(Xr)))
    x = kernels.solve_lower(ref, rhs[:, 0])
    assert x.shape == (n,)
    assert np.max(np.abs(x - Xr[:, 0])) <= 1e-12 * max(1.0, np.max(np.abs(Xr)))


def test_cholesky_non_spd_pivot_in_second_block():
    """Every diagonal entry is positive, but the Schur complement turns
    negative at a row of the second block."""
    n, j = 2 * NB + 5, NB + 3
    B = np.random.default_rng(7).standard_normal((n, n))
    S = B @ B.T + n * np.eye(n)
    s = S[:j, j]
    S[j, j] = float(s @ np.linalg.solve(S[:j, :j], s)) - 1.0
    assert S[j, j] > 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(S)
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        kernels.cholesky_lower(S)


def _sturm_count_reference(d, e2, x):
    tiny = np.finfo(float).tiny
    q = d[0] - x
    cnt = int(q < 0.0)
    for i in range(1, d.size):
        denom = q if abs(q) >= tiny else (-tiny if q < 0.0 else tiny)
        q = d[i] - x - e2[i - 1] / denom
        cnt += q < 0.0
    return cnt


def test_sturm_count_against_scalar_loop():
    rng = np.random.default_rng(3)
    n = 60
    d = rng.integers(-3, 4, n).astype(float)         # repeated entries
    e = rng.standard_normal(n - 1)
    e[::4] = 0.0                                     # q == 0 at x == d[i]
    e2 = e * e
    xs = np.concatenate([rng.uniform(-6.0, 6.0, 40), d, -d])
    cnt = kernels._sturm_count(d, e2, xs)[0]
    ref = [_sturm_count_reference(d, e2, float(x)) for x in xs]
    assert np.array_equal(cnt, ref)
    assert kernels._sturm_count(d, e2, d[0])[0].tolist() == [ref[40]]


def test_sturm_count_across_row_blocks():
    """Counts and Newton sums of a 261-row matrix split by a zero coupling
    at row 127, against the scalar loop and the eigenvalues."""
    n = 261
    d, e = _random_tridiagonal(n, 11)
    e[127] = 0.0
    e2 = e * e
    xs = np.random.default_rng(12).uniform(-4.0, 4.0, 30)
    cnt, s = kernels._sturm_count(d, e2, xs, 10)
    assert np.array_equal(cnt, [_sturm_count_reference(d, e2, x) for x in xs])
    lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    ref = np.sum(1.0 / (xs[:10, None] - lam[None, :]), axis=1)
    assert np.allclose(s, ref, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("shift", [1e3, 1e6])
def test_bisection_stops_at_ulp_scale_on_shifted_spectra(shift, monkeypatch):
    """Far from 0 the ulp of the eigenvalues exceeds 1e-15 of their spread;
    bisection must stop there rather than run its 100 sweeps."""
    rng = np.random.default_rng(5)
    n = 50
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    calls = []
    count = kernels._sturm_count

    def counted(*args):
        calls.append(1)
        return count(*args)

    monkeypatch.setattr(kernels, "_sturm_count", counted)
    kernels.tridiag_eigenvalues(d, e)
    unshifted = len(calls)
    calls.clear()
    ev = np.sort(kernels.tridiag_eigenvalues(d + shift, e))
    assert len(calls) <= unshifted
    ref = np.linalg.eigvalsh(np.diag(d + shift) + np.diag(e, 1) + np.diag(e, -1))
    assert np.max(np.abs(ev - ref)) <= 64 * np.spacing(shift)


# -- Sturm counts with a certified Newton finish ------------------------------

def _wilkinson(m):
    """W_m^+: diagonal |(m-1)/2 - i|, unit couplings; its largest eigenvalues
    come in pairs closer than 1e-13."""
    k = (m - 1) // 2
    return np.abs(np.arange(-k, k + 1)).astype(float), np.ones(m - 1)


def _glued_wilkinson(copies, glue):
    d, e = _wilkinson(21)
    return (np.tile(d, copies),
            np.concatenate([np.append(e, glue)] * copies)[:-1])


def _split_doubles():
    m = NB + 3
    e = np.full(2 * m - 1, -1.0)
    e[m - 1] = 0.0
    return np.full(2 * m, 2.0), e


def _random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(max(n - 1, 0))


_TRIDIAGONALS = {
    "wilkinson21": _wilkinson(21),
    "wilkinson101": _wilkinson(101),
    "glued_wilkinson21x10": _glued_wilkinson(10, 1e-10),
    "split_doubles": _split_doubles(),
    **{f"random{n}": _random_tridiagonal(n, 20 + n)
       for n in (1, 2, 3, NB - 1, NB, NB + 1)},
}


@pytest.mark.parametrize("name", sorted(_TRIDIAGONALS))
def test_tridiag_eigenvalues_certified_by_sturm_counts(name):
    """Each value has its own Sturm bracket: lambda_j lies within
    max(4 ulps, 1e-15 span) of it by the counts, and it matches eigvalsh."""
    d, e = _TRIDIAGONALS[name]
    n = d.size
    ev = kernels.tridiag_eigenvalues(d, e)
    assert ev.shape == (n,) and np.all(np.diff(ev) >= 0.0)
    r = np.zeros(n)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    span = max(float(np.max(d + r) - np.min(d - r)), 1.0)
    w = np.maximum(1e-15 * span, 4.0 * np.spacing(np.abs(ev)))
    e2 = e * e
    assert np.all(kernels._sturm_count(d, e2, ev - w)[0] <= np.arange(n))
    assert np.all(kernels._sturm_count(d, e2, ev + w)[0] >= np.arange(1, n + 1))
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    _assert_same_spectrum(ev, np.linalg.eigvalsh(T))


def test_tridiag_eigenvalues_sweep_count(monkeypatch):
    """A random n = 400 tridiagonal takes at most 25 sweeps; bisection to
    1e-15 of the span took about 50."""
    d, e = _random_tridiagonal(400, 9)
    calls = []
    count = kernels._sturm_count

    def counted(*args):
        calls.append(1)
        return count(*args)

    monkeypatch.setattr(kernels, "_sturm_count", counted)
    kernels.tridiag_eigenvalues(d, e)
    assert len(calls) <= 25


def test_tridiag_eigenvalues_raises_at_the_sweep_cap():
    """A nan never gets a bracket; the sweeps end in an error, not in
    unbracketed midpoints."""
    d, e = _random_tridiagonal(10, 4)
    d[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="sweeps"):
        kernels.tridiag_eigenvalues(d, e)


@pytest.mark.parametrize("which", ["A", "M"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_oracle_rejects_non_finite_entries(which, bad):
    from deltapart import eigen
    mats = {"A": _random_symmetric(6, 1), "M": 6.0 * np.eye(6)}
    mats[which][2, 2] = bad
    with pytest.raises(ValueError, match=f"{which} has non-finite"):
        eigen.dense_eigen_oracle(mats["A"], mats["M"])
