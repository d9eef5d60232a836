import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from deltapart import closedform, forms, geometry, mesh


def test_halfplane_bottoms():
    assert closedform.halfplane_bottoms(1.0, 1.0) == (-0.25, -4.0)
    assert closedform.halfplane_bottoms(2.0, 4.0) == (-1.0, -0.25)
    with pytest.raises(ValueError):
        closedform.halfplane_bottoms(0.0, 1.0)


def test_sharpness_boundary_cases():
    # (alpha, beta) = (1, 5): -alpha^2/4 < -4/beta^2, ordering impossible
    da, db = closedform.halfplane_bottoms(1.0, 5.0)
    assert db == pytest.approx(-0.16) and db > da
    # (1, 4): equal thresholds; (1, 3): delta-prime strictly deeper
    da, db = closedform.halfplane_bottoms(1.0, 4.0)
    assert da == db == -0.25
    da, db = closedform.halfplane_bottoms(1.0, 3.0)
    assert db == pytest.approx(-4.0 / 9.0) and db < da


def test_wedge_trace_bound():
    assert closedform.wedge_trace_bound(1.0, math.pi) == pytest.approx(-1.0)
    assert closedform.wedge_trace_bound(2.0, math.pi / 2) == pytest.approx(
        -4.0 / math.sin(math.pi / 4) ** 2)
    assert closedform.wedge_trace_bound(
        3.0, math.pi / 3, vanishing_on_bisector=True) == pytest.approx(-9.0)
    with pytest.raises(ValueError):
        closedform.wedge_trace_bound(1.0, 4.0)


def test_star_delta_bottom():
    assert closedform.star_delta_bottom(1.0) == pytest.approx(-1.0 / 3.0)
    assert closedform.star_delta_bottom(3.0) == pytest.approx(-3.0)


@pytest.mark.parametrize("name,operator,R,alpha,beta", [
    (name, op, R, a, b) for name, op, R, (a, b) in itertools.product(
        ("half_plane", "star3"), ("delta", "delta-prime"), (3.0, 6.0, 8.0),
        ((1.0, 1.0), (2.0, 0.5), (1.0, 3.0)))])
def test_spectral_bottom_below_dense_lambda1(name, operator, R, alpha, beta):
    """The closed-form bottom is a lower bound of the discrete lambda_1 on
    a coarse mesh, where lambda_1 lies close above it (star3 R8 delta:
    -0.3258 against -1/3) or far above it (the R3 boxes)."""
    p, m = mesh.canonical_mesh(name, None, R, 3)
    d = geometry.InteractionData.uniform(p, alpha, beta)
    maker = (forms.assemble_delta if operator == "delta"
             else forms.assemble_delta_prime)
    df = maker(m, d, "dirichlet")
    lam1 = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                    subset_by_index=[0, 0])[0]
    bottom = closedform.spectral_bottom(name, operator, "dirichlet", alpha,
                                        beta)
    assert bottom <= lam1
    if operator == "delta":
        assert bottom == (closedform.halfplane_bottoms(alpha, beta)[0]
                          if name == "half_plane"
                          else closedform.star_delta_bottom(alpha))


@pytest.mark.parametrize("name,operator,bc,alpha,beta", [
    ("half_plane", "delta", "neumann", 1.0, 1.0),
    ("star3", "delta-prime", "neumann", 1.0, 1.0),
    ("grid", "delta", "dirichlet", 1.0, 1.0),
    ("island", "delta-prime", "dirichlet", 1.0, 1.0),
    ("line_with_bump", "delta", "dirichlet", 1.0, 1.0),
    ("wedge", "delta-prime", "dirichlet", 1.0, 1.0),
    ("half_plane", "delta", "dirichlet", {1: 1.0}, 1.0),
    ("star3", "delta-prime", "dirichlet", 1.0, {1: 1.0, 2: 1.0, 3: 1.0}),
    ("half_plane", "delta", "dirichlet", 0.0, 1.0),
    ("star3", "delta", "dirichlet", -1.0, 1.0),
])
def test_spectral_bottom_none_without_a_theorem(name, operator, bc, alpha,
                                                beta):
    assert closedform.spectral_bottom(name, operator, bc, alpha, beta) is None


def test_spectral_bottom_values():
    """delta' needs no alpha; its star3 constant is the minimax value."""
    sb = closedform.spectral_bottom
    assert sb("half_plane", "delta", "dirichlet", 2.0, 1.0) == -1.0
    assert sb("half_plane", "delta-prime", "dirichlet", 0.0, 2.0) == -1.0
    assert sb("star3", "delta-prime", "dirichlet", -1.0, 1.0) == \
        -closedform.STAR_MINIMAX
    assert closedform.STAR_MINIMAX.hex() == \
        closedform.minimax_star().value.hex()
    with pytest.raises(ValueError, match="operator"):
        sb("half_plane", "delta_prime", "dirichlet", 1.0, 1.0)


def test_m_functions_and_crossing():
    m1, m2 = closedform.m_functions(0.0, 0.5)
    assert m1 == pytest.approx(16.0 / 3.0)
    assert m2 == pytest.approx(4.0)
    for t in (0.3, 0.5, 0.7):
        w = closedform.omega_star(t)
        assert 0.0 < w < 1.0
        m1, m2 = closedform.m_functions(w, t)
        assert abs(m1 - m2) <= 1e-12 * max(m1, m2)


def test_minimax_report():
    rep = closedform.minimax_star()
    assert abs(rep.t_star - 0.5) <= 1e-6
    assert abs(rep.m1_at_opt - rep.m2_at_opt) <= 1e-12 * rep.m1_at_opt
    assert rep.branch_t_ge_1 == 16.0 / 3.0
    assert abs(rep.value - rep.grid_oracle_value) <= 1e-8
    assert rep.c_star_derived == pytest.approx(math.sqrt(3.0 * rep.value))
    # closed form of the optimum: (26 / (6 sqrt(3) + 1))^2
    assert rep.value == pytest.approx(
        (26.0 / (6.0 * math.sqrt(3.0) + 1.0)) ** 2, rel=1e-12)
    # the printed constant differs; both are carried in the report
    assert rep.discrepancy
    assert rep.paper_printed_value == pytest.approx(
        ((12.0 * math.sqrt(3.0) - 2.0) / 9.0) ** 2)
    assert rep.paper_printed_c_star == pytest.approx(
        4.0 - 2.0 * math.sqrt(3.0) / 9.0)


def test_minimax_optimum_is_exact():
    # t* = 1/2 from the crossing curve, not a search that stops near it
    rep = closedform.minimax_star()
    assert rep.t_star == 0.5
    assert rep.m1_at_opt == rep.m2_at_opt == rep.value
    assert rep.omega_star_at_t == closedform.omega_star(0.5)


def test_interval_known_value():
    r = closedform.interval_delta_prime(2.0, 40.0)
    assert abs(r.epsilon + 1.0) <= 1e-10
    assert abs(r.residual) <= 1e-9


@pytest.mark.parametrize("beta,l", [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0),
                                    (3.0, 0.5), (7.0, 10.0)])
def test_interval_strict_threshold_and_oracle(beta, l):
    r = closedform.interval_delta_prime(beta, l)
    thr = -4.0 / beta ** 2
    assert r.epsilon < thr + 8.0 * np.finfo(float).eps * abs(thr)
    fem = closedform.interval_fem_oracle(beta, l)
    assert abs(fem - r.epsilon) <= 1e-6 * abs(r.epsilon)


@pytest.mark.parametrize("beta,l", [(1.0, 1e-30), (1e18, 1.0), (1e300, 1.0),
                                    (1e300, 1e-300), (1e16, 1.0)])
def test_interval_small_kl_asymptote(beta, l):
    """Where k*l is small, beta*k = 2 coth(k*l) = 2/(k*l) + 2k*l/3 + O((kl)^3)
    gives k^2 = 2/(l (beta - 2l/3)) to far below rounding.  A bracket search
    capped at 1e12 and an absolute xtol of 1e-15 missed these roots."""
    r = closedform.interval_delta_prime(beta, l)
    assert r.epsilon == pytest.approx(-2.0 / (l * (beta - 2.0 * l / 3.0)),
                                      rel=1e-14)
    assert abs(r.residual) <= 8.0 * np.finfo(float).eps * beta * r.k_rate


def test_interval_huge_l_root_at_two_over_beta():
    # coth(k*l) rounds to 1, so beta*k = 2 to the last bit
    r = closedform.interval_delta_prime(49.0, 1e20)
    assert r.k_rate == pytest.approx(2.0 / 49.0, rel=4e-16)
    assert abs(r.residual) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("beta,l", [(1e300, 1e-320), (1e304, 1e-320)])
def test_interval_subnormal_l(beta, l):
    """k*l is subnormal, so tanh(k*l) keeps only a few bits and beta*k
    overflows; the root is k^2 = 2/(beta l) far below rounding, with l the
    stored subnormal."""
    r = closedform.interval_delta_prime(beta, l)
    assert r.epsilon == pytest.approx(-2.0 / (beta * l), rel=1e-12)
    assert np.isfinite(r.residual)


@pytest.mark.parametrize("beta,l", [(1e300, 1e-300), (1e300, 1e-320),
                                    (1e304, 1e-320)])
def test_interval_residual_is_relative(beta, l):
    """The residual is 1 - 2/(beta k tanh(kl)), so a root right to the last
    bit reads near rounding even where beta*k is huge or overflows; the
    absolute beta*k - 2/tanh(kl) read 2.97e+284 at (1e300, 1e-300)."""
    r = closedform.interval_delta_prime(beta, l)
    assert abs(r.residual) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("beta,l", [(1e-300, 1.0), (1e-310, 1.0),
                                    (1.0, 1e-310), (1e300, 1e10),
                                    (1e300, 1e100)])
def test_interval_epsilon_beyond_normal_doubles_is_named(beta, l):
    """k >= max(2/beta, sqrt(2/(beta l))) overflows k^2 in the first three;
    k^2 ~ 2/(beta l) is subnormal (2e-310) or below the doubles in the last
    two."""
    with pytest.raises(ValueError, match="not a normal double"):
        closedform.interval_delta_prime(beta, l)


def test_interval_fem_oracle_is_deterministic():
    # an eigsh call without v0 draws ARPACK's process-wide random start,
    # which moves from call to call in the last digits
    vals = [closedform.interval_fem_oracle(0.7, 2.0) for _ in range(3)]
    assert vals[0] == vals[1] == vals[2]


def test_interval_validation():
    with pytest.raises(ValueError):
        closedform.interval_delta_prime(-1.0, 1.0)
    with pytest.raises(ValueError):
        closedform.interval_fem_oracle(1.0, 1.0, n_elems=2)


def test_abc_inequality_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        th = rng.standard_normal((3, 4))
        et = rng.standard_normal((3, 4))
        w = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.05, 5.0)
        S, bound, holds = closedform.abc_inequality_check(th, et, w, t)
        assert holds, (S, bound, w, t)


def _abc_per_pair(th, et, w, t):
    """The sum inequality for one draw, pair by pair and vector by vector."""
    S = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = th[i] - th[j] + et[i] + et[j]
        S += float(d @ d)
    bound = ((4.0 - w * (1.0 - t)) * sum(float(v @ v) for v in th)
             + (4.0 + 3.0 * w / t) * sum(float(v @ v) for v in et))
    return S, bound, S <= bound + 1e-12 * max(S, bound, 1.0)


def test_abc_inequality_batch_matches_the_per_sample_check():
    """Stacked draws give each sample's S, bound and verdict as the
    pair-by-pair formula and the one-draw call do (the draws include
    omega = 0 and 1 and t near 0; only the order of the sums differs), and
    one sample out of the domain fails the whole batch, naming the
    argument."""
    rng = np.random.default_rng(3)
    n = 200
    th = rng.standard_normal((n, 3, 4))
    et = rng.standard_normal((n, 3, 4))
    w = np.concatenate([rng.uniform(0.0, 1.0, n - 2), [1.0, 0.0]])
    t = np.concatenate([rng.uniform(1e-3, 8.0, n - 2), [1e-3, 8.0]])
    S, bound, holds = closedform.abc_inequality_check(th, et, w, t)
    assert holds.shape == (n,)
    for i in range(n):
        one = closedform.abc_inequality_check(th[i], et[i], w[i], t[i])
        ref = _abc_per_pair(th[i], et[i], w[i], t[i])
        assert holds[i] == one[2] == ref[2]
        assert np.allclose([S[i], bound[i]], ref[:2], rtol=1e-14, atol=0.0)
        assert np.allclose(one[:2], ref[:2], rtol=1e-14, atol=0.0)
    for w_bad, t_bad, match in ((1.5, 1.0, "omega"), (0.5, np.nan, "t must"),
                                (0.5, -1.0, "t must"), (np.nan, 1.0, "omega")):
        with pytest.raises(ValueError, match=match):
            closedform.abc_inequality_check(
                th, et, np.append(w[1:], w_bad), np.append(t[1:], t_bad))


def test_abc_inequality_exact_certificate():
    """The sum inequality is diag(a, a, a, b, b, b) - Q >= 0 per
    coordinate, with a = 4 - omega(1 - t), b = 4 + 3 omega/t and Q the
    form of the cyclic sum over (theta, eta).  The cyclic shift splits it
    into the constant mode, b >= 4, and two modes [[a - 3, -z], [-z', b - 1]]
    with |z|^2 = 3, which hold when a >= 3 and (a - 3)(b - 1) >= 3; and
    (a - 3)(b - 1) - 3 = 3 omega [t + (1 - omega)(1/t - 1)] >= 0 on
    omega in [0, 1], t > 0.  At omega = 0 the least eigenvalue is 0: the
    bound is sharp."""
    w, t = np.meshgrid(np.linspace(0.0, 1.0, 101), np.geomspace(1e-3, 1e3, 200),
                       indexing="ij")
    a, b = 4.0 - w * (1.0 - t), 4.0 + 3.0 * w / t
    lhs = (a - 3.0) * (b - 1.0) - 3.0
    rhs = 3.0 * w * (t + (1.0 - w) * (1.0 / t - 1.0))
    # a - 3 cancels up to an ulp of a, so the error scales with a b
    assert np.all(np.abs(lhs - rhs) <= 1e-14 * a * b)
    assert np.all(b >= 4.0) and np.all(a >= 3.0) and np.all(rhs >= 0.0)
    # rows d_i = theta_i - theta_{i+1} + eta_i + eta_{i+1}, i mod 3
    shift = np.roll(np.eye(3), 1, axis=1)
    D = np.hstack([np.eye(3) - shift, np.eye(3) + shift])
    Q = D.T @ D
    assert np.allclose(np.linalg.eigvalsh(Q), [0, 0, 0, 4, 4, 4], atol=1e-14)
    x = np.random.default_rng(1).standard_normal(6)
    S, _, _ = closedform.abc_inequality_check(x[:3, None], x[3:, None], 0.5, 1.0)
    assert np.isclose(S, x @ Q @ x, rtol=1e-14, atol=0.0)
    diag = np.concatenate([np.repeat(a[..., None], 3, -1),
                           np.repeat(b[..., None], 3, -1)], axis=-1)
    low = np.linalg.eigvalsh(diag[..., None] * np.eye(6) - Q)[..., 0]
    assert np.all(low >= -1e-15 * np.maximum(a, b))
    assert np.all(np.abs(low[0]) <= 1e-15 * 4.0)     # omega = 0: a = b = 4


def test_abc_inequality_validation():
    z = [np.zeros(2)] * 3
    with pytest.raises(ValueError):
        closedform.abc_inequality_check(z, z, 1.5, 1.0)
    with pytest.raises(ValueError):
        closedform.abc_inequality_check(z[:2], z, 0.5, 1.0)


_NAN, _INF = float("nan"), float("inf")
_Z3 = [np.zeros(2)] * 3


@pytest.mark.parametrize("func,args,match", [
    (closedform.halfplane_bottoms, (_NAN, 1.0), "alpha"),
    (closedform.halfplane_bottoms, (1.0, _INF), "beta"),
    (closedform.star_delta_bottom, (_INF,), "alpha"),
    (closedform.star_delta_bottom, (_NAN,), "alpha"),
    (closedform.wedge_trace_bound, (_NAN, 1.0), "gamma"),
    (closedform.wedge_trace_bound, (_INF, 1.0), "gamma"),
    (closedform.wedge_trace_bound, (1.0, _NAN), "phi"),
    (closedform.m_functions, (0.5, _NAN), "t must"),
    (closedform.m_functions, (_NAN, 0.5), "omega"),
    (closedform.abc_inequality_check, (_Z3, _Z3, 0.5, _INF), "t must"),
    (closedform.interval_delta_prime, (_NAN, 1.0), "beta"),
    (closedform.interval_delta_prime, (1.0, _INF), "^l must"),
    (closedform.interval_fem_oracle, (-_INF, 1.0), "beta"),
    (closedform.omega_star, (_NAN,), "^t must"),
    (closedform.interval_fem_oracle, (1.0, 1.0, 3), "n_elems"),
])
def test_non_finite_arguments_rejected(func, args, match):
    """NaN, +-inf and too few elements fail the domain checks with an error
    naming the argument, instead of a non-finite result or a brentq failure."""
    with pytest.raises(ValueError, match=match):
        func(*args)
