import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapart import _kernels, eigen, experiments, forms, geometry, mesh


def _setup(name, levels, alpha=1.0, beta=2.0, box_radius=4.0, **params):
    params["box_radius"] = box_radius
    p = geometry.build_canonical_partition(name, params)
    m = mesh.triangulate(p, levels)
    d = geometry.InteractionData.uniform(p, alpha, beta)
    return p, m, d


@pytest.mark.parametrize("name", ["half_plane", "star3", "line_with_bump"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_exact_symmetry_and_spd_mass(name, bc):
    _, m, d = _setup(name, 2)
    for df in (forms.assemble_delta(m, d, bc),
               forms.assemble_delta_prime(m, d, bc)):
        assert (df.A - df.A.T).nnz == 0            # max|A - A^T| = 0
        Md = df.M.toarray()
        np.linalg.cholesky(Md)                      # SPD or raises
        assert (df.M - df.M.T).nnz == 0


def test_dof_counts():
    p, m, d = _setup("star3", 2)
    dn = forms.assemble_delta(m, d, "neumann")
    dd = forms.assemble_delta(m, d, "dirichlet")
    assert dn.A.shape[0] == m.n_nodes
    assert dd.A.shape[0] == m.n_nodes - m.outer_boundary_nodes.size
    bn = forms.assemble_delta_prime(m, d, "neumann")
    # broken space duplicates interface nodes once per adjacent subdomain
    iface_nodes = np.unique(m.iface_edge_nodes)
    assert bn.A.shape[0] > m.n_nodes
    assert bn.A.shape[0] == bn.dof_node.size


def test_delta_form_value_quadratic():
    """Form value against a hand-assembled dense quadratic on a tiny mesh."""
    _, m, d = _setup("half_plane", 1, alpha=0.7, box_radius=1.0)
    df = forms.assemble_delta(m, d, "neumann")
    rng = np.random.default_rng(0)
    f = rng.standard_normal(df.A.shape[0])
    # gradient energy piece by direct P1 evaluation
    v = m.nodes[m.triangles]
    grad_sq = 0.0
    for t in range(m.n_triangles):
        (x1, y1), (x2, y2), (x3, y3) = v[t]
        area = 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
        b = np.array([[y2 - y3, y3 - y1, y1 - y2],
                      [x3 - x2, x1 - x3, x2 - x1]]) / (2 * area)
        g = b @ f[m.triangles[t]]
        grad_sq += area * float(g @ g)
    # trace piece via exact edge mass
    trace = 0.0
    for q in range(m.iface_edge_nodes.shape[0]):
        a, b_ = f[m.iface_edge_nodes[q]]
        trace += m.iface_edge_length[q] / 6.0 * (
            2 * a * a + 2 * a * b_ + 2 * b_ * b_)
    expect = grad_sq - 0.7 * trace
    assert forms.form_value(df, f) == pytest.approx(expect, rel=1e-12)


def test_indicator_identity_exact():
    _, m, d = _setup("star3", 3, beta=1.7)
    bf = forms.assemble_delta_prime(m, d, "neumann")
    p = geometry.build_canonical_partition("star3", {"box_radius": 4.0})
    for k in (1, 2, 3):
        f = forms.indicator_vector(bf, k)
        exact = forms.indicator_form_value(bf, k)
        discrete = forms.form_value(bf, f)
        assert abs(discrete - exact) <= 1e-12 * abs(exact)
        total = -sum(itf.length / 1.7 for itf in p.interfaces
                     if k in (itf.k, itf.l))
        assert exact == pytest.approx(total, rel=1e-12)


def test_indicator_requires_neumann():
    _, m, d = _setup("star3", 1)
    bf = forms.assemble_delta_prime(m, d, "dirichlet")
    with pytest.raises(ValueError, match="neumann"):
        forms.indicator_vector(bf, 1)


@pytest.mark.parametrize("name,beta", [("half_plane", 4.0), ("star3", 3.0),
                                       ("island", 2.5)])
def test_unitary_identity_exact(name, beta):
    """Phase multiplication carries the jump form onto the induced delta
    form, identically on every continuous vector."""
    p, m, d0 = _setup(name, 2)
    d = geometry.InteractionData.uniform(p, 0.0, beta)
    c = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    ph = geometry.phase_assignment(p, c, d)
    bf = forms.assemble_delta_prime(m, d, "dirichlet")
    cf = forms.assemble_delta(
        m, geometry.InteractionData(ph.alpha_z, d.beta), "dirichlet")
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(cf.A.shape[0])
        u = forms.apply_unitary(ph, bf, forms.embed_continuous(bf, f))
        a_b = float(np.real(np.vdot(u, bf.A @ u)))
        a_c = forms.form_value(cf, f)
        scale = max(1.0, abs(a_c))
        assert abs(a_b - a_c) <= 1e-11 * scale


def test_form_ordering_for_admissible_beta():
    """Discrete restatement: for beta <= edge_constant(chi)/alpha the jump
    form under the unitary embedding sits below the delta form."""
    p, m, d0 = _setup("star3", 2)
    alpha, beta = 1.0, 3.0                      # chi = 3, limit = 3/1
    d = geometry.InteractionData.uniform(p, alpha, beta)
    c = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    ph = geometry.phase_assignment(p, c, d)
    bf = forms.assemble_delta_prime(m, d, "dirichlet")
    cf = forms.assemble_delta(m, d, "dirichlet")
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = rng.standard_normal(cf.A.shape[0])
        u = forms.apply_unitary(ph, bf, forms.embed_continuous(bf, f))
        a_b = float(np.real(np.vdot(u, bf.A @ u)))
        a_c = forms.form_value(cf, f)
        assert a_b <= a_c + 1e-11 * max(1.0, abs(a_c))


def test_coercivity_bound_is_certified():
    for name, maker in (("delta", forms.assemble_delta),
                        ("delta_prime", forms.assemble_delta_prime)):
        _, m, d = _setup("line_with_bump", 2, alpha=2.0, beta=0.8)
        df = maker(m, d, "neumann")
        vals = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True)
        assert df.coercivity_bound <= vals[0] + 1e-12


def test_semiboundedness_wedge_constant():
    """lambda_min >= -alpha^2 / (4 sin^2(phi_min/2)) for delta forms on
    geometries whose interface corners have known minimal opening.  Dirichlet
    truncation keeps the discrete values on the certified side; a Neumann box
    can genuinely undershoot where interfaces meet the outer boundary."""
    cases = [("half_plane", {}, np.pi), ("star3", {}, 2 * np.pi / 3),
             ("wedge", {"phi": 2 * np.pi / 3}, 2 * np.pi / 3)]
    alpha = 1.3
    for name, params, phi_min in cases:
        _, m, d = _setup(name, 3, alpha=alpha, box_radius=6.0, **params)
        df = forms.assemble_delta(m, d, "dirichlet")
        lam = eigen.lowest_eigenpairs(df.A, df.M, 1,
                                      lower_bound=df.coercivity_bound)
        bound = -alpha ** 2 / (4.0 * np.sin(phi_min / 2.0) ** 2)
        assert float(lam.eigenvalues[0]) >= bound - 1e-9


def test_refinement_monotone_dirichlet():
    lams = []
    for lev in (1, 2, 3):
        _, m, d = _setup("star3", lev)
        df = forms.assemble_delta(m, d, "dirichlet")
        vals = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True)
        lams.append(vals[:3])
    for fine, coarse in zip(lams[1:], lams[:-1]):
        assert np.all(fine <= coarse + 1e-12)


def test_bump_profile_constants():
    s = np.linspace(0.0, 3.0, 4001)
    b = forms.bump(s)
    assert np.all(b[s <= 1.0] == 1.0)
    assert np.all(b[s >= 2.0] == 0.0)
    l2 = 2.0 * np.trapezoid(b * b, s)        # even extension to the line
    assert l2 == pytest.approx(forms.BUMP_L2SQ, rel=1e-6)
    bp = forms.bump_prime(s)
    g2 = 2.0 * np.trapezoid(bp * bp, s)
    assert g2 == pytest.approx(forms.BUMP_GRAD_L2SQ, rel=1e-6)


def test_sample_test_function_errors():
    """Each number is checked by its own name; the support must lie on the
    interface ray."""
    _, m, d = _setup("half_plane", 1, box_radius=2.0)
    dof_node, dof_sub, _ = forms.broken_dof_layout(m)
    wedge = {"n": 0.25, "beta": 2.0, "center": 0.75}
    assert forms.sample_test_function(m, dof_node, dof_sub,
                                      **wedge).shape == dof_node.shape
    with pytest.raises(ValueError, match="support"):
        forms.sample_test_function(m, dof_node, dof_sub,
                                   **{**wedge, "center": 1.75})
    bad = [(key, v) for key, values in (
        ("n", (0.0, -1.0, np.inf, np.nan)), ("beta", (0.0, -2.0, np.nan)),
        ("center", (np.nan, "x")), ("p", (np.inf,)), ("angle", (np.nan,)))
        for v in values]
    for key, value in bad:
        with pytest.raises(ValueError, match=f"^{key} must be"):
            forms.sample_test_function(m, dof_node, dof_sub,
                                       **{**wedge, key: value})


def test_export_matrix_roundtrip():
    _, m, d = _setup("half_plane", 1, box_radius=1.0)
    df = forms.assemble_delta(m, d, "dirichlet")
    text = forms.export_matrix(df.A)
    rows = [ln.split() for ln in text.strip().split("\n")]
    assert len(rows) == df.A.nnz
    i, j, v = rows[0]
    rebuilt = {}
    for i, j, v in rows:
        rebuilt[(int(i) - 1, int(j) - 1)] = float(v)
    coo = df.A.tocoo()
    for r, c, val in zip(coo.row, coo.col, coo.data):
        assert rebuilt[(int(r), int(c))] == val   # repr round-trips exactly


def test_jump_coupling_against_edge_loop():
    """The vectorized jump coupling, on the assembled form and in the local
    Rayleigh quotient, against a per-edge loop over the trace jumps."""
    p, m, _ = _setup("star3", 2)
    beta = {itf.id: 0.5 + itf.id for itf in p.interfaces}
    d = geometry.InteractionData({i: 0.0 for i in beta}, beta)
    bf = forms.assemble_delta_prime(m, d, "neumann")
    stiff = forms.assemble_delta_prime(
        m, geometry.InteractionData(d.alpha, {i: np.inf for i in beta}), "neumann")
    _, _, table = forms.broken_dof_layout(m)
    f = np.random.default_rng(5).standard_normal(bf.n_dofs)
    expect = 0.0
    for q in range(m.iface_edge_nodes.shape[0]):
        a, b = m.iface_edge_nodes[q]
        k, l = m.iface_edge_kl[q]
        jump = np.array([f[table[k][a]] - f[table[l][a]],
                         f[table[k][b]] - f[table[l][b]]])
        E = np.array([[2.0, 1.0], [1.0, 2.0]]) * m.iface_edge_length[q] / 6.0
        expect -= jump @ E @ jump / beta[int(m.iface_edge_id[q])]
    got = forms.form_value(bf, f) - forms.form_value(stiff, f)
    assert got == pytest.approx(expect, rel=1e-12)
    local = experiments._broken_rayleigh_local(
        m, table, forms.jump_coupling(m, d.beta, table), f)
    assert local == pytest.approx(forms.rayleigh(bf, f), rel=1e-12)


def _square_mesh(tri_subdomain):
    """The unit square cut along its diagonal (0, 2) into the triangles
    (0, 1, 2) and (0, 2, 3), in the subdomains tri_subdomain; the diagonal
    is interface 1 between them."""
    return mesh.Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        tri_subdomain=np.array(tri_subdomain), iface_edge_nodes=np.array([[0, 2]]),
        iface_edge_id=np.array([1]), iface_edge_kl=np.array([tri_subdomain]),
        iface_edge_length=np.array([math.sqrt(2.0)]),
        outer_boundary_nodes=np.arange(4), refinement_level=0, box_radius=1.0)


def test_layout_table_with_id_zero_and_a_gap():
    """Subdomain ids {0, 2}: id 0 owns dofs and row 1 is all -1; the dofs
    are blocked by id with sorted nodes, and the jump coupling and the
    delta' form use them.  A negative id is an error, not the last row."""
    m = _square_mesh([2, 0])
    dof_node, dof_sub, table = forms.broken_dof_layout(m)
    assert table.tolist() == [[0, -1, 1, 2], [-1, -1, -1, -1], [3, 4, 5, -1]]
    assert dof_node.tolist() == [0, 2, 3, 0, 1, 2]
    assert dof_sub.tolist() == [0, 0, 0, 2, 2, 2]
    beta = 0.5
    jump = -math.sqrt(2.0) / (6.0 * beta) * np.kron([[1.0, -1.0], [-1.0, 1.0]],
                                                     [[2.0, 1.0], [1.0, 2.0]])
    jd, jl = forms.jump_coupling(m, {1: beta}, table)
    assert jd.tolist() == [[3, 5, 0, 1]]             # (a_2, b_2, a_0, b_0)
    assert np.allclose(jl[0], jump, rtol=1e-15, atol=0.0)
    d = geometry.InteractionData({1: 0.0}, {1: beta})
    bf = forms.assemble_delta_prime(m, d, "neumann")
    stiff, mass, _ = _kernels.p1_elements(m.nodes, m.triangles)
    A, M = np.zeros((6, 6)), np.zeros((6, 6))
    for t, dofs in enumerate(([3, 4, 5], [0, 1, 2])):
        A[np.ix_(dofs, dofs)] += stiff[t].reshape(3, 3)
        M[np.ix_(dofs, dofs)] += mass[t].reshape(3, 3)
    A[np.ix_([3, 5, 0, 1], [3, 5, 0, 1])] += jump
    assert np.array_equal(bf.dof_node, dof_node)
    assert np.array_equal(bf.dof_subdomain, dof_sub)
    assert np.allclose(bf.A.toarray(), A, rtol=0.0, atol=1e-15)
    assert np.allclose(bf.M.toarray(), M, rtol=0.0, atol=1e-15)
    negative = _square_mesh([-1, 2])
    with pytest.raises(ValueError):
        forms.broken_dof_layout(negative)
    with pytest.raises(ValueError):
        forms.assemble_delta_prime(negative, d, "neumann")


def test_export_matrix_matches_per_entry_format():
    """The text is byte for byte the per-entry formatting of the sorted
    entries, on the delta' matrix of a level-1 mesh."""
    _, m, d = _setup("star3", 1)
    A = forms.assemble_delta_prime(m, d, "neumann").A
    coo = A.tocoo()
    lines = [f"{coo.row[q] + 1} {coo.col[q] + 1} {float(coo.data[q])!r}"
             for q in np.lexsort((coo.col, coo.row))]
    assert forms.export_matrix(A) == "\n".join(lines) + "\n"


def test_wedge_local_quotient_of_complex_vector():
    """The local Rayleigh quotient of a wedge test function with momentum
    p != 0 (a complex vector) equals the quotient on the fully assembled
    broken Neumann form."""
    phi, beta, R, n = 3.0 * np.pi / 4.0, 2.0, 40.0, 4.0
    p, m = mesh.canonical_mesh("wedge", {"phi": phi}, R, 5)
    d = geometry.InteractionData.uniform(p, 0.0, beta)
    bf = forms.assemble_delta_prime(m, d, "neumann")
    dof_node, dof_sub, table = forms.broken_dof_layout(m)
    psi = forms.sample_test_function(
        m, dof_node, dof_sub, n=n, p=0.7, beta=beta, center=2.0 * n + 4.0,
        angle=np.pi / 2.0 - phi / 2.0)
    assert np.max(np.abs(psi.imag)) > 0.1
    local = experiments._broken_rayleigh_local(
        m, table, forms.jump_coupling(m, d.beta, table), psi)
    assert local == pytest.approx(forms.rayleigh(bf, psi), rel=1e-12)


def _wedge_psi_full_box(m, dof_node, dof_subdomain, n, p, beta, center,
                        angle):
    """The wedge test function evaluated on every broken dof of the box: the reference
    for the support-only sampler, with the same expressions in the same
    operand order."""
    R = m.box_radius
    ct, st = np.cos(angle), np.sin(angle)
    nx = m.nodes[dof_node]
    xr = nx[:, 0] * ct + nx[:, 1] * st
    yr = -nx[:, 0] * st + nx[:, 1] * ct
    tol = 1e-12 * max(R, 1.0)
    sign = np.where(yr > tol, 1.0, np.where(yr < -tol, -1.0,
                    np.where(dof_subdomain == 1, 1.0, -1.0)))
    return (1.0 / np.sqrt(n)) * forms.bump(np.abs(xr - center) / n) \
        * forms.bump(np.abs(yr) / n) * sign * np.exp(-2.0 * np.abs(yr) / beta) \
        * np.exp(1j * p * xr)


@pytest.mark.parametrize("momentum", [0.0, 0.7])
def test_wedge_psi_matches_the_full_box_formula(momentum):
    """Sampling only the support changes no nonzero entry by a bit and no
    zero's position; outside the support every entry is +0."""
    phi, R = 3.0 * np.pi / 4.0, 40.0
    _, m = mesh.canonical_mesh("wedge", {"phi": phi}, R, 5)
    dof_node, dof_sub, _ = forms.broken_dof_layout(m)
    for n in (2.0, 4.0, 8.0):
        params = {"n": n, "p": momentum, "beta": 2.0, "center": 2.0 * n + 4.0,
                  "angle": np.pi / 2.0 - phi / 2.0}
        got = forms.sample_test_function(m, dof_node, dof_sub, **params)
        want = _wedge_psi_full_box(m, dof_node, dof_sub, **params)
        zero = want == 0
        assert 0 < zero.sum() < zero.size
        assert np.array_equal(got == 0, zero)
        bits = got.view(np.float64).view(np.uint64).reshape(-1, 2)
        want_bits = want.view(np.float64).view(np.uint64).reshape(-1, 2)
        assert np.array_equal(bits[~zero], want_bits[~zero])
        assert not bits[zero].any()


def test_wedge_quotient_memory_is_bounded():
    """The traced peak of the quotient phase on a prebuilt wedge mesh at
    R = 140, L7 (the layout, the jump coupling, three samples and their
    quotients) stays within 4.5x the bytes of the mesh triangles: about 4x
    when broken dofs are looked up only near each support, about 4.8x when
    the broken dofs of every triangle are built."""
    phi, beta, R = 3.0 * np.pi / 4.0, 2.0, 140.0
    p, m = mesh.canonical_mesh("wedge", {"phi": phi}, R, 7)
    d = geometry.InteractionData.uniform(p, 0.0, beta)
    tracemalloc.start()
    try:
        dof_node, dof_sub, table = forms.broken_dof_layout(m)
        jump = forms.jump_coupling(m, d.beta, table)
        for n in (8.0, 16.0, 32.0):
            psi = forms.sample_test_function(
                m, dof_node, dof_sub, n=n, beta=beta, center=2.0 * n + 4.0,
                angle=np.pi / 2.0 - phi / 2.0)
            experiments._broken_rayleigh_local(m, table, jump, psi)
            del psi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / m.triangles.nbytes
    assert ratio <= 4.5, f"quotient phase peak {ratio:.2f}x the triangle bytes"


def test_subdomain_robin_zero_gamma_is_stiffness():
    """gamma = 0 leaves the Neumann stiffness of the subdomain, whose
    constants give 0, with the trivial bound 0."""
    _, m, _ = _setup("wedge", 2)
    df = forms.assemble_subdomain_robin(m, 1, 0.0, "neumann")
    assert df.coercivity_bound == 0.0
    assert np.max(np.abs(df.A @ np.ones(df.n_dofs))) <= 1e-12
    robin = forms.assemble_subdomain_robin(m, 1, 0.5, "neumann")
    assert robin.coercivity_bound < 0.0
    assert (robin.A - df.A).nnz > 0


# -- assembly by one stable sort of the entry keys -------------------------

def _reference_forms(m, tri_dofs, edge_dofs, edge_local, dof_node, bc):
    """A and M as dicts (i, j) -> value, summed entry by entry in a loop
    over the triangles and edges, reduced to the kept dofs."""
    stiff, mass, _ = _kernels.p1_elements(m.nodes, m.triangles)
    A, M = {}, {}
    for t, dofs in enumerate(tri_dofs):
        for i in range(3):
            for j in range(3):
                key = (int(dofs[i]), int(dofs[j]))
                A.setdefault(key, []).append(stiff[t, 3 * i + j])
                M.setdefault(key, []).append(mass[t, 3 * i + j])
    for e, dofs in enumerate(edge_dofs):
        for i in range(dofs.size):
            for j in range(dofs.size):
                A.setdefault((int(dofs[i]), int(dofs[j])), []).append(edge_local[e, i, j])
    outer = set(m.outer_boundary_nodes.tolist()) if bc == "dirichlet" else set()
    keep = [q for q in range(dof_node.size) if int(dof_node[q]) not in outer]
    red = {q: r for r, q in enumerate(keep)}
    return [{(red[i], red[j]): math.fsum(v) for (i, j), v in X.items()
             if i in red and j in red} for X in (A, M)], len(keep)


def _check_against_reference(got, want, n):
    assert got.shape == (n, n)
    assert got.indices.dtype == np.int32 and got.has_sorted_indices
    coo = got.tocoo()
    entries = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
    assert entries.keys() == want.keys()
    scale = max(abs(v) for v in want.values())
    assert all(abs(entries[k] - v) <= 1e-14 * scale for k, v in want.items())


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n", [None, 50_000])
def test_assembly_against_dict_reference(bc, n):
    """_assemble against a per-entry dict sum, with the mesh's own node
    numbering (n None) and with the nodes spread over 50,000 dofs in
    reverse order, so that the keys row*(nk+1) + col pass 2**31; the
    unused dofs sit on an interior node and give empty rows."""
    _, m, _ = _setup("star3", 1)
    n_nodes = m.n_nodes
    if n is None:
        n, node_dof = n_nodes, np.arange(n_nodes)
    else:
        node_dof = n - 1 - 37 * np.arange(n_nodes)
    interior = np.setdiff1d(np.arange(n_nodes), m.outer_boundary_nodes)[0]
    dof_node = np.full(n, interior)
    dof_node[node_dof] = np.arange(n_nodes)
    weight = 0.5 + np.arange(m.iface_edge_nodes.shape[0]) % 3
    jd, jl = forms._edge_coupling(node_dof[m.iface_edge_nodes], weight,
                                  m.iface_edge_length, forms._EDGE_MASS)
    tri_dofs = node_dof[m.triangles]
    dof_sub = np.arange(n) % 3
    df = forms._assemble(m, bc, "continuous", None, m.triangles, tri_dofs,
                         jd, jl, dof_node, dof_sub)
    (want_a, want_m), nk = _reference_forms(m, tri_dofs, jd, jl, dof_node, bc)
    keep = np.flatnonzero(df.full_to_red >= 0)
    assert keep.size == nk and np.array_equal(df.full_to_red[keep], np.arange(nk))
    assert np.array_equal(df.dof_node, dof_node[keep])
    assert np.array_equal(df.dof_subdomain, dof_sub[keep])
    assert (df.space, df.bc, df.interaction) == ("continuous", bc, None)
    assert df.mesh is m
    rows = np.repeat(np.arange(nk, dtype=np.int64), np.diff(df.A.indptr))
    assert (rows * (nk + 1) + df.A.indices).max() > 2 ** 31 or n == n_nodes
    _check_against_reference(df.A, want_a, nk)
    _check_against_reference(df.M, want_m, nk)


@pytest.mark.parametrize("assembler", [forms.assemble_delta, forms.assemble_delta_prime])
def test_assembly_memory_is_bounded(assembler):
    """The traced peak of one assembly stays within 8x the bytes of the
    finished A and M.  numpy reports its buffers to tracemalloc, so the
    ratio repeats: about 6x with one sort shared by A and M, about 12x
    when each matrix sorts its own copy of the entries."""
    _, m, d = _setup("half_plane", 6, box_radius=16.0)
    assembler(m, d)
    tracemalloc.start()
    try:
        df = assembler(m, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for X in (df.A, df.M) for a in (X.data, X.indices, X.indptr))
    assert peak <= 8 * size, f"assembly peak {peak / size:.1f}x the bytes of A and M"


# -- the element-patch coercivity bound -------------------------------------

# the right triangle (0,0), (1,0), (0,1): P1 stiffness and mass, and the
# edge mass of a unit-length side
_K_REF = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]) / 2.0
_M_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
_E_REF = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0


def _one_triangle_mesh(sides):
    """The reference triangle as subdomain 1, its sides `sides` (node
    pairs, both of unit length) interface edges towards subdomain 2."""
    q = len(sides)
    return mesh.Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]), tri_subdomain=np.array([1]),
        iface_edge_nodes=np.array(sides), iface_edge_id=np.ones(q, dtype=np.int64),
        iface_edge_kl=np.tile([1, 2], (q, 1)), iface_edge_length=np.ones(q), outer_boundary_nodes=np.array([1, 2]),
        refinement_level=0, box_radius=1.0)


@pytest.mark.parametrize("sides", [[(0, 1)], [(0, 1), (0, 2)]])
def test_patch_bound_one_triangle_by_hand(sides):
    """A Robin form on one triangle: each side's patch gets the triangle's
    stiffness and mass divided by the number of coupled sides, so one side
    gives the exact local lambda_min."""
    gamma = 3.0
    df = forms.assemble_subdomain_robin(_one_triangle_mesh(sides), 1, gamma,
                                        "neumann")
    share = 1.0 / len(sides)
    expect = 0.0
    for a, b in sides:
        C = np.zeros((3, 3))
        C[np.ix_([a, b], [a, b])] = -gamma * _E_REF
        lam = sla.eigh(share * _K_REF + C, share * _M_REF, eigvals_only=True)[0]
        expect = min(expect, lam)
    assert expect < 0.0
    assert df.coercivity_bound == pytest.approx(expect, rel=1e-12)
    lam1 = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True)[0]
    assert df.coercivity_bound <= lam1 + 1e-12
    if len(sides) == 1:
        assert df.coercivity_bound == pytest.approx(lam1, rel=1e-12)


def _patch_bound_by_edge_loop(m, tri_dofs, edge_dofs, edge_local):
    """The element-patch bound edge by edge: the patch of an edge holds the
    triangles with both dofs of one of its dof pairs."""
    stiff, mass, _ = _kernels.p1_elements(m.nodes, m.triangles)
    patches = [[t for pair in dofs.reshape(-1, 2)
                for t in np.flatnonzero(np.isin(tri_dofs, pair).sum(axis=1) == 2)]
               for dofs in edge_dofs]
    uses = np.bincount(np.concatenate(patches), minlength=m.n_triangles)
    bound = 0.0
    for dofs, local, tris in zip(edge_dofs, edge_local, patches):
        at = {d: i for i, d in enumerate(np.unique(tri_dofs[tris]))}
        A = np.zeros((len(at), len(at)))
        M = np.zeros((len(at), len(at)))
        for t in tris:
            ix = np.ix_([at[d] for d in tri_dofs[t]], [at[d] for d in tri_dofs[t]])
            A[ix] += stiff[t].reshape(3, 3) / uses[t]
            M[ix] += mass[t].reshape(3, 3) / uses[t]
        ix = [at[d] for d in dofs]
        A[np.ix_(ix, ix)] += local
        bound = min(bound, sla.eigh(A, M, eigvals_only=True)[0])
    return bound


@pytest.mark.parametrize("name", ["star3", "island", "grid"])
def test_patch_bound_against_edge_loop(name):
    p, m, _ = _setup(name, 1)
    alpha = {itf.id: 0.5 + itf.id for itf in p.interfaces}
    beta = {itf.id: 1.5 / (0.5 + itf.id) for itf in p.interfaces}
    d = geometry.InteractionData(alpha, beta)
    ids = m.iface_edge_id
    scale = m.iface_edge_length / 6.0
    E = np.array([[2.0, 1.0], [1.0, 2.0]])
    jump = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), E)
    cf = forms.assemble_delta(m, d, "dirichlet")
    local = [-alpha[int(i)] * s * E for i, s in zip(ids, scale)]
    expect = _patch_bound_by_edge_loop(m, m.triangles, m.iface_edge_nodes, local)
    assert cf.coercivity_bound == pytest.approx(expect, rel=1e-10)
    bf = forms.assemble_delta_prime(m, d, "dirichlet")
    _, _, lut = forms.broken_dof_layout(m)
    tri_dofs = np.array([lut[s][t] for s, t in zip(m.tri_subdomain, m.triangles)])
    edge_dofs = np.array([[lut[k][a], lut[k][b], lut[l][a], lut[l][b]]
                          for (a, b), (k, l) in zip(m.iface_edge_nodes, m.iface_edge_kl)])
    local = [-s / beta[int(i)] * jump for i, s in zip(ids, scale)]
    expect = _patch_bound_by_edge_loop(m, tri_dofs, edge_dofs, local)
    assert bf.coercivity_bound == pytest.approx(expect, rel=1e-10)


def _gershgorin_bound(df, stiffness):
    """The earlier coupling bound: with e the row sums of |A - stiffness|,
    A + diag(e) is psd, and with the lumped mass L = diag(M 1) <= 4M (P1),
    lambda_min >= -4 max(0, max_i e_i / L_ii)."""
    excess = np.asarray(abs(df.A - stiffness.A).sum(axis=1)).ravel()
    lump = np.asarray(df.M.sum(axis=1)).ravel()
    return -4.0 * max(0.0, float(np.max(excess / lump)))


@pytest.mark.parametrize("name,levels", [("half_plane", 3), ("star3", 3),
                                         ("island", 2)])
def test_patch_bound_between_gershgorin_and_lambda1(name, levels):
    p, m, d = _setup(name, levels, alpha=1.0, beta=0.5)
    ids = [itf.id for itf in p.interfaces]
    for maker, off in ((forms.assemble_delta, geometry.InteractionData(
                            {i: 0.0 for i in ids}, d.beta)),
                       (forms.assemble_delta_prime, geometry.InteractionData(
                            d.alpha, {i: np.inf for i in ids}))):
        df = maker(m, d, "neumann")
        lam1 = sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                        subset_by_index=[0, 0])[0]
        assert _gershgorin_bound(df, maker(m, off, "neumann")) \
            <= df.coercivity_bound <= lam1 + 1e-12 * abs(lam1)


# -- property tests of the interface-edge assembler -------------------------

_MULTI_INTERFACE = [("star3", {}), ("grid", {"variant": "chi4"}),
                    ("line_with_bump", {}), ("grid", {})]


def _check_assembled_forms(p, m, d):
    """Exact identities of both operators under per-interface alpha/beta."""
    ids = p.subdomain_ids()
    for bc in ("dirichlet", "neumann"):
        for df in (forms.assemble_delta(m, d, bc),
                   forms.assemble_delta_prime(m, d, bc)):
            assert (df.A != df.A.T).nnz == 0             # bitwise symmetric
            assert (df.M != df.M.T).nnz == 0
            if bc == "neumann":
                lam1 = sla.eigh(df.A.toarray(), df.M.toarray(),
                                eigvals_only=True, subset_by_index=[0, 0])[0]
                assert df.coercivity_bound <= lam1 + 1e-12 * max(1.0, abs(lam1))
    # constants lie in the stiffness kernel: 1'A1 = -sum_I alpha_I |I|; the
    # exact identities are summed with fsum, so only the entries' own
    # rounding is left
    cn = forms.assemble_delta(m, d, "neumann")
    expect = -math.fsum(d.alpha[itf.id] * itf.length for itf in p.interfaces)
    assert abs(math.fsum(cn.A.data) - expect) <= 1e-12 * max(1.0, abs(expect))
    bf = forms.assemble_delta_prime(m, d, "neumann")
    entries = bf.A.tocoo()
    for k in ids:
        exact = forms.indicator_form_value(bf, k)
        total = -math.fsum(itf.length / d.beta[itf.id] for itf in p.interfaces
                           if k in (itf.k, itf.l))
        assert abs(exact - total) <= 1e-12 * abs(total)
        # 1_k' A 1_k: the entries whose row and column dofs both lie in k
        in_k = bf.dof_subdomain == k
        value = math.fsum(entries.data[in_k[entries.row] & in_k[entries.col]])
        assert abs(value - total) <= 1e-12 * abs(total)
    c = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    ph = geometry.phase_assignment(p, c, d)
    bd = forms.assemble_delta_prime(m, d, "dirichlet")
    cd = forms.assemble_delta(
        m, geometry.InteractionData(ph.alpha_z, d.beta), "dirichlet")
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.standard_normal(cd.n_dofs)
        u = forms.apply_unitary(ph, bd, forms.embed_continuous(bd, f))
        a_b = float(np.real(np.vdot(u, bd.A @ u)))
        a_c = forms.form_value(cd, f)
        assert abs(a_b - a_c) <= 1e-11 * max(1.0, abs(a_c))


def _random_interaction(draw, p):
    weight = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)
    ids = [itf.id for itf in p.interfaces]
    return geometry.InteractionData({i: draw(weight) for i in ids},
                                    {i: draw(weight) for i in ids})


@st.composite
def _canonical_problems(draw):
    name, params = draw(st.sampled_from(_MULTI_INTERFACE))
    p = geometry.build_canonical_partition(name, dict(params, box_radius=4.0))
    m = mesh.triangulate(p, draw(st.integers(1, 3)))
    return p, m, _random_interaction(draw, p)


@st.composite
def _island_problems(draw):
    """Convex island: 3-8 points on a rotated, shifted ellipse, with angular
    gaps within a factor 3 of each other."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))
    ang = draw(st.floats(0.0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    a, b = draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0))
    rot = draw(st.floats(0.0, np.pi))
    cx, cy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    x, y = a * np.cos(ang), b * np.sin(ang)
    poly = np.stack([cx + np.cos(rot) * x - np.sin(rot) * y,
                     cy + np.sin(rot) * x + np.cos(rot) * y], axis=1)
    p = geometry.build_canonical_partition(
        "island", {"box_radius": 4.0, "polygon": poly.tolist()})
    m = mesh.triangulate(p, draw(st.integers(1, 3)))
    return p, m, _random_interaction(draw, p)


@settings(max_examples=10, deadline=None)
@given(_canonical_problems())
def test_assembler_identities_per_interface_weights(problem):
    _check_assembled_forms(*problem)


@settings(max_examples=8, deadline=None)
@given(_island_problems())
def test_assembler_identities_random_convex_island(problem):
    _check_assembled_forms(*problem)


# -- property test of the operator inequality ---------------------------------

@st.composite
def _admissible_problems(draw):
    """Uniform alpha in [0.1, 3] and beta = t * edge_constant(chi) / alpha
    with t in [0.01, 1]; a smaller t only makes the jump weight 1/beta
    larger."""
    name, params = draw(st.sampled_from(_MULTI_INTERFACE))
    p = geometry.build_canonical_partition(name, dict(params, box_radius=4.0))
    m = mesh.triangulate(p, draw(st.integers(1, 2)))
    alpha = draw(st.floats(0.1, 3.0))
    t = draw(st.floats(0.01, 1.0))
    chi = geometry.chromatic_colouring(geometry.adjacency_graph(p)).chi
    beta = t * geometry.edge_constant(chi) / alpha
    return m, geometry.InteractionData.uniform(p, alpha, beta)


@settings(max_examples=20, deadline=None)
@given(_admissible_problems())
def test_delta_prime_eigenvalues_below_delta(problem):
    """lambda_j(delta') <= lambda_j(delta), j <= 5, Dirichlet, whenever
    beta <= edge_constant(chi)/alpha: the paper's operator inequality."""
    m, d = problem
    lam = [sla.eigh(df.A.toarray(), df.M.toarray(), eigvals_only=True,
                    subset_by_index=[0, 4])
           for df in (forms.assemble_delta(m, d, "dirichlet"),
                      forms.assemble_delta_prime(m, d, "dirichlet"))]
    for lc, lb in zip(*lam):
        assert lb <= lc + 1e-10 * max(1.0, abs(lc))


# -- coarse forms and the nested-mesh prolongation ------------------------------

def _coarse_pair(name, params, operator, bc):
    _, m, d = _setup(name, 3, alpha=0.8, beta=1.5, **params)
    maker = forms.assemble_delta if operator == "delta" else forms.assemble_delta_prime
    df = maker(m, d, bc)
    return df, forms.coarse_form(df)


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
@pytest.mark.parametrize("name,params", [("star3", {}),
                                         ("grid", {"variant": "chi4"})])
def test_prolongation_reproduces_linear_functions(name, params, operator):
    """Neumann: P maps a function linear on each subdomain (a different one
    per subdomain on broken dofs) at the coarse dofs to the same function
    at the fine dofs.  Dirichlet: P is the Neumann P on the kept dofs."""
    fine, (coarse, P) = _coarse_pair(name, params, operator, "neumann")
    assert coarse.mesh.refinement_level == 1 and P.shape == (fine.n_dofs, coarse.n_dofs)
    rng = np.random.default_rng(1)
    coef = rng.standard_normal((int(fine.mesh.subdomain_ids().max()) + 1, 3))

    def linear(df):
        c = coef[df.dof_subdomain]
        xy = df.mesh.nodes[df.dof_node]
        return c[:, 0] + c[:, 1] * xy[:, 0] + c[:, 2] * xy[:, 1]

    want = linear(fine)
    assert np.allclose(P @ linear(coarse), want, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(want)))
    if operator == "delta-prime":
        assert np.unique(fine.dof_subdomain).size > 1
    fd, (cd, Pd) = _coarse_pair(name, params, operator, "dirichlet")
    rows = fine.full_to_red[fd.full_to_red >= 0]
    cols = coarse.full_to_red[cd.full_to_red >= 0]
    assert (Pd != P[rows][:, cols]).nnz == 0


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_coarse_form_is_the_galerkin_restriction(operator, bc):
    # nested spaces: the coarse pencil is P'(A, M)P up to rounding
    fine, (coarse, P) = _coarse_pair("grid", {"variant": "chi4"}, operator, bc)
    for F, C in ((fine.A, coarse.A), (fine.M, coarse.M)):
        G = (P.T @ F @ P).toarray()
        assert np.max(np.abs(G - C.toarray())) <= 1e-12 * np.max(np.abs(C.toarray()))


@pytest.mark.parametrize("operator", ["delta", "delta-prime"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_coarse_form_is_the_form_two_levels_coarser(operator, bc):
    """The coarse form is exactly the same assembler's form on the
    partition triangulated two levels coarser."""
    fine, (coarse, _) = _coarse_pair("star3", {}, operator, bc)
    m = fine.mesh
    maker = forms.assemble_delta if operator == "delta" else forms.assemble_delta_prime
    want = maker(mesh.triangulate(m.partition, m.refinement_level - 2),
                 fine.interaction, bc)
    for X, Y in ((coarse.A, want.A), (coarse.M, want.M)):
        for a, b in ((X.data, Y.data), (X.indices, Y.indices), (X.indptr, Y.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert coarse.coercivity_bound == want.coercivity_bound
    for field in ("dof_node", "dof_subdomain", "full_to_red"):
        assert np.array_equal(getattr(coarse, field), getattr(want, field))
    assert coarse.mesh.refinement_level == m.refinement_level - 2


def test_coarse_form_needs_an_interaction():
    _, m, _ = _setup("star3", 2)
    rf = forms.assemble_subdomain_robin(m, int(m.subdomain_ids()[0]), 1.0)
    with pytest.raises(ValueError, match="delta"):
        forms.coarse_form(rf)
    # a hand-built mesh has no partition to triangulate coarser
    square = _square_mesh([1, 2])
    df = forms.assemble_delta(square, geometry.InteractionData({1: 1.0}, {1: 1.0}))
    with pytest.raises(ValueError, match="triangulated mesh"):
        forms.coarse_form(df)


@st.composite
def _nested_problems(draw):
    name, params = draw(st.sampled_from(_MULTI_INTERFACE))
    p = geometry.build_canonical_partition(name, dict(params, box_radius=4.0))
    m = mesh.triangulate(p, draw(st.integers(1, 3)))
    maker = draw(st.sampled_from([forms.assemble_delta, forms.assemble_delta_prime]))
    bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    return m, _random_interaction(draw, p), maker, bc


@settings(max_examples=30, deadline=None)
@given(_nested_problems())
def test_galerkin_nesting(problem):
    """lambda_j(level L) <= lambda_j(level L-1), j <= 5: the coarse space
    is a subspace of the fine one, so by min-max each coarse eigenvalue
    bounds the fine one from above."""
    m, d, maker, bc = problem
    lam = [sla.eigh(f.A.toarray(), f.M.toarray(), eigvals_only=True,
                    subset_by_index=[0, min(4, f.n_dofs - 1)])
           for f in (maker(m, d, bc),
                     maker(mesh.triangulate(m.partition, m.refinement_level - 1), d, bc))]
    for lf, lc in zip(*lam):
        assert lf <= lc + 1e-10 * max(1.0, abs(lc))
