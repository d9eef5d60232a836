import json

import numpy as np
import pytest

from deltapart import closedform, experiments, forms, geometry, mesh


def test_report_machinery():
    rep = experiments.ExperimentReport("demo")
    rep.check_le("le ok", 1.0, 2.0, 0.0)
    rep.check_le("le fail", 3.0, 2.0, 0.5)
    rep.check_abs("abs ok", 1.0, 1.05, 0.1)
    assert [a.passed for a in rep.assertions] == [True, False, True]
    assert not rep.passed
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["passed"] is False
    assert all("tolerance" in a for a in d["assertions"])
    text = rep.to_text()
    assert "FAIL" in text and "PASS" in text and "verdict: FAIL" in text


def test_ordering_small():
    rep = experiments.run_ordering(k=4, box_radius=4.0, levels=3)
    assert rep.passed
    assert rep.quantities["chi"] == 3
    assert rep.quantities["hypothesis_ok"]
    lam_d = rep.quantities["eigenvalues_delta"]
    lam_b = rep.quantities["eigenvalues_delta_prime"]
    assert len(lam_d) == len(lam_b) == 4


def test_ordering_inadmissible_beta_is_informational():
    rep = experiments.run_ordering(beta=100.0, k=2, box_radius=4.0, levels=3)
    assert not rep.quantities["hypothesis_ok"]
    assert rep.passed          # no hard assertion outside the hypothesis


def test_unitary_identity_all_geometries():
    for name, params, levels in [("half_plane", None, 2), ("star3", None, 2),
                                 ("island", None, 2),
                                 ("grid", {"variant": "chi4"}, 2)]:
        rep = experiments.run_unitary_identity(
            geometry_name=name, geometry_params=params, trials=10,
            levels=levels)
        assert rep.passed, rep.to_text()


def test_star_bounds_small():
    rep = experiments.run_star_bounds(box_radii=(6.0, 8.0),
                                      levels_list=(4, 4))
    for a in rep.assertions:
        if "certified" in a.name or "<=" in a.name:
            assert a.passed, a
    assert rep.quantities["bottom_delta"] == pytest.approx(-1.0 / 3.0)


def test_star_bounds_reads_the_closed_form_constants(monkeypatch):
    """The run compares beta with C* = sqrt(3 STAR_MINIMAX) and the printed
    constant without running `minimax_star`'s grid oracle; beta = 3.8 lies
    between the printed 3.62 and the derived 3.95."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grid oracle ran")

    monkeypatch.setattr(closedform, "_grid_oracle", refuse)
    rep = experiments.run_star_bounds(beta=3.8, box_radii=(3.0,),
                                      levels_list=(2,))
    assert rep.quantities["beta_exceeds_c_star_printed_over_alpha"] is True
    assert rep.quantities["beta_exceeds_c_star_derived_over_alpha"] is False


def test_checked_bottoms_are_spectral_bottoms():
    """The half-plane thresholds, the wedge target and the star-bounds
    delta' bound are `closedform.spectral_bottom`'s values, exactly; at
    this strength x ** 2 and x * x differ in the last bit."""
    s = 0.5073711867288875
    sb = closedform.spectral_bottom
    for op in ("delta", "delta-prime"):
        rep = experiments.run_threshold_convergence(
            operator=op, strength=s, box_radii=(3.0,), levels=2)
        assert rep.quantities["threshold"] == sb("half_plane", op, "dirichlet",
                                                 s, s)
    rep = experiments.run_threshold_convergence(
        geometry_name="wedge", operator="delta-prime", strength=s,
        n_list=(1, 2), wedge_box_radius=16.0, wedge_levels=4)
    assert rep.quantities["target"] == sb("half_plane", "delta-prime",
                                          "dirichlet", None, s)
    rep = experiments.run_star_bounds(beta=s, box_radii=(3.0,),
                                      levels_list=(2,))
    assert rep.quantities["certified_bottom_delta_prime"] == sb(
        "star3", "delta-prime", "dirichlet", 1.0, s)


def test_threshold_small_delta():
    rep = experiments.run_threshold_convergence(box_radii=(6.0, 8.0),
                                                levels=5)
    names = [a.name for a in rep.assertions]
    assert any("certified" in n for n in names)
    certified = [a for a in rep.assertions if "certified" in a.name]
    assert all(a.passed for a in certified)


def test_threshold_wedge_quotients_decreasing():
    rep = experiments.run_threshold_convergence(
        geometry_name="wedge", operator="delta-prime", strength=2.0,
        n_list=(4, 8), wedge_box_radius=40.0, wedge_levels=7)
    q = rep.quantities["rayleigh_quotients"]
    assert q[1] < q[0]
    assert q[1] > rep.quantities["target"]        # Rayleigh from above


@pytest.mark.parametrize("levels,pinned", [
    (6, ["-0x1.8570dc4fffce8p-1", "-0x1.8fa769c2c82dfp-1", "-0x1.9248bdbfd6e78p-1"]),
    (9, ["-0x1.f61ba4d329672p-1", "-0x1.fb81804a57ea5p-1", "-0x1.fcdb0e3b5ba0fp-1"]),
], ids=["L6", "L9"])
def test_threshold_wedge_quotients_are_pinned(levels, pinned):
    """The three wedge quotients at R = 140, bit for bit (float.hex), at L6
    and at acceptance 04's L9; both were measured on the whole-box mesh,
    each within 6.7e-16 relative of the quotient taken in np.longdouble."""
    rep = experiments.run_threshold_convergence(
        geometry_name="wedge", operator="delta-prime", strength=2.0,
        wedge_levels=levels)
    assert [q.hex() for q in rep.quantities["rayleigh_quotients"]] == pinned


def test_threshold_rejects_tiny_wedge_box():
    with pytest.raises(ValueError, match="box too small"):
        experiments.run_threshold_convergence(
            geometry_name="wedge", operator="delta-prime",
            n_list=(32,), wedge_box_radius=20.0, wedge_levels=5)


def test_indicator_small():
    rep = experiments.run_indicator_bound_state(box_radii=(6.0,), levels=4,
                                                sides=8)
    assert rep.passed, rep.to_text()


def test_deformation_quadrature_only():
    # the quadrature route alone: I_n negative for large n
    bump = [(-1.0, 1.0), (1.0, 1.0), (1.0, 3.0), (-1.0, 3.0)]
    q64 = experiments._deformation_quadrature(1.0, 64.0, bump)
    assert q64["value"] < 0.0
    q1 = experiments._deformation_quadrature(1.0, 1.0, bump)
    assert q1["value"] > q64["value"]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("bump", [
    [(-1.0, 1.0), (1.0, 1.0), (1.0, 3.0), (-1.0, 3.0)],
    [(-2.0, 0.5), (3.0, 1.0), (0.5, 4.0)],
])
def test_deformation_line_pieces_match_quadrature(alpha, bump):
    """The line pieces scale BUMP_L2SQ and BUMP_GRAD_L2SQ by n; they match
    the two adaptive quadratures they replace."""
    from scipy.integrate import quad

    for n in (1.0, 2.0, 4.0, 8.0, 64.0):
        phi2 = quad(lambda s: float(forms.bump(s / n) ** 2),
                    -2.0 * n, 2.0 * n, epsabs=1e-13, epsrel=1e-12)[0]
        dphi2 = quad(lambda s: float(forms.bump_prime(s / n) ** 2),
                     -2.0 * n, 2.0 * n, epsabs=1e-13, epsrel=1e-12)[0]
        q = experiments._deformation_quadrature(alpha, n, bump)
        grad = dphi2 / n ** 2 * (2.0 / alpha) + phi2 * alpha / 2.0
        l2 = phi2 * 2.0 / alpha
        value = (grad - alpha * (phi2 + q["bump_trace"])
                 + alpha ** 2 / 4.0 * l2)
        scale = grad + alpha * (phi2 + q["bump_trace"]) + alpha ** 2 / 4.0 * l2
        assert q["line_trace"] == pytest.approx(phi2, rel=1e-14, abs=0.0)
        assert q["grad"] == pytest.approx(grad, rel=1e-14, abs=0.0)
        assert q["l2"] == pytest.approx(l2, rel=1e-14, abs=0.0)
        assert abs(q["value"] - value) <= 1e-14 * scale


def test_deformation_discrete_route_is_pinned():
    """The discrete route's I_n at L4, bit for bit (float.hex): the nodal
    profile bump(x/n) exp(-alpha|y|/2) on the Neumann delta form."""
    rep = experiments.run_deformation_bound_state(levels=4)
    assert {n: v.hex() for n, v in rep.quantities["discrete_I_n"].items()} \
        == {1.0: "0x1.f5afc695dd0e7p+3", 4.0: "0x1.dac03791cb3f0p-2"}


def test_sharpness_report():
    rep = experiments.run_sharpness_chi2(levels=5)
    assert rep.passed, rep.to_text()
    assert rep.quantities["bottom_delta"] == pytest.approx(-0.25)
    assert rep.quantities["bottom_delta_prime"] == pytest.approx(-4.0 / 25.0)
    assert rep.quantities["ordering_impossible"]


def test_experiment_registry_complete():
    assert set(experiments.EXPERIMENTS) == {
        "ordering", "unitary", "star-bounds", "threshold", "deformation",
        "indicator", "sharpness"}


@pytest.mark.parametrize("levels", [5, 7])
@pytest.mark.parametrize("phi", [np.pi / 3.0, np.pi / 2.0, 3.0 * np.pi / 4.0],
                         ids=["pi/3", "pi/2", "3pi/4"])
def test_windowed_wedge_mesh_matches_whole_box(phi, levels):
    """The threshold run's windowed mesh holds the whole-box mesh's
    triangles and interface edges that meet the window, in their order and
    with their coordinates, ids, (k, l) and lengths; every kept interface
    edge has its four broken dofs; and the quotients equal the whole-box
    ones bit for bit."""
    R, beta, n_list = 40.0, 2.0, (4, 8)
    p = geometry.build_canonical_partition("wedge", {"phi": phi, "box_radius": R})
    window = experiments._wedge_window(phi, n_list)
    full = mesh.triangulate(p, levels)
    win = mesh.triangulate(p, levels, window)
    kept = np.flatnonzero(mesh._meets_window(full.nodes, full.triangles,
                                             window, 1e-9 * R))
    assert np.array_equal(win.nodes[win.triangles],
                          full.nodes[full.triangles[kept]])
    assert np.array_equal(win.tri_subdomain, full.tri_subdomain[kept])
    assert 0 < win.n_triangles < full.n_triangles
    edges = np.flatnonzero(mesh._meets_window(full.nodes, full.iface_edge_nodes,
                                              window, 1e-9 * R))
    assert np.array_equal(win.nodes[win.iface_edge_nodes],
                          full.nodes[full.iface_edge_nodes[edges]])
    assert np.array_equal(win.iface_edge_id, full.iface_edge_id[edges])
    assert np.array_equal(win.iface_edge_kl, full.iface_edge_kl[edges])
    assert np.array_equal(win.iface_edge_length, full.iface_edge_length[edges])
    table = forms.broken_dof_layout(win)[2]
    kl, ab = win.iface_edge_kl, win.iface_edge_nodes
    assert win.iface_edge_nodes.shape[0] > 0
    assert np.all(table[kl[:, [0, 0, 1, 1]], ab[:, [0, 1, 0, 1]]] >= 0)
    for momentum in (0.0, 0.5):
        rep = experiments.run_threshold_convergence(
            geometry_name="wedge", operator="delta-prime", strength=beta,
            wedge_phi=phi, momentum=momentum, n_list=n_list,
            wedge_box_radius=R, wedge_levels=levels)
        whole = experiments._wedge_quotients(p, full, beta, momentum, n_list,
                                             window[0])
        assert [q.hex() for q in rep.quantities["rayleigh_quotients"]] == [
            q.hex() for q in whole]
