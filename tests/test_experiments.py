import json

import numpy as np
import pytest

from deltapart import experiments


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


def test_threshold_wedge_quotients_are_pinned():
    """The three wedge quotients at R = 140, L6, bit for bit (float.hex)."""
    rep = experiments.run_threshold_convergence(
        geometry_name="wedge", operator="delta-prime", strength=2.0,
        wedge_levels=6)
    assert [q.hex() for q in rep.quantities["rayleigh_quotients"]] == [
        "-0x1.8570dc4fffc84p-1", "-0x1.8fa769c2c827fp-1", "-0x1.9248bdbfd6e7dp-1"]


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
