import math

import numpy as np
import pytest

from deltapart import geometry, mesh


BOX = 6.0


def _build(name, **params):
    params.setdefault("box_radius", BOX)
    return geometry.build_canonical_partition(name, params)


def _partition_area(p):
    total = 0.0
    for s in p.subdomains:
        for loop in s.loops:
            total += geometry._loop_area(p.vertices, loop)
    return total


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_areas_tile_the_box(name):
    p = _build(name)
    box_area = (2.0 * p.box_radius) ** 2
    assert _partition_area(p) == pytest.approx(box_area, rel=1e-12)


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_interfaces_reference_existing_subdomains(name):
    p = _build(name)
    ids = set(p.subdomain_ids())
    for itf in p.interfaces:
        assert itf.k in ids and itf.l in ids and itf.k != itf.l
        assert itf.length > 0.0
        seg_len = sum(
            float(np.linalg.norm(p.vertices[b] - p.vertices[a]))
            for a, b in itf.segments)
        assert seg_len == pytest.approx(itf.length, rel=1e-12)


# the wedge angles pinned in test_numbering.py, the two that snap one ray
# exit onto a box corner, and the 11 angles (i + 1/2) pi/200 of a 200-angle
# grid whose separately computed exits missed each other's mirror at R = 40
# or 140
_WEDGE_PHIS = [2 * math.pi / 3, math.pi / 2, math.pi / 2 - 1e-10,
               math.pi / 2 + 1e-10, math.pi / 2 - 1.5e-9, math.pi / 2 + 1.5e-9,
               3 * math.pi / 4, math.pi, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9]
_WEDGE_PHIS += [(i + 0.5) * math.pi / 200
                for i in (29, 38, 65, 67, 68, 69, 117, 130, 131, 134, 161)]


def _mirror_closed(points):
    pts = {(x, y) for x, y in points.tolist()}
    return pts == {(-x, y) for x, y in pts}


@pytest.mark.parametrize("box_radius", [4.0, 140.0, 1000.0])
def test_wedge_is_exactly_mirror_symmetric(box_radius):
    """The vertices and the nodes of levels 0-3 are closed under x -> -x,
    bit for bit, so every wedge meshes."""
    for phi in _WEDGE_PHIS:
        p = _build("wedge", phi=phi, box_radius=box_radius)
        assert _mirror_closed(p.vertices), phi
        for level in range(4):
            assert _mirror_closed(mesh.triangulate(p, level).nodes), (phi, level)


def test_unknown_geometry_rejected():
    with pytest.raises(ValueError, match="expected one of"):
        geometry.build_canonical_partition("moebius", {})


def test_unknown_parameters_rejected():
    with pytest.raises(ValueError, match="unknown parameters"):
        _build("wedge", angle=1.0)


# polygons about the origin; the bump gets the same polygon moved up by 2
@pytest.mark.parametrize("polygon,message", [
    ([[-1, -1], [1, -1], [0, 0], [1, 1], [-1, 1], [0, 0]], "not simple"),  # touches itself
    ([[-1, -1], [1, -1], [1, 1], [1, 1], [-1, 1]], "not simple"),  # a doubled point
    ([[-1, -1], [1, -1], [1, 1], [-1, 1], [-1, -1]], "not simple"),  # closed by hand
    ([[-1, -1], [1, 1], [1, -1], [-1, 1]], "not simple"),  # a bow tie
    ([[-1, -1], [1, -1]], "at least 3 vertices"),
    ([[-1, -1], [9, -1], [0, 1]], "strictly inside"),
])
@pytest.mark.parametrize("name,key", [("island", "polygon"), ("line_with_bump", "bump")])
def test_bad_island_polygons_rejected(name, key, polygon, message):
    shift = 2 if name == "line_with_bump" else 0
    with pytest.raises(ValueError, match=message):
        _build(name, **{key: [[x, y + shift] for x, y in polygon]})


def test_star3_interface_lengths():
    p = _build("star3")
    by_pair = {(itf.k, itf.l): itf.length for itf in p.interfaces}
    # two rays leave through the top/bottom box edge, one through the side
    assert by_pair[(1, 3)] == pytest.approx(BOX)
    assert by_pair[(1, 2)] == pytest.approx(2.0 * BOX / math.sqrt(3.0))
    assert by_pair[(2, 3)] == pytest.approx(2.0 * BOX / math.sqrt(3.0))


def test_island_has_closed_interface():
    p = _build("island")
    assert len(p.interfaces) == 1
    poly = p.interfaces[0].polyline
    assert poly[0] == poly[-1]


def test_chromatic_numbers():
    # line_with_bump is a path graph (bump-interior - annulus - lower half)
    expected = {"half_plane": 2, "wedge": 2, "star3": 3,
                "line_with_bump": 2, "island": 2}
    for name, chi in expected.items():
        p = _build(name)
        c = geometry.chromatic_colouring(geometry.adjacency_graph(p))
        assert c.chi == chi
    p = _build("grid", variant="chi4")
    c = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    assert c.chi == 4


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_colouring_is_proper_and_order_independent(name):
    p = _build(name)
    g = geometry.adjacency_graph(p)
    c = geometry.chromatic_colouring(g)
    for (u, v) in g.edges:
        assert c.phi[u] != c.phi[v]
    # permuted node order must reproduce chi
    perm = geometry.Graph(tuple(reversed(g.nodes)),
                          tuple(sorted(g.edges, reverse=True)))
    assert geometry.chromatic_colouring(perm).chi == c.chi


def _cycle_edges(vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


# clique number 2 below the chromatic number: the 5-cycle (chi 3) and the
# Groetzsch graph (chi 4), the 5-cycle with its Mycielski shadow and apex
@pytest.mark.parametrize("n,edges,chi", [
    (5, _cycle_edges(range(5)), 3),
    (11, _cycle_edges(range(5))
     + [(5 + i, (i + 1) % 5) for i in range(5)]
     + [(5 + i, (i - 1) % 5) for i in range(5)]
     + [(5 + i, 10) for i in range(5)], 4),
])
def test_colouring_above_clique_number(n, edges, chi):
    g = geometry.Graph(tuple(range(n)),
                       tuple(sorted((min(e), max(e)) for e in edges)))
    c = geometry.chromatic_colouring(g)
    assert c.chi == chi
    assert set(c.phi.values()) == set(range(chi))
    for u, v in g.edges:
        assert c.phi[u] != c.phi[v]


def test_edge_constant_values_and_monotonicity():
    assert geometry.edge_constant(2) == pytest.approx(4.0)
    assert geometry.edge_constant(3) == pytest.approx(3.0)
    assert geometry.edge_constant(4) == pytest.approx(2.0)
    prev = math.inf
    for chi in range(2, 12):
        v = geometry.edge_constant(chi)
        assert v < prev
        prev = v


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_phase_separation_bound(name):
    p = _build(name)
    g = geometry.adjacency_graph(p)
    c = geometry.chromatic_colouring(g)
    d = geometry.InteractionData.uniform(p, 1.0, 2.0)
    ph = geometry.phase_assignment(p, c, d)
    floor = geometry.edge_constant(c.chi)
    for itf in p.interfaces:
        sep = abs(ph.z[itf.k] - ph.z[itf.l]) ** 2
        assert sep >= floor - 1e-12
        assert ph.alpha_z[itf.id] == pytest.approx(sep / d.beta[itf.id])
    for z in ph.z.values():
        assert abs(abs(z) - 1.0) <= 1e-14


def test_interaction_data_validation():
    p = _build("half_plane")
    with pytest.raises(ValueError, match="strictly positive"):
        geometry.InteractionData.uniform(p, 1.0, 0.0)
    with pytest.raises(ValueError, match="same interface ids"):
        geometry.InteractionData({1: 1.0}, {2: 1.0})
