import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapart import forms, geometry, mesh


def _mesh(name, levels, box_radius=4.0, **params):
    params["box_radius"] = box_radius
    p = geometry.build_canonical_partition(name, params)
    return p, mesh.triangulate(p, levels)


def test_half_plane_coarse_mesh():
    _, m = _mesh("half_plane", 0, box_radius=1.0)
    assert m.n_triangles == 4
    assert m.iface_edge_nodes.shape[0] == 1
    assert m.iface_edge_length[0] == pytest.approx(2.0)


def test_refinement_quadruples_triangles():
    _, m0 = _mesh("star3", 1)
    _, m1 = _mesh("star3", 2)
    assert m1.n_triangles == 4 * m0.n_triangles
    assert m1.refinement_level == 2


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_interface_edges_cover_interfaces(name):
    p, m = _mesh(name, 2)
    for itf in p.interfaces:
        total = float(np.sum(m.iface_edge_length[m.iface_edge_id == itf.id]))
        assert total == pytest.approx(itf.length, rel=1e-12)


def _cut_edges(m):
    """{sorted node pair: sorted subdomain pair} of every mesh edge between
    two subdomains, from the triangles alone."""
    sides = {}
    for tri, s in zip(m.triangles.tolist(), m.tri_subdomain.tolist()):
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            sides.setdefault((min(u, v), max(u, v)), []).append(s)
    return {e: tuple(sorted(s)) for e, s in sides.items()
            if len(s) == 2 and s[0] != s[1]}


def test_interface_edges_reject_relabelled_triangle():
    p = geometry.build_canonical_partition("star3", {"box_radius": 4.0})
    nodes, triangles, tri_subdomain = mesh._coarse_mesh(p)
    mesh._derive_interface_edges(p, nodes, triangles, tri_subdomain)
    for t in range(triangles.shape[0]):
        for other in set(p.subdomain_ids()) - {int(tri_subdomain[t])}:
            relabelled = tri_subdomain.copy()
            relabelled[t] = other
            with pytest.raises(ValueError, match="interface segments"):
                mesh._derive_interface_edges(p, nodes, triangles, relabelled)


def _convex_polygon(draw, centre_y, max_axis):
    """3-8 points on a rotated ellipse with semi-axes in [0.5, max_axis],
    angular gaps within a factor 3 of each other."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))
    ang = draw(st.floats(0.0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    a, b = draw(st.floats(0.5, max_axis)), draw(st.floats(0.5, max_axis))
    rot = draw(st.floats(0.0, np.pi))
    cx, cy = draw(st.floats(-0.5, 0.5)), centre_y + draw(st.floats(-0.3, 0.3))
    x, y = a * np.cos(ang), b * np.sin(ang)
    return np.stack([cx + np.cos(rot) * x - np.sin(rot) * y,
                     cy + np.sin(rot) * x + np.cos(rot) * y], axis=1).tolist()


@st.composite
def _random_partitions(draw):
    """A random convex island (box radius 4) or line_with_bump bump."""
    if draw(st.booleans()):
        return geometry.build_canonical_partition(
            "island", {"box_radius": 4.0,
                       "polygon": _convex_polygon(draw, 0.0, 3.0)})
    return geometry.build_canonical_partition(
        "line_with_bump", {"box_radius": 4.0,
                           "bump": _convex_polygon(draw, 2.0, 1.5)})


@settings(max_examples=60, deadline=None)
@given(_random_partitions())
def test_interface_edges_are_the_polyline_segments(p):
    m0 = mesh.triangulate(p, 0)
    want = {(min(a, b), max(a, b)): itf for itf in p.interfaces
            for a, b in itf.segments}
    assert _cut_edges(m0) == {e: (itf.k, itf.l) for e, itf in want.items()}
    got = {tuple(e): int(i) for e, i in zip(m0.iface_edge_nodes.tolist(),
                                            m0.iface_edge_id)}
    assert got == {e: itf.id for e, itf in want.items()}
    m1 = mesh.triangulate(p, 1)
    assert set(_cut_edges(m1)) == {(min(a, b), max(a, b))
                                   for a, b in m1.iface_edge_nodes.tolist()}
    for itf in p.interfaces:
        total = float(np.sum(m1.iface_edge_length[m1.iface_edge_id == itf.id]))
        assert total == pytest.approx(itf.length, rel=1e-12)


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_triangle_areas_tile_box(name):
    _, m = _mesh(name, 2)
    v = m.nodes[m.triangles]
    u, w = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * np.abs(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    assert float(areas.sum()) == pytest.approx((2 * m.box_radius) ** 2,
                                               rel=1e-12)
    assert float(areas.min()) > 0.0


@settings(max_examples=60, deadline=None)
@given(_random_partitions(), st.integers(0, 2))
def test_triangle_areas_tile_random_partitions(p, levels):
    """Each subdomain's triangles tile its polygons, and all of them the
    box, on random convex islands and bumps."""
    m = mesh.triangulate(p, levels)
    v = m.nodes[m.triangles]
    u, w = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    assert float(areas.min()) > 0.0
    for sub in p.subdomains:
        want = sum(geometry._loop_area(p.vertices, loop) for loop in sub.loops)
        got = math.fsum(areas[m.tri_subdomain == sub.id])
        assert got == pytest.approx(want, rel=1e-12)
    assert math.fsum(areas) == pytest.approx((2 * p.box_radius) ** 2,
                                             rel=1e-12)


def test_outer_boundary_nodes_on_box():
    _, m = _mesh("star3", 2)
    R = m.box_radius
    on_box = np.max(np.abs(m.nodes), axis=1) >= R - 1e-12
    assert np.array_equal(np.sort(np.flatnonzero(on_box)),
                          m.outer_boundary_nodes)


def test_mirror_permutation_is_involution():
    _, m = _mesh("wedge", 3)
    assert m.symmetry_axis is not None
    perm = mesh.mirror_permutation(m, m.symmetry_axis)
    assert np.array_equal(perm[perm], np.arange(m.n_nodes))


def test_reflect_split_recombination_and_axis_zero():
    _, m = _mesh("wedge", 3)
    rng = np.random.default_rng(5)
    # one spare mantissa bit makes the halved pair sums exact
    f = rng.standard_normal(m.n_nodes).astype(np.float32).astype(float)
    even, odd = mesh.reflect_split(m, m.symmetry_axis, f)
    assert np.array_equal(even + odd, f)          # bit-for-bit recombination
    on_axis = np.abs(m.nodes[:, 0] - m.symmetry_axis) <= 1e-12
    assert np.all(odd[on_axis] == 0.0)
    # dense mantissas: recombination still within one ulp per component
    g = rng.standard_normal(m.n_nodes)
    ge, go = mesh.reflect_split(m, m.symmetry_axis, g)
    assert np.max(np.abs(ge + go - g)) <= np.max(np.spacing(np.abs(g)))
    # symmetric input has no odd part, antisymmetric no even part
    perm = mesh.mirror_permutation(m, m.symmetry_axis)
    sym = f + f[perm]
    e2, o2 = mesh.reflect_split(m, m.symmetry_axis, sym)
    assert np.max(np.abs(o2)) == 0.0
    anti = f - f[perm]
    e3, o3 = mesh.reflect_split(m, m.symmetry_axis, anti)
    assert np.max(np.abs(e3)) == 0.0


def test_reflect_split_orthogonality():
    p, m = _mesh("wedge", 3)
    d = geometry.InteractionData.uniform(p, 1.0, 1.0)
    df = forms.assemble_delta(m, d, "neumann")   # keeps every node as a dof
    rng = np.random.default_rng(11)
    f = rng.standard_normal(m.n_nodes)
    even, odd = mesh.reflect_split(m, m.symmetry_axis, f)
    scale = float(f @ (df.M @ f))
    assert abs(even @ (df.M @ odd)) <= 1e-12 * scale
    stiff_scale = float(f @ (df.A @ f)) + scale
    assert abs(even @ (df.A @ odd)) <= 1e-10 * abs(stiff_scale)


def test_reflect_split_requires_symmetry():
    _, m = _mesh("wedge", 2)
    with pytest.raises(ValueError):
        mesh.reflect_split(m, m.symmetry_axis + 0.37,
                           np.zeros(m.n_nodes))


def test_export_mesh_format():
    _, m = _mesh("half_plane", 1, box_radius=1.0)
    text = mesh.export_mesh(m)
    lines = text.strip().split("\n")
    kinds = [ln.split()[0] for ln in lines]
    assert kinds.count("v") == m.n_nodes
    assert kinds.count("t") == m.n_triangles
    assert kinds.count("e") == m.iface_edge_nodes.shape[0]
    first_v = lines[0].split()
    assert first_v[0] == "v" and len(first_v) == 3
    float(first_v[1]), float(first_v[2])   # parse back


@pytest.mark.parametrize("name,params",
                         [(n, {}) for n in geometry.CANONICAL_NAMES]
                         + [("grid", {"variant": "chi4"})])
def test_coarsen_inverts_refinement(name, params):
    p = geometry.build_canonical_partition(name, dict(params, box_radius=4.0))
    for levels in (1, 2, 3):
        fine = mesh.triangulate(p, levels)
        coarse, parents = mesh.coarsen(fine)
        ref = mesh.triangulate(p, levels - 1)
        for field in dataclasses.fields(mesh.Mesh):
            got, want = getattr(coarse, field.name), getattr(ref, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        assert parents.shape == (fine.n_nodes - coarse.n_nodes, 2)
        mids = 0.5 * (coarse.nodes[parents[:, 0]] + coarse.nodes[parents[:, 1]])
        assert np.array_equal(mids, fine.nodes[coarse.n_nodes:])


def test_coarsen_level_zero():
    _, m = _mesh("star3", 0)
    with pytest.raises(ValueError, match="level-0"):
        mesh.coarsen(m)
