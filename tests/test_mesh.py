import dataclasses

import numpy as np
import pytest

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
    # every interface edge lies between its two subdomains, unit normals
    for q in range(m.iface_edge_nodes.shape[0]):
        n = m.iface_edge_normal[q]
        assert np.linalg.norm(n) == pytest.approx(1.0)
        a, b = m.nodes[m.iface_edge_nodes[q]]
        tangent = (b - a) / np.linalg.norm(b - a)
        assert abs(float(n @ tangent)) <= 1e-12


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_triangle_areas_tile_box(name):
    _, m = _mesh(name, 2)
    v = m.nodes[m.triangles]
    u, w = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * np.abs(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    assert float(areas.sum()) == pytest.approx((2 * m.box_radius) ** 2,
                                               rel=1e-12)
    assert float(areas.min()) > 0.0


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
