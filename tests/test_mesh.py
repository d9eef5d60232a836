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


_partitions = st.one_of(
    _random_partitions(),
    st.builds(lambda rows, cols: geometry.build_canonical_partition(
        "grid", {"rows": rows, "cols": cols}), st.integers(1, 4), st.integers(1, 6)),
    st.builds(lambda phi: geometry.build_canonical_partition("wedge", {"phi": phi}),
              st.floats(1e-3, math.pi)),
    st.sampled_from(geometry.CANONICAL_NAMES).map(geometry.build_canonical_partition))


@settings(max_examples=100, deadline=None)
@given(_partitions)
def test_one_interface_per_neighbouring_pair(p):
    """Interface l, numbered in sorted (k, l) order, is every cell edge that
    subdomains k and l share, as sorted vertex pairs in sorted order, and its
    length is the correctly rounded sum of their lengths."""
    owners = {}
    for s in p.subdomains:
        for loop in s.loops:
            for a, b in zip(loop, loop[1:] + loop[:1]):
                owners.setdefault((min(a, b), max(a, b)), []).append(s.id)
    shared = {e: tuple(sorted(ids)) for e, ids in owners.items()
              if len(ids) == 2 and ids[0] != ids[1]}
    pairs = sorted(set(shared.values()))
    assert [(itf.k, itf.l) for itf in p.interfaces] == pairs
    assert [itf.id for itf in p.interfaces] == list(range(1, len(pairs) + 1))
    for itf in p.interfaces:
        assert itf.segments == tuple(sorted(e for e, kl in shared.items()
                                            if kl == (itf.k, itf.l)))
        a, b = np.array(itf.segments).T
        assert itf.length == math.fsum(
            np.linalg.norm(p.vertices[b] - p.vertices[a], axis=1))


@settings(max_examples=60, deadline=None)
@given(_random_partitions())
def test_interface_edges_are_the_interface_segments(p):
    m0 = mesh.triangulate(p, 0)
    want = {e: itf for itf in p.interfaces for e in itf.segments}
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


@pytest.mark.parametrize("phi", [2 * math.pi / 3, math.pi / 2 + 1e-9, math.pi])
def test_mirror_permutation_maps_onto_the_exact_mirror(phi):
    """perm[i] is the node at exactly (2 axis - x_i, y_i), bit for bit; a
    mirror axis the mesh is not symmetric about is refused."""
    for box_radius in (4.0, 140.0):
        for level in range(4):
            _, m = _mesh("wedge", level, box_radius, phi=phi)
            perm = mesh.mirror_permutation(m, 0.0)
            assert np.array_equal(m.nodes[perm, 0], -m.nodes[:, 0])
            assert np.array_equal(m.nodes[perm, 1], m.nodes[:, 1])
    with pytest.raises(ValueError, match="not reflection-symmetric"):
        mesh.mirror_permutation(m, 1e-12)


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
def test_midpoint_parents_number_the_finer_nodes(name, params):
    """The midpoints of midpoint_parents(level L-1) are, in order and bit
    for bit, the nodes that triangulate(p, L) numbers after L-1's."""
    p = geometry.build_canonical_partition(name, dict(params, box_radius=4.0))
    for levels in (1, 2, 3):
        coarse = mesh.triangulate(p, levels - 1)
        fine = mesh.triangulate(p, levels)
        parents = mesh.midpoint_parents(coarse)
        assert parents.dtype == np.int64
        assert parents.shape == (fine.n_nodes - coarse.n_nodes, 2)
        assert np.all(parents[:, 0] < parents[:, 1])
        assert np.array_equal(fine.nodes[:coarse.n_nodes], coarse.nodes)
        mids = 0.5 * (coarse.nodes[parents[:, 0]] + coarse.nodes[parents[:, 1]])
        assert np.array_equal(mids, fine.nodes[coarse.n_nodes:])
        assert fine.partition is p


def test_export_mesh_matches_per_entry_format():
    """The text is byte for byte the per-entry formatting of every node,
    triangle and interface edge."""
    _, m = _mesh("star3", 1)
    lines = [f"v {float(x)!r} {float(y)!r}" for x, y in m.nodes]
    for t in range(m.n_triangles):
        a, b, c = m.triangles[t] + 1
        lines.append(f"t {a} {b} {c} {m.tri_subdomain[t]}")
    for q in range(m.iface_edge_nodes.shape[0]):
        i, j = m.iface_edge_nodes[q] + 1
        k, l = m.iface_edge_kl[q]
        lines.append(f"e {i} {j} {m.iface_edge_id[q]} {k} {l}")
    assert mesh.export_mesh(m) == "\n".join(lines) + "\n"


def _refine_reference(nodes, triangles, tri_subdomain, iface_nodes):
    """Per-triangle uniform refinement: midpoints numbered after the nodes
    by sorted edge (a < b, i.e. by code a * n + b), children of triangle t
    in rows 4t..4t+3 as the `_refine_once` docstring gives them, interface edge
    q split into rows 2q (a, mid) and 2q+1 (mid, b)."""
    n = nodes.shape[0]
    edges = sorted({(min(u, v), max(u, v)) for a, b, c in triangles.tolist()
                    for u, v in ((a, b), (b, c), (c, a))})
    mid = {e: n + i for i, e in enumerate(edges)}

    def m(u, v):
        return mid[min(u, v), max(u, v)]

    new_nodes = np.array(list(nodes) + [0.5 * (nodes[a] + nodes[b])
                                        for a, b in edges])
    children, child_sub = [], []
    for (a, b, c), s in zip(triangles.tolist(), tri_subdomain.tolist()):
        mab, mbc, mca = m(a, b), m(b, c), m(c, a)
        children += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        child_sub += [s] * 4
    halves = []
    for a, b in iface_nodes.tolist():
        halves += [(a, m(a, b)), (m(a, b), b)]
    return (new_nodes, np.array(children, dtype=np.int64),
            np.array(child_sub, dtype=np.int64),
            np.array(halves, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_refine_once_matches_per_triangle_reference(name):
    p = geometry.build_canonical_partition(name, {"box_radius": 4.0})
    for level in range(3):
        m = mesh.triangulate(p, level)
        args = (m.nodes, m.triangles, m.tri_subdomain, m.iface_edge_nodes)
        got = mesh._refine_once(*args)
        want = _refine_reference(*args)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def _layout_reference(m):
    """Broken layout by its definition: subdomains in np.unique order, the
    np.unique nodes of each subdomain's triangles, dofs numbered in turn."""
    dof_node, dof_sub, sub_node_dof = [], [], {}
    for sid in np.unique(m.tri_subdomain).tolist():
        nodes = np.unique(m.triangles[m.tri_subdomain == sid])
        lut = np.full(m.n_nodes, -1, dtype=np.int64)
        lut[nodes] = sum(map(len, dof_node)) + np.arange(nodes.size)
        sub_node_dof[sid] = lut
        dof_node.append(nodes)
        dof_sub.append(np.full(nodes.size, sid, dtype=np.int64))
    return np.concatenate(dof_node), np.concatenate(dof_sub), sub_node_dof


def _check_layout(m):
    assert np.array_equal(m.subdomain_ids(), np.unique(m.tri_subdomain))
    got, want = forms.broken_dof_layout(m), _layout_reference(m)
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    table = got[2]
    assert table.dtype == np.int64
    assert table.shape == (max(want[2]) + 1, m.n_nodes)
    for sid in range(table.shape[0]):
        assert np.array_equal(table[sid], want[2].get(sid, np.full(m.n_nodes, -1)))
    # per triangle, and per interface edge with one subdomain per entry
    tri_dofs = table[m.tri_subdomain[:, None], m.triangles]
    assert tri_dofs.tolist() == [[want[2][s][v] for v in tri] for tri, s in
                                 zip(m.triangles.tolist(), m.tri_subdomain.tolist())]
    kl = np.repeat(m.iface_edge_kl, 2, axis=1)
    ab = np.tile(m.iface_edge_nodes, (1, 2))
    assert table[kl, ab].tolist() == [
        [want[2][s][v] for s, v in zip(ks, vs)]
        for ks, vs in zip(kl.tolist(), ab.tolist())]


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_broken_layout_matches_unique_definition(name):
    p = geometry.build_canonical_partition(name, {"box_radius": 4.0})
    for level in range(3):
        _check_layout(mesh.triangulate(p, level))


@settings(max_examples=20, deadline=None)
@given(_random_partitions(), st.integers(0, 2))
def test_broken_layout_matches_unique_definition_random(p, levels):
    _check_layout(mesh.triangulate(p, levels))


def _windowed_wedge():
    p = geometry.build_canonical_partition("wedge", {"phi": 3.0 * np.pi / 4.0,
                                                     "box_radius": 20.0})
    return p, mesh.triangulate(p, 2, (np.pi / 8.0, (4.0, 12.0, -4.0, 4.0)))


@pytest.mark.parametrize("call", [
    lambda p, m: forms.assemble_delta(m, geometry.InteractionData.uniform(p, 1.0, 2.0)),
    lambda p, m: forms.assemble_delta_prime(
        m, geometry.InteractionData.uniform(p, 1.0, 2.0), "neumann"),
    lambda p, m: forms.assemble_subdomain_robin(m, 1, 1.0),
    lambda p, m: mesh.export_mesh(m),
    lambda p, m: mesh.mirror_permutation(m, 0.0),
], ids=["assemble_delta", "assemble_delta_prime", "assemble_subdomain_robin",
        "export_mesh", "mirror_permutation"])
def test_windowed_mesh_is_refused(call):
    """A windowed mesh does not tile the box: forms, export and reflection
    refuse it by name."""
    p, m = _windowed_wedge()
    assert m.window is not None
    assert m.n_triangles < mesh.triangulate(p, 2).n_triangles
    with pytest.raises(ValueError, match="not a windowed mesh"):
        call(p, m)


@pytest.mark.parametrize("window", [
    (math.nan, (0.0, 1.0, 0.0, 1.0)), (0.0, (0.0, math.inf, 0.0, 1.0)),
    (0.0, (1.0, 0.0, 0.0, 1.0)), (0.0, (0.0, 1.0, 1.0, 0.0)),
])
def test_bad_window_is_named(window):
    p = geometry.build_canonical_partition("half_plane", {"box_radius": 4.0})
    with pytest.raises(ValueError, match="window must be"):
        mesh.triangulate(p, 1, window)
