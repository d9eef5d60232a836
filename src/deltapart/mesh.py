"""Conforming triangulations of a Partition: ear-clipped coarse meshes,
uniform 4-way refinement, tagged interface edges, and the even/odd
reflection utilities used on symmetric wedge meshes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import geometry
from .geometry import Partition, _VertexPool, _cross2, _loop_area

__all__ = ["Mesh", "triangulate", "midpoint_parents", "canonical_mesh",
           "reflect_split", "export_mesh"]


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray                # (n, 2)
    triangles: np.ndarray            # (m, 3) int64
    tri_subdomain: np.ndarray        # (m,) int64
    iface_edge_nodes: np.ndarray     # (q, 2) int64, node pair per interface edge
    iface_edge_id: np.ndarray        # (q,) interface id
    iface_edge_kl: np.ndarray        # (q, 2) adjacent subdomain ids (k, l)
    iface_edge_length: np.ndarray    # (q,)
    outer_boundary_nodes: np.ndarray  # sorted node indices on the box boundary
    refinement_level: int
    box_radius: float
    # (angle, (x0, x1, y0, y1)) of `triangulate`'s window, or None for a
    # mesh of the whole box
    window: tuple | None = None
    partition: Partition | None = None   # what `triangulate` meshed

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def subdomain_ids(self) -> np.ndarray:
        """Sorted ids of the subdomains that own triangles (ids are >= 0)."""
        return np.flatnonzero(np.bincount(self.tri_subdomain))


# ---------------------------------------------------------------------------
# ear clipping
# ---------------------------------------------------------------------------

def _ear_clip(coords: List[Tuple[float, float]], loop: Sequence[int]) -> List[Tuple[int, int, int]]:
    remain = list(loop)
    if len(remain) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    pts = {i: np.asarray(coords[i]) for i in remain}
    span = max(max(abs(pts[i][0]), abs(pts[i][1])) for i in remain)
    eps = 1e-12 * max(span, 1.0) ** 2
    tris: List[Tuple[int, int, int]] = []
    while len(remain) > 3:
        n = len(remain)
        clipped = False
        for ii in range(n):
            a = remain[ii - 1]
            b = remain[ii]
            c = remain[(ii + 1) % n]
            pa, pb, pc = pts[a], pts[b], pts[c]
            area2 = _cross2(pb - pa, pc - pa)
            if area2 <= eps:
                continue  # reflex or collinear corner
            blocked = False
            for v in remain:
                if v in (a, b, c):
                    continue
                pv = pts[v]
                s1 = _cross2(pb - pa, pv - pa)
                s2 = _cross2(pc - pb, pv - pb)
                s3 = _cross2(pa - pc, pv - pc)
                if s1 >= -eps and s2 >= -eps and s3 >= -eps:
                    blocked = True
                    break
            if blocked:
                continue
            tris.append((a, b, c))
            del remain[ii]
            clipped = True
            break
        if not clipped:
            raise ValueError("ear clipping failed; polygon is likely non-simple")
    a, b, c = remain
    if _cross2(pts[b] - pts[a], pts[c] - pts[a]) <= eps:
        raise ValueError("degenerate final triangle in ear clipping")
    tris.append((a, b, c))
    return tris


def _clip_right_of_axis(coords: List[Tuple[float, float]], tol: float):
    """Sutherland-Hodgman clip of a CCW polygon against x >= 0."""
    out: List[Tuple[float, float]] = []
    n = len(coords)
    for i in range(n):
        cx, cy = coords[i]
        nxx, nxy = coords[(i + 1) % n]
        cin = cx >= -tol
        nin = nxx >= -tol
        if cin:
            out.append((cx, cy))
        if cin != nin:
            t = cx / (cx - nxx)
            out.append((0.0, cy + t * (nxy - cy)))
    cleaned: List[Tuple[float, float]] = []
    for pt in out:
        if cleaned and abs(pt[0] - cleaned[-1][0]) < tol and abs(pt[1] - cleaned[-1][1]) < tol:
            continue
        cleaned.append(pt)
    if len(cleaned) >= 2 and abs(cleaned[0][0] - cleaned[-1][0]) < tol \
            and abs(cleaned[0][1] - cleaned[-1][1]) < tol:
        cleaned.pop()
    return cleaned if len(cleaned) >= 3 else None


# ---------------------------------------------------------------------------
# coarse triangulation
# ---------------------------------------------------------------------------

def _coarse_mesh(p: Partition):
    pool = _VertexPool(p.box_radius)
    for x, y in p.vertices:
        pool.add(x, y)
    tris: List[Tuple[int, int, int]] = []
    tri_sub: List[int] = []
    tol = 1e-12 * max(p.box_radius, 1.0)
    for sub in p.subdomains:
        for loop in sub.loops:
            if not p.mirrored:
                cell_tris = _ear_clip(pool.coords, loop)
            else:
                coords = [pool.coords[i] for i in loop]
                right = _clip_right_of_axis(coords, tol)
                if right is None:
                    raise ValueError("symmetric meshing expects every cell to "
                                     "straddle or touch the axis")
                ridx = [pool.add(x, y) for x, y in right]
                half = _ear_clip(pool.coords, ridx)
                cell_tris = list(half)
                for a, b, c in half:
                    ma = pool.add(-pool.coords[a][0], pool.coords[a][1])
                    mb = pool.add(-pool.coords[b][0], pool.coords[b][1])
                    mc = pool.add(-pool.coords[c][0], pool.coords[c][1])
                    cell_tris.append((mc, mb, ma))
            tris.extend(cell_tris)
            tri_sub.extend([sub.id] * len(cell_tris))
    nodes = pool.array()
    triangles = np.asarray(tris, dtype=np.int64)
    tri_subdomain = np.asarray(tri_sub, dtype=np.int64)
    return nodes, triangles, tri_subdomain


def _derive_interface_edges(p: Partition, nodes, triangles, tri_subdomain):
    """Node pair, interface id, (k, l) and length of every coarse-mesh edge
    between two subdomains, in sorted node-pair order.  The coarse mesh
    numbers the partition's vertices first, so these edges must be exactly
    the interfaces' segments, which are sorted vertex pairs."""
    segment = {e: itf for itf in p.interfaces for e in itf.segments}
    sides: Dict[Tuple[int, int], List[int]] = {}
    for (a, b, c), s in zip(triangles.tolist(), tri_subdomain.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            sides.setdefault((min(u, v), max(u, v)), []).append(s)
    cut = {e: tuple(sorted(s)) for e, s in sides.items()
           if len(s) == 2 and s[0] != s[1]}
    if cut != {e: (itf.k, itf.l) for e, itf in segment.items()}:
        raise ValueError("the mesh edges between two subdomains are not the "
                         "interface segments")
    order = sorted(cut)
    edges = np.array(order, dtype=np.int64).reshape(-1, 2)
    dx = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    return (edges, np.array([segment[e].id for e in order], dtype=np.int64),
            np.array([cut[e] for e in order], dtype=np.int64).reshape(-1, 2),
            np.hypot(dx[:, 0], dx[:, 1]))


# ---------------------------------------------------------------------------
# uniform refinement
# ---------------------------------------------------------------------------

def _side_codes(n: int, triangles):
    """Codes min(u, v) n + max(u, v) of the triangles' ab, then bc, then ca
    sides (u, v); a refinement numbers its midpoints in sorted code order."""
    a, b, c = triangles.T
    u, v = np.concatenate([a, b, c]), np.concatenate([b, c, a])
    return np.minimum(u, v) * n + np.maximum(u, v)


def _refine_once(nodes, triangles, tri_subdomain, iface_nodes):
    """One uniform 4-way refinement: midpoints follow the nodes in sorted
    side-code order, the children of triangle t are rows 4t..4t+3,
    (a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca), and
    interface edge q splits into rows 2q (a, mid) and 2q+1 (mid, b)."""
    n, m = nodes.shape[0], triangles.shape[0]
    a, b, c = triangles.T
    uniq, inv = np.unique(_side_codes(n, triangles), return_inverse=True)
    new_nodes = np.vstack([nodes, 0.5 * (nodes[uniq // n] + nodes[uniq % n])])
    mab, mbc, mca = (n + inv).reshape(3, m)
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
    ia, ib = iface_nodes.T
    imid = n + np.searchsorted(uniq, np.minimum(ia, ib) * n + np.maximum(ia, ib))
    new_iface = np.stack([ia, imid, imid, ib], axis=1).reshape(-1, 2)
    return new_nodes, children, np.repeat(tri_subdomain, 4), new_iface


def midpoint_parents(m: Mesh) -> np.ndarray:
    """Sorted node pairs of m's triangle sides, in the order in which the
    mesh one level finer numbers their midpoints after m's nodes."""
    # sort, then drop repeats: np.unique of the codes alone was 8x slower
    codes = np.sort(_side_codes(m.n_nodes, m.triangles))
    uniq = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
    return np.stack(np.divmod(uniq, m.n_nodes), axis=1)


def _turned(xy, angle):
    """(xr, yr) = (x cos(angle) + y sin(angle), -x sin(angle) + y cos(angle))
    of the points xy: the one frame of windows and the wedge test function."""
    ct, st = np.cos(angle), np.sin(angle)
    return xy[:, 0] * ct + xy[:, 1] * st, -xy[:, 0] * st + xy[:, 1] * ct


def _meets_window(nodes, cells, window, slack):
    """Rows of cells (node indices: a triangle's three or an edge's two)
    whose bounding box in the `_turned` coordinates meets the window's
    rectangle widened by slack: for each side of the rectangle, some node
    lies on its inner side."""
    angle, (x0, x1, y0, y1) = window
    xr, yr = _turned(nodes, angle)
    meets = np.ones(cells.shape[0], dtype=bool)
    for inner in (xr >= x0 - slack, xr <= x1 + slack,
                  yr >= y0 - slack, yr <= y1 + slack):
        # one gathered column at a time: inner[cells].any(axis=1) is slower
        side = inner[cells[:, 0]]
        for col in cells.T[1:]:
            side |= inner[col]
        meets &= side
    return meets


def _clip_to_window(nodes, triangles, tri_subdomain, iface, window, slack):
    """Keep the triangles and the interface edges that meet the window, and
    the kept triangles' nodes in the same relative order; iface is (node
    pairs, ids, (k, l), lengths) per edge.  The triangles on both sides of
    a kept edge hold its two nodes, so they meet the window too."""
    keep = _meets_window(nodes, triangles, window, slack)
    triangles, tri_subdomain = triangles[keep], tri_subdomain[keep]
    pairs, ids, kl, lengths = iface
    edges = _meets_window(nodes, pairs, window, slack)
    used = np.zeros(nodes.shape[0], dtype=bool)
    used[triangles] = True
    renumber = np.cumsum(used) - 1
    return (nodes[used], renumber[triangles], tri_subdomain,
            (renumber[pairs[edges]], ids[edges], kl[edges], lengths[edges]))


def _whole_box(m: Mesh, what: str) -> None:
    if m.window is not None:
        raise ValueError(f"{what} needs a mesh of the whole box, not a "
                         f"windowed mesh")


def triangulate(p: Partition, levels: int, window=None) -> Mesh:
    """The coarse mesh of p refined levels times.  With a window
    (angle, (x0, x1, y0, y1)), every level from the coarse mesh on keeps
    only the triangles whose bounding box in the `_turned` coordinates
    (xr, yr) meets the rectangle x0 <= xr <= x1, y0 <= yr <= y1, widened
    by 1e-9 max(R, 1).
    A child lies inside its parent, so the kept triangles are the rows of
    the whole-box mesh that meet the rectangle, in the same order and with
    the same coordinates; likewise the interface edges whose two nodes
    pass the same test, whose triangles on both sides are then kept.  Such
    a mesh does not tile the box."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    R = p.box_radius
    tol = 1e-9 * max(R, 1.0)
    if window is not None:
        angle, (x0, x1, y0, y1) = window
        window = (float(angle), (float(x0), float(x1), float(y0), float(y1)))
        if not (np.all(np.isfinite(window[1])) and np.isfinite(window[0])
                and x0 <= x1 and y0 <= y1):
            raise ValueError("window must be a finite angle and a rectangle "
                             "(x0, x1, y0, y1) with x0 <= x1 and y0 <= y1")
    nodes, triangles, tri_subdomain = _coarse_mesh(p)
    iface = _derive_interface_edges(p, nodes, triangles, tri_subdomain)
    for level in range(levels + 1):
        if level:
            iface_nodes, iface_id, iface_kl, iface_len = iface
            nodes, triangles, tri_subdomain, iface_nodes = _refine_once(
                nodes, triangles, tri_subdomain, iface_nodes)
            iface = (iface_nodes, np.repeat(iface_id, 2),
                     np.repeat(iface_kl, 2, axis=0), np.repeat(iface_len, 2) / 2.0)
        if window is not None:
            nodes, triangles, tri_subdomain, iface = _clip_to_window(
                nodes, triangles, tri_subdomain, iface, window, tol)
    on_box = (np.abs(np.abs(nodes[:, 0]) - R) < tol) | (np.abs(np.abs(nodes[:, 1]) - R) < tol)
    outer = np.flatnonzero(on_box).astype(np.int64)
    m = Mesh(nodes, triangles, tri_subdomain, *iface, outer, levels, R,
             window, p)
    _check_mesh(p, m)
    return m


def canonical_mesh(name: str, params: dict | None, box_radius: float,
                   levels: int) -> Tuple[Partition, Mesh]:
    """Build the named canonical partition on a box of the given radius
    and triangulate it. The radius comes from box_radius alone: params
    naming one too is an error, not a silent override."""
    if "box_radius" in (params or {}):
        raise ValueError("geometry parameter 'box_radius': set the box radius "
                         "at the top level, not in the geometry parameters")
    geometry.check(box_radius, geometry.POSITIVE, "box_radius")
    p = geometry.build_canonical_partition(name, dict(params or {},
                                                      box_radius=box_radius))
    return p, triangulate(p, levels)


def _check_mesh(p: Partition, m: Mesh) -> None:
    px = m.nodes[:, 0][m.triangles]
    py = m.nodes[:, 1][m.triangles]
    areas = 0.5 * ((px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0])
                   - (py[:, 1] - py[:, 0]) * (px[:, 2] - px[:, 0]))
    if not np.all(areas > 0):
        raise AssertionError("mesh contains non-positive triangle areas")
    if m.window is not None:
        return   # a windowed mesh does not tile the subdomains
    # triangles tile each subdomain
    sub_area = np.bincount(m.tri_subdomain, weights=areas,
                           minlength=max(sub.id for sub in p.subdomains) + 1)
    for sub in p.subdomains:
        target = sum(_loop_area(p.vertices, loop) for loop in sub.loops)
        got = float(sub_area[sub.id])
        if abs(got - target) > 1e-9 * target:
            raise AssertionError(f"subdomain {sub.id} area mismatch: {got} vs {target}")
    # interface edge lengths add up per interface
    for itf in p.interfaces:
        got = float(np.sum(m.iface_edge_length[m.iface_edge_id == itf.id]))
        if abs(got - itf.length) > 1e-12 * max(itf.length, 1.0):
            raise AssertionError(f"interface {itf.id} length mismatch: {got} vs {itf.length}")


# ---------------------------------------------------------------------------
# reflection utilities
# ---------------------------------------------------------------------------

def mirror_permutation(m: Mesh) -> np.ndarray:
    """perm[i] is the node at the exact mirror image (-x, y) of node i."""
    _whole_box(m, "mirror_permutation")
    x, y = m.nodes[:, 0], m.nodes[:, 1]
    a, b = np.lexsort((y, x)), np.lexsort((y, -x))
    if not (np.array_equal(x[a], -x[b]) and np.array_equal(y[a], y[b])):
        raise ValueError("mesh is not reflection-symmetric about x = 0")
    perm = np.empty(m.n_nodes, dtype=np.int64)
    perm[b] = a
    return perm


def reflect_split(m: Mesh, f: np.ndarray):
    """Even/odd split of a nodal vector across the vertical line x = 0.

    The parts are the exact symmetric/antisymmetric projections, so the odd
    part vanishes exactly on axis nodes and the two parts are mass- and
    stiffness-orthogonal to rounding.  even + odd recovers f bit-for-bit
    whenever the halved pair sums are representable (one spare mantissa bit
    suffices); for fully dense mantissas it is exact to one ulp, which is
    the best any fixed splitting can do when |f - f_mirror| > 2|f|."""
    perm = mirror_permutation(m)
    f = np.asarray(f, dtype=float)
    even = (f + f[perm]) * 0.5
    odd = (f - f[perm]) * 0.5          # exactly zero on axis fixed points
    return even, odd


def export_mesh(m: Mesh) -> str:
    """Plain-text dump: "v x y", "t i j k domain", "e i j interface k l"
    (1-based node indices)."""
    _whole_box(m, "export_mesh")
    lines = [f"v {x!r} {y!r}" for x, y in m.nodes.tolist()]
    lines += [f"t {a} {b} {c} {s}" for (a, b, c), s in
              zip((m.triangles + 1).tolist(), m.tri_subdomain.tolist())]
    lines += [f"e {i} {j} {e} {k} {l}" for (i, j), e, (k, l) in
              zip((m.iface_edge_nodes + 1).tolist(), m.iface_edge_id.tolist(),
                  m.iface_edge_kl.tolist())]
    return "\n".join(lines) + "\n"
