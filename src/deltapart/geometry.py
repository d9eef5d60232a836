"""Polygonal partitions of a truncated plane, their neighbour graphs,
exact chromatic colourings, and the phase/strength data used by the
operator-ordering machinery.

A partition lives in the box [-R, R]^2. Subdomains are unions of simple
polygon cells sharing one integer id (several cells are only needed for
annulus-like subdomains, which are split by seams; seams between cells of
the same id are not interfaces). There is one interface per pair k < l of
neighbouring ids: the set of cell edges that subdomains k and l share.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Partition",
    "Subdomain",
    "Interface",
    "InteractionData",
    "Graph",
    "Colouring",
    "PhaseAssignment",
    "build_canonical_partition",
    "adjacency_graph",
    "chromatic_colouring",
    "phase_assignment",
    "edge_constant",
]

CANONICAL_NAMES = ("half_plane", "wedge", "star3", "line_with_bump", "grid", "island")


@dataclass(frozen=True)
class Subdomain:
    id: int
    loops: Tuple[Tuple[int, ...], ...]  # CCW vertex-index loops, one per cell


@dataclass(frozen=True)
class Interface:
    id: int
    k: int
    l: int
    segments: Tuple[Tuple[int, int], ...]  # shared edges, sorted vertex pairs, sorted
    length: float


@dataclass(frozen=True)
class Partition:
    box_radius: float
    vertices: np.ndarray                  # (nv, 2) float
    subdomains: Tuple[Subdomain, ...]
    interfaces: Tuple[Interface, ...]
    mirrored: bool = False    # symmetric about x = 0 by construction

    def subdomain_ids(self) -> Tuple[int, ...]:
        return tuple(s.id for s in self.subdomains)


@dataclass(frozen=True)
class InteractionData:
    alpha: Dict[int, float]   # interface id -> delta strength (1/length)
    beta: Dict[int, float]    # interface id -> delta' strength (length), > 0

    def __post_init__(self):
        for iid, b in self.beta.items():
            if not b > 0:
                raise ValueError(f"beta must be strictly positive (interface {iid}: {b})")
        if set(self.alpha) != set(self.beta):
            raise ValueError("alpha and beta must cover the same interface ids")

    @classmethod
    def uniform(cls, p: Partition, alpha: float, beta: float) -> "InteractionData":
        ids = [itf.id for itf in p.interfaces]
        return cls({i: float(alpha) for i in ids}, {i: float(beta) for i in ids})


@dataclass(frozen=True)
class Graph:
    nodes: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]   # sorted pairs, each (u, v) with u < v


@dataclass(frozen=True)
class Colouring:
    chi: int
    phi: Dict[int, int]       # subdomain id -> colour in {0..chi-1}


@dataclass(frozen=True)
class PhaseAssignment:
    z: Dict[int, complex]       # subdomain id -> unit phase
    alpha_z: Dict[int, float]   # interface id -> induced delta strength


# ---------------------------------------------------------------------------
# basic polygon helpers
# ---------------------------------------------------------------------------

def _loop_area(vertices: np.ndarray, loop: Sequence[int]) -> float:
    pts = vertices[list(loop)]
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _segments_cross(p1, p2, q1, q2, tol) -> bool:
    """True if the open interiors of the two segments properly intersect."""
    d1 = _cross2(p2 - p1, q1 - p1)
    d2 = _cross2(p2 - p1, q2 - p1)
    d3 = _cross2(q2 - q1, p1 - q1)
    d4 = _cross2(q2 - q1, p2 - q1)
    return (d1 * d2 < -tol) and (d3 * d4 < -tol)


def _snap(v: float, radius: float) -> float:
    for target in (0.0, radius, -radius):
        if abs(v - target) < 1e-9 * max(radius, 1.0):
            return target
    return v


class _VertexPool:
    """Deduplicating vertex registry keyed by snapped coordinates."""

    def __init__(self, radius: float):
        self.radius = radius
        self.coords: List[Tuple[float, float]] = []
        self._index: Dict[Tuple[float, float], int] = {}

    def add(self, x: float, y: float) -> int:
        x = _snap(float(x), self.radius)
        y = _snap(float(y), self.radius)
        key = (round(x, 12), round(y, 12))
        if key in self._index:
            return self._index[key]
        idx = len(self.coords)
        self.coords.append((x, y))
        self._index[key] = idx
        return idx

    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float).reshape(-1, 2)


def _derive_interfaces(vertices: np.ndarray,
                       subdomains: Sequence[Subdomain]) -> Tuple[Interface, ...]:
    """One interface per pair k < l of ids whose cells share an edge: those
    edges, numbered 1... in sorted pair order."""
    owners: Dict[Tuple[int, int], List[int]] = {}
    for sub in subdomains:
        for loop in sub.loops:
            for a, b in zip(loop, loop[1:] + loop[:1]):
                owners.setdefault((min(a, b), max(a, b)), []).append(sub.id)
    pair_edges: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for edge, ids in sorted(owners.items()):
        if len(ids) == 2 and ids[0] != ids[1]:
            pair_edges.setdefault((min(ids), max(ids)), []).append(edge)
    interfaces = []
    for iid, ((k, l), edges) in enumerate(sorted(pair_edges.items()), start=1):
        a, b = np.array(edges).T
        length = math.fsum(np.linalg.norm(vertices[b] - vertices[a], axis=1))
        interfaces.append(Interface(iid, k, l, tuple(edges), length))
    return tuple(interfaces)


def validate_partition(p: Partition) -> None:
    R = p.box_radius
    tol = 1e-9 * max(R, 1.0)
    total = 0.0
    all_edges: List[Tuple[int, int]] = []
    for sub in p.subdomains:
        for loop in sub.loops:
            area = _loop_area(p.vertices, loop)
            if area <= tol * tol:
                raise ValueError(f"cell of subdomain {sub.id} is degenerate or clockwise")
            total += area
            n = len(loop)
            all_edges.extend((loop[i], loop[(i + 1) % n]) for i in range(n))
    if abs(total - 4.0 * R * R) > 1e-9 * 4.0 * R * R:
        raise ValueError(f"subdomain areas sum to {total}, expected {4 * R * R}")
    # edge sharing: each edge belongs to one cell (then it must lie on the box)
    # or exactly two cells
    count: Dict[Tuple[int, int], int] = {}
    for a, b in all_edges:
        key = (min(a, b), max(a, b))
        count[key] = count.get(key, 0) + 1
    for (a, b), c in count.items():
        if c > 2:
            raise ValueError(f"edge {(a, b)} shared by {c} cells")
        if c == 1:
            pa, pb = p.vertices[a], p.vertices[b]
            on_box = any(
                abs(pa[d] - s * R) < tol and abs(pb[d] - s * R) < tol
                for d in (0, 1) for s in (-1.0, 1.0)
            )
            if not on_box:
                raise ValueError(f"unmatched interior edge {(a, b)}")
    # no proper crossings between any two boundary edges
    segs = [(p.vertices[a], p.vertices[b]) for a, b in count]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _segments_cross(segs[i][0], segs[i][1], segs[j][0], segs[j][1], tol * tol):
                raise ValueError("cell boundary edges cross")
    for itf in p.interfaces:
        if not itf.length > 0:
            raise ValueError(f"interface {itf.id} has non-positive length")


# ---------------------------------------------------------------------------
# canonical builders
# ---------------------------------------------------------------------------

def _box_walk(a, b, R) -> List[Tuple[float, float]]:
    """Box corners strictly between the box points a and b, counter-clockwise."""
    turn = 2 * math.pi
    start = math.atan2(a[1], a[0])
    span = (math.atan2(b[1], b[0]) - start) % turn
    corners = sorted(((math.atan2(y, x) - start) % turn, (x, y))
                     for x, y in ((R, R), (-R, R), (-R, -R), (R, -R)))
    # a point within the snap distance 1e-9 * max(R, 1) of a corner is that
    # corner, so the margin only absorbs rounding: it lies far below the
    # angle, at least 5e-10, that the snap distance subtends at a corner
    return [pt for angle, pt in corners if 1e-12 < angle < span - 1e-12]


_Cells = Tuple[_VertexPool, Tuple[Subdomain, ...]]  # what each builder returns


def _ray_box_exit(theta: float, R: float) -> Tuple[float, float]:
    c, s = math.cos(theta), math.sin(theta)
    tx = R / abs(c) if abs(c) > 1e-15 else math.inf
    ty = R / abs(s) if abs(s) > 1e-15 else math.inf
    t = min(tx, ty)
    return (_snap(t * c, R), _snap(t * s, R))


def _half_plane(R: float) -> _Cells:
    pool = _VertexPool(R)
    bl = pool.add(-R, -R)
    br = pool.add(R, -R)
    r0 = pool.add(R, 0)
    tr = pool.add(R, R)
    tl = pool.add(-R, R)
    l0 = pool.add(-R, 0)
    return pool, (
        Subdomain(1, ((l0, r0, tr, tl),)),
        Subdomain(2, ((bl, br, r0, l0),)),
    )


def _wedge(R: float, phi: float) -> _Cells:
    pool = _VertexPool(R)
    o = pool.add(0.0, 0.0)
    e1 = _ray_box_exit(math.pi / 2 - phi / 2, R)
    e2 = (-e1[0], e1[1])               # the mirror image: exactly symmetric
    i1 = pool.add(*e1)
    i2 = pool.add(*e2)
    wedge_loop = [o, i1] + [pool.add(*pt) for pt in _box_walk(e1, e2, R)] + [i2]
    comp_loop = [o, i2] + [pool.add(*pt) for pt in _box_walk(e2, e1, R)] + [i1]
    return pool, (Subdomain(1, (tuple(wedge_loop),)), Subdomain(2, (tuple(comp_loop),)))


def _star3(R: float) -> _Cells:
    pool = _VertexPool(R)
    o = pool.add(0.0, 0.0)
    up = pool.add(0.0, R)
    c = R / math.sqrt(3.0)
    sw = pool.add(-R, -c)
    se = pool.add(R, -c)
    tl = pool.add(-R, R)
    tr = pool.add(R, R)
    bl = pool.add(-R, -R)
    br = pool.add(R, -R)
    return pool, (
        Subdomain(1, ((o, up, tl, sw),)),        # top-left sector
        Subdomain(2, ((o, sw, bl, br, se),)),    # bottom sector
        Subdomain(3, ((o, se, tr, up),)),        # right sector
    )


def _split_annulus(pool: _VertexPool, island: List[int], y_bot: float, y_top: float,
                   R: float) -> Tuple[List[int], List[int], int, int]:
    """Split (rectangle [-R,R]x[y_bot,y_top]) minus island into two simple
    cells via vertical seams from the island's topmost vertex up and
    bottommost vertex down (ties go to the smaller x). Returns (left_loop,
    right_loop, bottom seam foot, top seam foot)."""
    xy = [pool.coords[v] for v in island]
    i_t = min(range(len(xy)), key=lambda i: (-xy[i][1], xy[i][0]))
    i_b = min(range(len(xy)), key=lambda i: (xy[i][1], xy[i][0]))
    foot_b = pool.add(xy[i_b][0], y_bot)
    foot_t = pool.add(xy[i_t][0], y_top)
    # the CCW island loop from the top T: T -> B is its left side, B -> T its right
    ring = island[i_t:] + island[:i_t]
    k = (i_b - i_t) % len(ring)
    left_chain = ring[:k + 1]
    right_chain = ring[k:] + ring[:1]
    bl = pool.add(-R, y_bot)
    tl = pool.add(-R, y_top)
    br = pool.add(R, y_bot)
    tr = pool.add(R, y_top)
    left_loop = [bl, foot_b] + list(reversed(left_chain)) + [foot_t, tl]
    # reversed(right_chain) runs T -> ... -> B; the loop closes B -> foot_b
    right_loop = [foot_b, br, tr, foot_t] + list(reversed(right_chain))
    return left_loop, right_loop, foot_b, foot_t


def _check_island_polygon(pts: np.ndarray, R: float, upper_half: bool) -> None:
    tol = 1e-9 * max(R, 1.0)
    if len(pts) < 3:
        raise ValueError("island polygon needs at least 3 vertices")
    y_min = 0.0 if upper_half else -R
    if not (np.all(pts[:, 0] > -R + tol) and np.all(pts[:, 0] < R - tol)
            and np.all(pts[:, 1] > y_min + tol) and np.all(pts[:, 1] < R - tol)):
        where = "upper half box" if upper_half else "box"
        raise ValueError(f"island polygon must lie strictly inside the {where}")
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            # a repeated vertex makes the loop touch itself or gives a
            # zero-length side; neither is a proper crossing
            if (math.dist(pts[i], pts[j]) < tol
                    or _segments_cross(pts[i], pts[(i + 1) % n], pts[j],
                                       pts[(j + 1) % n], tol * tol)):
                raise ValueError("island polygon is not simple")


def _as_ccw(pts: np.ndarray) -> np.ndarray:
    return pts[::-1] if _loop_area(pts, range(len(pts))) < 0 else pts


def _line_with_bump(R: float, bump: np.ndarray) -> _Cells:
    bump = _as_ccw(np.asarray(bump, dtype=float))
    _check_island_polygon(bump, R, upper_half=True)
    pool = _VertexPool(R)
    island = [pool.add(x, y) for x, y in bump]
    left_loop, right_loop, foot_b, _ = _split_annulus(pool, island, 0.0, R, R)
    bl = pool.add(-R, -R)
    br = pool.add(R, -R)
    r0 = pool.add(R, 0.0)
    l0 = pool.add(-R, 0.0)
    lower = [bl, br, r0, foot_b, l0]
    return pool, (
        Subdomain(1, (tuple(island),)),
        Subdomain(2, (tuple(left_loop), tuple(right_loop))),
        Subdomain(3, (tuple(lower),)),
    )


def _island_partition(R: float, poly: np.ndarray) -> _Cells:
    poly = _as_ccw(np.asarray(poly, dtype=float))
    _check_island_polygon(poly, R, upper_half=False)
    pool = _VertexPool(R)
    island = [pool.add(x, y) for x, y in poly]
    left_loop, right_loop, _, _ = _split_annulus(pool, island, -R, R, R)
    return pool, (
        Subdomain(1, (tuple(island),)),
        Subdomain(2, (tuple(left_loop), tuple(right_loop))),
    )


def _grid(R: float, rows: int, cols: int) -> _Cells:
    pool = _VertexPool(R)
    xs = [-R + 2 * R * j / cols for j in range(cols + 1)]
    ys = [-R + 2 * R * i / rows for i in range(rows + 1)]
    idx = {(i, j): pool.add(xs[j], ys[i]) for i in range(rows + 1) for j in range(cols + 1)}
    subs = []
    for i in range(rows):
        for j in range(cols):
            loop = (idx[(i, j)], idx[(i, j + 1)], idx[(i + 1, j + 1)], idx[(i + 1, j)])
            subs.append(Subdomain(i * cols + j + 1, (loop,)))
    return pool, tuple(subs)


def _grid_chi4(R: float) -> _Cells:
    """Four rectilinear cells tiling the box so every pair shares an edge
    (K4 adjacency, chromatic number 4)."""
    pool = _VertexPool(R)

    def pt(u, w):  # unit layout [0,4]x[0,3] mapped onto the box
        return pool.add(-R + u / 4.0 * 2 * R, -R + w / 3.0 * 2 * R)

    v0 = pt(0, 0)
    v1 = pt(4, 0)
    v2 = pt(4, 1)
    v3 = pt(2.5, 1)
    v4 = pt(1, 1)
    v5 = pt(1, 2)
    v6 = pt(0, 2)
    v7 = pt(2.5, 2)
    v8 = pt(4, 2)
    v9 = pt(4, 3)
    v10 = pt(0, 3)
    return pool, (
        Subdomain(1, ((v6, v5, v7, v8, v9, v10),)),       # top strip
        Subdomain(2, ((v4, v3, v7, v5),)),                # middle left cell
        Subdomain(3, ((v3, v2, v8, v7),)),                # middle right cell
        Subdomain(4, ((v0, v1, v2, v3, v4, v5, v6),)),    # bottom strip + left arm
    )


# ---------------------------------------------------------------------------
# checked reading of values from outside: config fields, overrides,
# geometry and test-function params, closed-form arguments.  A kind is a
# pair (predicate, what); every number kind also demands a finite value.
# ---------------------------------------------------------------------------

def _finite(v) -> bool:
    # compared, not converted: an int beyond the largest float is not finite
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def number(ok, what: str):
    """The kind of a finite number v for which ok(v) holds."""
    return (lambda v: _finite(v) and ok(v), what)


FINITE = (_finite, "a finite number")
POSITIVE = number(lambda v: v > 0, "strictly positive")
OPENING = number(lambda v: 0 < v <= math.pi, "in (0, pi]")   # a wedge angle
BOOL = (lambda v: isinstance(v, bool), "true or false")


def whole(least: int):
    return (lambda v: isinstance(v, numbers.Integral)
            and not isinstance(v, bool) and v >= least,
            f"a whole number >= {least}")


def array_of(kind):
    ok, what = kind
    return (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
            and all(map(ok, v)), f"a non-empty array, each item {what}")


def _is_points(v) -> bool:
    try:
        return all(len(pt) == 2 and all(map(_finite, pt)) for pt in v)
    except TypeError:
        return False


POINTS = (_is_points, "a list of finite [x, y] points")


def check(v, kind, label: str):
    """v, if it is of kind; else ValueError "<label> must be <what>, got
    <v!r>"."""
    ok, what = kind
    if not ok(v):
        raise ValueError(f"{label} must be {what}, got {v!r}")
    return v


def _param(params: dict, key: str, default, kind, label: str | None = None):
    """Pop params[key] (or default) and `check` it against kind, the label
    being "geometry parameter '<key>'" unless given."""
    return check(params.pop(key, default), kind,
                 label or f"geometry parameter {key!r}")


def build_canonical_partition(name: str, params: dict | None = None) -> Partition:
    params = dict(params or {})
    if name not in CANONICAL_NAMES:
        raise ValueError(f"unknown canonical partition {name!r}; "
                         f"expected one of {CANONICAL_NAMES}")
    R = float(_param(params, "box_radius", 8.0, POSITIVE))
    if name == "half_plane":
        pool, subs = _half_plane(R)
    elif name == "wedge":
        phi = float(_param(params, "phi", 2 * math.pi / 3, OPENING))
        pool, subs = _wedge(R, phi)
    elif name == "star3":
        pool, subs = _star3(R)
    elif name == "line_with_bump":
        default = [(-1.0, 1.0), (1.0, 1.0), (1.0, 3.0), (-1.0, 3.0)]
        pool, subs = _line_with_bump(R, _param(params, "bump", default, POINTS))
    elif name == "island":
        if "polygon" in params:
            poly = _param(params, "polygon", None, POINTS)
        else:
            r = float(_param(params, "radius", 3.0, POSITIVE))
            ngon = _param(params, "sides", 16, whole(3))
            ang = 2 * math.pi * np.arange(ngon) / ngon
            poly = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        pool, subs = _island_partition(R, poly)
    else:  # grid
        if _param(params, "variant", None,
                  (lambda v: v in (None, "chi4"), "'chi4'")) == "chi4":
            pool, subs = _grid_chi4(R)
        else:
            pool, subs = _grid(R, _param(params, "rows", 2, whole(1)),
                               _param(params, "cols", 2, whole(1)))
    if params:
        raise ValueError(f"unknown parameters {sorted(params)} for geometry {name!r}")
    v = pool.array()
    p = Partition(R, v, subs, _derive_interfaces(v, subs),
                  mirrored=name == "wedge")
    validate_partition(p)
    return p


# ---------------------------------------------------------------------------
# neighbour graph and colouring
# ---------------------------------------------------------------------------

def adjacency_graph(p: Partition) -> Graph:
    nodes = tuple(sorted(s.id for s in p.subdomains))
    return Graph(nodes, tuple((i.k, i.l) for i in p.interfaces))


MAX_EXACT_VERTICES = 24


def chromatic_colouring(g: Graph) -> Colouring:
    n = len(g.nodes)
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"exact colouring limited to {MAX_EXACT_VERTICES} vertices, got {n}")
    order = list(g.nodes)
    pos = {v: i for i, v in enumerate(order)}
    adj = [set() for _ in range(n)]
    for a, b in g.edges:
        adj[pos[a]].add(pos[b])
        adj[pos[b]].add(pos[a])
    # the first m with a colouring is chi (at least 1, also with no nodes);
    # m = max(n, 1) always has one
    m = max(1, _clique_number(set(range(n)), adj))
    while (assign := _try_colour(n, adj, m)) is None:
        m += 1
    return Colouring(m, {order[i]: assign[i] for i in range(n)})


def _clique_number(cand: set, adj: List[set]) -> int:
    """Size of a largest clique within cand (exhaustive; n <= 24)."""
    best = 0
    for v in list(cand):
        best = max(best, 1 + _clique_number(cand & adj[v], adj))
        cand = cand - {v}
        if len(cand) <= best:
            break
    return best


def _try_colour(n: int, adj: List[set], m: int) -> List[int] | None:
    """First (hence lexicographically smallest) proper m-colouring by DFS in
    vertex order with ascending colours, or None after exhaustive failure."""
    colours = [-1] * n

    def dfs(v: int) -> bool:
        if v == n:
            return True
        used = {colours[u] for u in adj[v] if colours[u] >= 0}
        # symmetry pruning: never introduce colour c before colours < c exist
        cap = min(m, max(colours[:v], default=-1) + 2)
        for c in range(cap):
            if c in used:
                continue
            colours[v] = c
            if dfs(v + 1):
                return True
            colours[v] = -1
        return False

    return colours[:] if dfs(0) else None


def edge_constant(chi: int) -> float:
    """Largest squared gap between adjacent unit phases, 4*sin^2(pi/chi)."""
    check(chi, whole(2), "chi")
    s = math.sin(math.pi / chi)
    return 4.0 * s * s


_EXACT_PHASES = {0.0: 1 + 0j, 0.5: 1j, 1.0: -1 + 0j, 1.5: -1j}


def phase_assignment(p: Partition, c: Colouring, d: InteractionData) -> PhaseAssignment:
    for itf in p.interfaces:
        if c.phi[itf.k] == c.phi[itf.l]:
            raise ValueError(f"colouring not proper on edge {(itf.k, itf.l)}")
    z: Dict[int, complex] = {}
    for sid in p.subdomain_ids():
        frac = 2.0 * c.phi[sid] / c.chi   # phase angle in units of pi
        zk = _EXACT_PHASES.get(frac % 2.0)
        if zk is None:
            zk = cmath.exp(2j * math.pi * c.phi[sid] / c.chi)
        z[sid] = zk
    alpha_z: Dict[int, float] = {}
    floor = edge_constant(c.chi)
    for itf in p.interfaces:
        gap = abs(z[itf.k] - z[itf.l]) ** 2
        alpha_z[itf.id] = gap / d.beta[itf.id]
        if gap < floor - 1e-12:
            raise AssertionError(
                f"phase gap {gap} below edge constant {floor} on interface {itf.id}")
    return PhaseAssignment(z, alpha_z)
