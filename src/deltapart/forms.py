"""Discrete quadratic forms: the continuous-space form with attractive
boundary terms on interfaces, the broken-space form with trace-jump
coupling, the phase unitary, Rayleigh quotients, and the wedge test
function."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .geometry import FINITE, POSITIVE, InteractionData, PhaseAssignment, check
from .mesh import Mesh, _whole_box, midpoint_parents, triangulate

__all__ = [
    "DiscreteForm",
    "assemble_delta",
    "assemble_delta_prime",
    "assemble_subdomain_robin",
    "coarse_form",
    "embed_continuous",
    "apply_unitary",
    "rayleigh",
    "sample_test_function",
    "indicator_vector",
    "indicator_form_value",
    "bump",
    "bump_prime",
    "BUMP_L2SQ",
    "BUMP_GRAD_L2SQ",
]

# cutoff profile: 1 on [0,1], cubic smoothstep down to 0 on [1,2]
BUMP_L2SQ = 96.0 / 35.0       # L2 norm squared of bump over the real line
BUMP_GRAD_L2SQ = 12.0 / 5.0   # same for its derivative


def bump(s):
    s = np.abs(np.asarray(s, dtype=float))
    u = np.clip(s - 1.0, 0.0, 1.0)
    return np.where(s >= 2.0, 0.0, 1.0 - (3.0 * u * u - 2.0 * u ** 3))


def bump_prime(s):
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    u = np.clip(a - 1.0, 0.0, 1.0)
    mag = np.where(a >= 2.0, 0.0, -(6.0 * u - 6.0 * u * u))
    return np.sign(s) * mag


@dataclass(frozen=True)
class DiscreteForm:
    A: sp.csr_matrix
    M: sp.csr_matrix
    space: str                       # "continuous" | "broken"
    bc: str                          # "dirichlet" | "neumann"
    mesh: Mesh
    interaction: InteractionData | None
    dof_node: np.ndarray             # node index per (reduced) dof
    dof_subdomain: np.ndarray        # subdomain id per dof (0 for continuous)
    full_to_red: np.ndarray          # full dof index -> reduced index or -1
    # certified lower bound on lambda_min(A, M) (Fried 1972): A and M are
    # the sums of the element patches (A_P, M_P) of _patch_bound and of the
    # triangles in no patch, whose stiffness is psd, so every term of
    # A - lb M is psd for lb = min(0, min_P lambda_min(A_P, M_P)); the
    # Dirichlet reduction only restricts the pencil
    coercivity_bound: float = 0.0

    @property
    def n_dofs(self) -> int:
        return self.A.shape[0]


def _local_keys(dofs: np.ndarray, n: int) -> np.ndarray:
    """Keys row*n + col of one dense local matrix per row of dofs, local
    matrix by local matrix, each in row-major (i, j) order."""
    return (dofs[:, :, None] * n + dofs[:, None, :]).reshape(-1)


def _csr_from_runs(key, vals, n):
    """n x n CSR of the sums of vals over the runs of the sorted keys
    row*(n + 1) + col; runs in row n or column n are dropped.  Each run is
    summed in the order given, so the (i, j) and (j, i) runs of symmetric
    local matrices sum to bitwise-equal values (Davis 2006, ch. 2)."""
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    sums = np.add.reduceat(vals, first)
    row, col = np.divmod(key[first], n + 1)
    kept = (row < n) & (col < n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[kept], minlength=n), out=indptr[1:])
    return sp.csr_matrix((sums[kept], col[kept].astype(np.int32), indptr),
                         shape=(n, n))


# P1 edge mass of an edge (a, b) is length/6 * _EDGE_MASS; the trace jump
# (a_k - a_l, b_k - b_l) of the broken dofs (a_k, b_k, a_l, b_l) turns it
# into length/6 * _JUMP_MASS
_EDGE_MASS = np.array([[2.0, 1.0], [1.0, 2.0]])
_JUMP_MASS = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]), _EDGE_MASS)


def _edge_weights(m: Mesh, strength: Dict[int, float]) -> np.ndarray:
    """Per-interface-edge value of an interface id -> strength map."""
    ids, inv = np.unique(m.iface_edge_id, return_inverse=True)
    for iid in ids:
        if int(iid) not in strength:
            raise KeyError(f"interface id {int(iid)} missing from InteractionData")
    return np.array([strength[int(iid)] for iid in ids], dtype=float)[inv]


def _edge_coupling(dofs, weight, length, pattern):
    """Per-edge dofs and local matrices -weight * length/6 * pattern, edge
    by edge; edges of zero weight are dropped."""
    keep = weight != 0.0
    t = -weight[keep] * (length[keep] / 6.0)
    return dofs[keep], t[:, None, None] * pattern


def jump_coupling(m: Mesh, beta: Dict[int, float], table):
    """Broken dofs (a_k, b_k, a_l, b_l), from the dof table of
    `broken_dof_layout`, and local matrices of the beta-inverse-weighted
    edge mass of the trace jump, per interface edge."""
    kl, ab = m.iface_edge_kl, m.iface_edge_nodes
    dofs = table[kl[:, [0, 0, 1, 1]], ab[:, [0, 1, 0, 1]]]
    return _edge_coupling(dofs, 1.0 / _edge_weights(m, beta),
                          m.iface_edge_length, _JUMP_MASS)


def _patch_bound(n, tri_dofs, stiff, mass, edge_dofs, edge_local) -> float:
    """min(0, min_P lambda_min(A_P, M_P)) over the element patches of the
    interface-edge couplings (see DiscreteForm.coercivity_bound).  The
    patch of edge e holds its coupling C_e and, for each dof pair (a, b)
    of the edge, the triangles with side {a, b}; a triangle in c patches
    lends 1/c of its stiffness and mass to each."""
    n_e, r = edge_dofs.shape
    if n_e == 0:
        return 0.0
    # triangles with two edge dofs, their sides keyed by sorted dof pair
    on_edge = np.zeros(n, dtype=bool)
    on_edge[edge_dofs] = True
    cand = np.flatnonzero(on_edge[tri_dofs].sum(axis=1) >= 2)
    sides = np.sort(tri_dofs[cand][:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    side_key = sides[:, 0] * n + sides[:, 1]
    order = np.argsort(side_key, kind="stable")
    side_key = side_key[order]
    pairs = np.sort(edge_dofs.reshape(n_e, r // 2, 2), axis=2)
    pair_key = pairs[..., 0] * n + pairs[..., 1]
    lo = np.searchsorted(side_key, pair_key, "left")
    count = np.searchsorted(side_key, pair_key, "right") - lo
    if np.any(count == 0):
        raise ValueError("interface edge lies on no triangle")
    # fixed slots per pair; a pair on fewer triangles repeats its first,
    # which only moves more of that triangle's share into the patch
    slot = np.minimum(np.arange(count.max()), count[..., None] - 1)
    tri = cand[order[lo[..., None] + slot] // 3].reshape(n_e, -1)
    share = 1.0 / np.bincount(tri.ravel(), minlength=tri_dofs.shape[0])[tri]
    # patch matrices on the stacked dofs of the patch triangles, each dof
    # at its first slot; the other slots get mass 1 and add only the
    # eigenvalue 0, which the bound caps anyway
    s = 3 * tri.shape[1]
    dofs = tri_dofs[tri].reshape(n_e, s)
    first = np.argmax(dofs[:, :, None] == dofs[:, None, :], axis=2)

    def lift(local, at):
        P = (at[:, :, None] == np.arange(s)).astype(float)
        return P.transpose(0, 2, 1) @ local @ P

    K = lift(edge_local, np.argmax(dofs[:, None, :] == edge_dofs[:, :, None], axis=2))
    W = np.zeros((n_e, s, s))
    for j in range(tri.shape[1]):
        at = first[:, 3 * j:3 * j + 3]
        w = share[:, j, None, None]
        K += lift(w * stiff[tri[:, j]].reshape(-1, 3, 3), at)
        W += lift(w * mass[tri[:, j]].reshape(-1, 3, 3), at)
    W[:, np.arange(s), np.arange(s)] += first != np.arange(s)
    Linv = np.linalg.inv(np.linalg.cholesky(W))
    lam = np.linalg.eigvalsh(Linv @ K @ Linv.transpose(0, 2, 1))[:, 0]
    return min(0.0, float(lam.min()))


def _assemble(m: Mesh, bc: str, space: str, interaction, tris, tri_dofs,
              edge_dofs, edge_local, dof_node, dof_subdomain) -> DiscreteForm:
    """The form of the P1 stiffness of the triangles tris (on dofs tri_dofs)
    plus the edge coupling, the P1 mass and the coupling bound, without the
    dofs on outer-boundary nodes under the Dirichlet condition."""
    if bc not in ("dirichlet", "neumann"):
        raise ValueError(f"boundary policy must be dirichlet or neumann, got {bc!r}")
    _whole_box(m, "assembling a form")
    n = dof_node.size
    stiff, mass, _ = _kernels.p1_elements(np.ascontiguousarray(m.nodes),
                                          np.ascontiguousarray(tris))
    bound = _patch_bound(n, tri_dofs, stiff, mass, edge_dofs, edge_local)
    outer = np.zeros(m.n_nodes, dtype=bool)
    if bc == "dirichlet":
        outer[m.outer_boundary_nodes] = True
    keep = np.flatnonzero(~outer[dof_node])
    full_to_red = np.full(n, -1, dtype=np.int64)
    full_to_red[keep] = np.arange(keep.size)
    # one stable sort of the entry keys, element entries then coupling
    # entries in emission order, serves A and, restricted to the element
    # entries, M; removed dofs become row and column nk, dropped once
    # summed.  Each value stream is gathered into sorted order and its
    # source freed at once, since these transients, not A and M, set the
    # peak memory of an assembly.
    nk = keep.size
    red = np.where(full_to_red >= 0, full_to_red, nk)
    key = np.concatenate([_local_keys(red[tri_dofs], nk + 1),
                          _local_keys(red[edge_dofs], nk + 1)])
    order = np.argsort(key, kind="stable")
    key = key[order]
    elem = order < stiff.size
    vals = np.concatenate([stiff.ravel(), edge_local.ravel()])[order]
    del stiff
    mass = mass.ravel()[order[elem]]
    del order
    A = _csr_from_runs(key, vals, nk)
    del vals
    M = _csr_from_runs(key[elem], mass, nk)
    return DiscreteForm(A, M, space, bc, m, interaction, dof_node[keep],
                        dof_subdomain[keep], full_to_red, bound)


def assemble_delta(m: Mesh, d: InteractionData, bc: str = "dirichlet") -> DiscreteForm:
    """Continuous P1 form: stiffness minus alpha-weighted edge mass on the
    interfaces, with the exact P1 edge and element mass matrices."""
    jd, jl = _edge_coupling(m.iface_edge_nodes, _edge_weights(m, d.alpha),
                            m.iface_edge_length, _EDGE_MASS)
    return _assemble(m, bc, "continuous", d, m.triangles, m.triangles, jd, jl,
                     np.arange(m.n_nodes), np.zeros(m.n_nodes, dtype=np.int64))


def broken_dof_layout(m: Mesh):
    """Full broken layout: dofs blocked by subdomain id, nodes sorted within
    (the (subdomain, node) pairs of the triangles, marked and read back in
    row-major order, which is np.unique per subdomain in linear time).

    Returns (dof_node, dof_subdomain, table) where table[sid, node] is the
    dof of node in subdomain sid, or -1; it has a row for every id from 0
    to the largest.  A negative id raises ValueError."""
    on = np.zeros((m.subdomain_ids()[-1] + 1, m.n_nodes), dtype=bool)
    on[m.tri_subdomain[:, None], m.triangles] = True
    dof_subdomain, dof_node = np.nonzero(on)
    table = np.full(on.shape, -1, dtype=np.int64)
    table[on] = np.arange(dof_node.size)
    return dof_node, dof_subdomain, table


def assemble_delta_prime(m: Mesh, d: InteractionData, bc: str = "dirichlet") -> DiscreteForm:
    """Broken P1 form: per-subdomain stiffness blocks minus the
    beta-inverse-weighted edge mass of the trace jump across interfaces."""
    dof_node, dof_sub, table = broken_dof_layout(m)
    jd, jl = jump_coupling(m, d.beta, table)
    tri_dofs = table[m.tri_subdomain[:, None], m.triangles]
    return _assemble(m, bc, "broken", d, m.triangles, tri_dofs, jd, jl,
                     dof_node, dof_sub)


def assemble_subdomain_robin(m: Mesh, k: int, gamma: float,
                             bc: str = "dirichlet") -> DiscreteForm:
    """Single-subdomain form: stiffness on subdomain k minus gamma times the
    edge mass of its interface edges (the attractive boundary term of the
    wedge trace estimates)."""
    mask = m.tri_subdomain == k
    if not np.any(mask):
        raise ValueError(f"no triangles in subdomain {k}")
    tris = m.triangles[mask]
    on = np.zeros(m.n_nodes, dtype=bool)
    on[tris] = True
    nodes = np.flatnonzero(on)
    lut = np.full(m.n_nodes, -1, dtype=np.int64)
    lut[nodes] = np.arange(nodes.size)
    on_k = np.any(m.iface_edge_kl == k, axis=1)
    jd, jl = _edge_coupling(lut[m.iface_edge_nodes[on_k]],
                            np.full(int(on_k.sum()), float(gamma)),
                            m.iface_edge_length[on_k], _EDGE_MASS)
    return _assemble(m, bc, "continuous", None, tris, lut[tris], jd, jl,
                     nodes, np.full(nodes.size, k, dtype=np.int64))


def coarse_form(df: DiscreteForm):
    """The form assembled on the partition of df's mesh triangulated two
    levels coarser, with the same assembler, interaction and boundary
    policy, and the prolongation P (sparse, df.n_dofs x coarse n_dofs) of
    its reduced dofs onto df's.

    P interpolates the coarse P1 function at the fine nodes (a midpoint
    takes the mean of its `mesh.midpoint_parents`, per subdomain on broken
    dofs); coarse dofs removed by the Dirichlet condition contribute 0.  By
    Galerkin nesting the coarse eigenvalues bound the fine ones from above.
    Two levels, not one or three, gave the fastest warm-started solves."""
    if df.interaction is None or df.mesh.partition is None:
        raise ValueError("coarse forms need an assembled delta or delta' form "
                         "on a triangulated mesh")
    P = None
    for coarser in (1, 2):
        m = triangulate(df.mesh.partition, df.mesh.refinement_level - coarser)
        parents = midpoint_parents(m)
        n = m.n_nodes
        mids = np.arange(n, n + parents.shape[0])
        step = sp.csr_matrix(
            (np.concatenate([np.ones(n), np.full(2 * mids.size, 0.5)]),
             (np.concatenate([np.arange(n), np.repeat(mids, 2)]),
              np.concatenate([np.arange(n), parents.ravel()]))),
            shape=(n + mids.size, n))
        P = step if P is None else P @ step
    assembler = assemble_delta if df.space == "continuous" else assemble_delta_prime
    cf = assembler(m, df.interaction, df.bc)
    # nodal weights per fine dof, kept on the coarse dofs of the same node
    # in the same subdomain (none when the Dirichlet condition removed it)
    Pn = P[df.dof_node][:, cf.dof_node].tocoo()
    same = df.dof_subdomain[Pn.row] == cf.dof_subdomain[Pn.col]
    prolong = sp.csr_matrix((Pn.data[same], (Pn.row[same], Pn.col[same])),
                            shape=(df.n_dofs, cf.n_dofs))
    return cf, prolong


def embed_continuous(bf: DiscreteForm, f: np.ndarray) -> np.ndarray:
    """Copy a continuous vector (same mesh, same boundary policy) into the
    broken space: every duplicated dof receives the nodal value."""
    if bf.space != "broken":
        raise ValueError("embedding target must be a broken form")
    f = np.asarray(f)
    nodal = np.zeros(bf.mesh.n_nodes, dtype=f.dtype)
    if bf.bc == "dirichlet":
        keep_nodes = np.setdiff1d(np.arange(bf.mesh.n_nodes), bf.mesh.outer_boundary_nodes)
    else:
        keep_nodes = np.arange(bf.mesh.n_nodes)
    if f.shape[0] != keep_nodes.size:
        raise ValueError(f"continuous vector has {f.shape[0]} entries, "
                         f"expected {keep_nodes.size} (mesh mismatch)")
    nodal[keep_nodes] = f
    return nodal[bf.dof_node]


def apply_unitary(ph: PhaseAssignment, bf: DiscreteForm, f: np.ndarray) -> np.ndarray:
    if bf.space != "broken":
        raise ValueError("the phase unitary acts on broken vectors")
    # one phase per subdomain id, looked up by the dofs' ids
    sids = bf.mesh.subdomain_ids()
    table = np.zeros(sids[-1] + 1, dtype=complex)
    table[sids] = [ph.z[int(s)] for s in sids]
    return np.asarray(f, dtype=complex) * table[bf.dof_subdomain]


def form_value(df: DiscreteForm, f: np.ndarray) -> float:
    f = np.asarray(f)
    return float(np.real(np.vdot(f, df.A @ f)))


def rayleigh(df: DiscreteForm, f: np.ndarray) -> float:
    f = np.asarray(f)
    denom = float(np.real(np.vdot(f, df.M @ f)))
    if denom <= 0.0:
        raise ValueError("vector vanishes in the mass norm")
    return float(np.real(np.vdot(f, df.A @ f))) / denom


def sample_test_function(m: Mesh, dof_node: np.ndarray,
                         dof_subdomain: np.ndarray, *, n, beta, center,
                         p=0.0, angle=0.0) -> np.ndarray:
    """The wedge test function psi_n as a full broken complex vector on the
    broken dof layout (dof_node, dof_subdomain).  It is evaluated only on
    its support: in coordinates (xr, yr) turned by angle, the dofs with
    sx = |xr - center| / n < 2 and sy = |yr| / n < 2, the same test as
    `bump`'s s >= 2 cut.  Every other entry is +0.  The sign is +1 where
    yr > 0 and on the ray's subdomain-1 dofs, -1 elsewhere; the support
    must lie on the ray from 0 to the box radius.

    n <= 0, beta <= 0 or a number that is not finite raises ValueError
    naming the argument."""
    R = m.box_radius
    n = float(check(n, POSITIVE, "n"))
    p = float(check(p, FINITE, "p"))
    beta = float(check(beta, POSITIVE, "beta"))
    center = float(check(center, FINITE, "center"))
    angle = float(check(angle, FINITE, "angle"))
    if center - 2.0 * n < 0.0 or center + 2.0 * n > R:
        raise ValueError("cutoff support exceeds the interface ray")
    ct, st = np.cos(angle), np.sin(angle)
    nx = m.nodes[dof_node]
    xr = nx[:, 0] * ct + nx[:, 1] * st
    yr = -nx[:, 0] * st + nx[:, 1] * ct
    sx = np.abs(xr - center) / n
    sy = np.abs(yr) / n
    on = np.flatnonzero((sx < 2.0) & (sy < 2.0))
    xr, yr = xr[on], yr[on]
    tol = 1e-12 * max(R, 1.0)
    sign = np.where(yr > tol, 1.0, np.where(yr < -tol, -1.0,
                    np.where(dof_subdomain[on] == 1, 1.0, -1.0)))
    vals = np.zeros(sx.size, dtype=complex)
    vals[on] = (1.0 / np.sqrt(n)) * bump(sx[on]) * bump(sy[on]) \
        * sign * np.exp(-2.0 * np.abs(yr) / beta) * np.exp(1j * p * xr)
    return vals


def indicator_vector(bf: DiscreteForm, k: int) -> np.ndarray:
    if bf.bc != "neumann":
        raise ValueError("the subdomain indicator is only admissible with neumann policy")
    return (bf.dof_subdomain == k).astype(float)


def indicator_form_value(bf: DiscreteForm, k: int) -> float:
    """Exact form value of the indicator of subdomain k: minus the
    beta-inverse-weighted total length of its interfaces."""
    if bf.bc != "neumann":
        raise ValueError("the subdomain indicator is only admissible with neumann policy")
    if bf.space != "broken" or bf.interaction is None:
        raise ValueError("indicator values are defined for assembled broken forms")
    m = bf.mesh
    touch = np.any(m.iface_edge_kl == k, axis=1)
    beta = _edge_weights(m, bf.interaction.beta)
    return -float(np.sum(m.iface_edge_length[touch] / beta[touch]))


def export_matrix(a: sp.spmatrix) -> str:
    """Coordinate text dump "i j value" (1-based, sorted by row then column)."""
    coo = a.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{i} {j} {v!r}" for i, j, v in
             zip((coo.row[order] + 1).tolist(), (coo.col[order] + 1).tolist(),
                 coo.data[order].astype(float).tolist())]
    return "\n".join(lines) + "\n"
