"""Named verification runs. Each run builds its own geometry and mesh,
computes spectral or form quantities, and returns an ExperimentReport whose
assertions carry explicit tolerances and margins."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import _kernels, closedform, eigen, forms, geometry, mesh
from .geometry import OPENING, POINTS, POSITIVE, array_of, check, whole

__all__ = [
    "Assertion",
    "ExperimentReport",
    "jsonable",
    "run_ordering",
    "run_unitary_identity",
    "run_star_bounds",
    "run_threshold_convergence",
    "run_deformation_bound_state",
    "run_indicator_bound_state",
    "run_sharpness_chi2",
    "EXPERIMENTS",
]


@dataclass(frozen=True)
class Assertion:
    name: str
    computed: float
    reference: float
    tolerance: float
    margin: float      # how far inside the tolerance the computed value sits
    passed: bool
    note: str = ""


@dataclass
class ExperimentReport:
    name: str
    quantities: Dict = field(default_factory=dict)
    assertions: List[Assertion] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check_le(self, name, computed, reference, tolerance, note=""):
        """Assert computed <= reference + tolerance."""
        c, r, t = map(float, (computed, reference, tolerance))
        self._record(name, c, r, t, r + t - c, note)

    def check_abs(self, name, computed, reference, tolerance, note=""):
        """Assert |computed - reference| <= tolerance."""
        c, r, t = map(float, (computed, reference, tolerance))
        self._record(name, c, r, t, t - abs(c - r), note)

    def _record(self, name, computed, reference, tolerance, margin, note):
        self.assertions.append(Assertion(name, computed, reference, tolerance,
                                         margin, margin >= 0.0, note))

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "quantities": jsonable(self.quantities),
            "assertions": [asdict(a) for a in self.assertions],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"experiment: {self.name}"]
        for k in sorted(self.quantities):
            lines.append(f"  {k} = {self.quantities[k]!r}")
        if self.assertions:
            w = max(len(a.name) for a in self.assertions)
            for a in self.assertions:
                status = "PASS" if a.passed else "FAIL"
                lines.append(
                    f"  {a.name.ljust(w)}  computed={a.computed:+.12e}  "
                    f"reference={a.reference:+.12e}  tol={a.tolerance:.1e}  "
                    f"margin={a.margin:+.3e}  {status}"
                    + (f"  ({a.note})" if a.note else ""))
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def jsonable(x):
    """x with numpy scalars and arrays, tuples, complex numbers and
    non-string dict keys turned into their JSON counterparts."""
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def _solve(df: forms.DiscreteForm, k: int, tol: float, seed: int,
           bottom: float | None = None):
    r = eigen.lowest_form_eigenpairs(df, k, tol=tol, seed=seed, bottom=bottom)
    if not r.converged:
        raise RuntimeError(
            f"eigensolver did not converge (method {r.method}, "
            f"residuals up to {float(np.max(r.residuals)):.2e})")
    return r


# ---------------------------------------------------------------------------
# eigenvalue ordering between the two operators
# ---------------------------------------------------------------------------

def run_ordering(geometry_name: str = "star3", geometry_params: Optional[dict] = None,
                 alpha: float = 1.0, beta: float = 3.0, k: int = 10,
                 box_radius: float = 6.0, levels: int = 6, tol: float = 1e-8,
                 seed: int = 0) -> ExperimentReport:
    """Broken-space eigenvalues never exceed the continuous ones, level by
    level, whenever beta <= edge_constant(chi)/alpha.  For alpha <= 0 there
    is no limit (beta_limit None): a continuous vector has no jumps, so its
    delta' form is the stiffness, and its delta form adds -alpha times a
    psd edge mass; min-max gives the ordering for every beta."""
    rep = ExperimentReport("ordering")
    p, m = mesh.canonical_mesh(geometry_name, geometry_params, box_radius, levels)
    d = geometry.InteractionData.uniform(p, alpha, beta)
    col = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    limit = geometry.edge_constant(col.chi) / alpha if alpha > 0 else None
    hypothesis_ok = limit is None or beta <= limit + 1e-12
    df = forms.assemble_delta(m, d, "dirichlet")
    bf = forms.assemble_delta_prime(m, d, "dirichlet")
    rd = _solve(df, k, tol, seed, closedform.spectral_bottom(
        geometry_name, "delta", "dirichlet", alpha, beta))
    rb = _solve(bf, k, tol, seed, closedform.spectral_bottom(
        geometry_name, "delta-prime", "dirichlet", alpha, beta))
    rep.quantities.update({
        "chi": col.chi, "beta_limit": limit, "hypothesis_ok": hypothesis_ok,
        "dofs_continuous": df.n_dofs, "dofs_broken": bf.n_dofs,
        "eigenvalues_delta": rd.eigenvalues, "eigenvalues_delta_prime": rb.eigenvalues,
    })
    if hypothesis_ok:
        for j in range(k):
            lam = rd.eigenvalues[j]
            rep.check_le(f"lambda_{j + 1}(delta_prime) <= lambda_{j + 1}(delta)",
                         rb.eigenvalues[j], lam, 1e-10 * max(1.0, abs(lam)))
    else:
        rep.quantities["note"] = "hypothesis violated - informational only"
    return rep


# ---------------------------------------------------------------------------
# phase-unitary quadratic form identity
# ---------------------------------------------------------------------------

def run_unitary_identity(geometry_name: str = "half_plane",
                         geometry_params: Optional[dict] = None, beta: float = 4.0,
                         trials: int = 100, box_radius: float = 4.0, levels: int = 3,
                         seed: int = 0) -> ExperimentReport:
    """The phase multiplication maps the broken form with jump weight 1/beta
    onto the continuous form with the induced strength, exactly."""
    rep = ExperimentReport("unitary_identity")
    check(trials, whole(1), "trials")
    p, m = mesh.canonical_mesh(geometry_name, geometry_params, box_radius, levels)
    d = geometry.InteractionData.uniform(p, 0.0, beta)
    col = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    ph = geometry.phase_assignment(p, col, d)
    dz = geometry.InteractionData(alpha=dict(ph.alpha_z), beta=dict(d.beta))
    df = forms.assemble_delta(m, dz, "dirichlet")
    bf = forms.assemble_delta_prime(m, d, "dirichlet")
    rng = np.random.default_rng(seed)
    worst = 0.0
    norm_dev = 0.0
    for _ in range(trials):
        f = rng.standard_normal(df.n_dofs)
        u = forms.apply_unitary(ph, bf, forms.embed_continuous(df, bf, f))
        a_b = forms.form_value(bf, u)
        a_c = forms.form_value(df, f)
        mn_c = float(f @ (df.M @ f))
        scale = max(1.0, abs(a_c), mn_c)
        worst = max(worst, abs(a_b - a_c) / scale)
        mn_b = float(np.real(np.vdot(u, bf.M @ u)))
        norm_dev = max(norm_dev, abs(mn_b - mn_c) / max(1.0, mn_c))
    rep.quantities.update({"chi": col.chi, "alpha_z": ph.alpha_z,
                           "max_relative_deviation": worst,
                           "max_mass_norm_deviation": norm_dev})
    rep.check_le("form identity deviation", worst, 0.0, 1e-11)
    rep.check_le("unitarity of phase map", norm_dev, 0.0, 1e-11)
    return rep


# ---------------------------------------------------------------------------
# three-ray star: certified spectral bottoms
# ---------------------------------------------------------------------------

def run_star_bounds(alpha: float = 1.0, beta: float = 1.0,
                    box_radii=(8.0, 12.0, 16.0), levels_list=(5, 5, 6),
                    tol: float = 1e-8, seed: int = 0) -> ExperimentReport:
    rep = ExperimentReport("star_bounds")
    check(box_radii, array_of(POSITIVE), "box_radii")
    check(levels_list, (lambda v: len(v) == len(box_radii),
                        "an array with one entry per box radius "
                        f"({len(box_radii)})"),
          "levels_list")
    bottom_delta = closedform.star_delta_bottom(alpha)
    c_star_derived = math.sqrt(3.0 * closedform.STAR_MINIMAX)
    certified_dp = closedform.spectral_bottom("star3", "delta-prime",
                                              "dirichlet", alpha, beta)
    printed_dp = -closedform.PRINTED_MINIMAX_VALUE / beta ** 2
    lams_d, lams_b = [], []
    for R, L in zip(box_radii, levels_list):
        p, m = mesh.canonical_mesh("star3", None, float(R), int(L))
        d = geometry.InteractionData.uniform(p, alpha, beta)
        df = forms.assemble_delta(m, d, "dirichlet")
        bf = forms.assemble_delta_prime(m, d, "dirichlet")
        lam_d = float(_solve(df, 1, tol, seed).eigenvalues[0])
        lam_b = float(_solve(bf, 1, tol, seed).eigenvalues[0])
        lams_d.append(lam_d)
        lams_b.append(lam_b)
        rep.check_le(f"R={R}: -lambda_1(delta) <= alpha^2/3", -lam_d,
                     -bottom_delta, 1e-9, "certified one-sided bound")
        rep.check_le(f"R={R}: -lambda_1(delta_prime) <= minimax/beta^2", -lam_b,
                     -certified_dp, 1e-9, "certified, derived constant")
    gaps = [lam - bottom_delta for lam in lams_d]
    rep.quantities.update({
        "bottom_delta": bottom_delta, "certified_bottom_delta_prime": certified_dp,
        "printed_bottom_delta_prime": printed_dp,
        "lambda1_delta": lams_d, "lambda1_delta_prime": lams_b,
        "gaps_delta": gaps,
        "delta_prime_above_printed_bound": [lam >= printed_dp for lam in lams_b],
        "beta_exceeds_c_star_derived_over_alpha": beta > c_star_derived / alpha,
        "beta_exceeds_c_star_printed_over_alpha": beta > closedform.PRINTED_C_STAR / alpha,
    })
    for i in range(1, len(gaps)):
        rep.check_le(f"gap monotone: step {i}", gaps[i], gaps[i - 1], 1e-9)
    rep.check_le("final gap to -alpha^2/3", gaps[-1], 0.0, 0.06)
    return rep


# ---------------------------------------------------------------------------
# essential-spectrum thresholds on growing boxes
# ---------------------------------------------------------------------------

_BLOCK = 32768


def _broken_rayleigh_local(m: mesh.Mesh, table, jump, f: np.ndarray) -> float:
    """Broken-form Rayleigh quotient of a full broken vector, assembled only
    over elements meeting the support of f (identical to the value on the
    fully assembled Neumann form).  table is the dof table of
    `forms.broken_dof_layout` and jump the (dofs, local matrices) of
    `forms.jump_coupling`; neither depends on f, so a caller with several
    vectors builds them once.  Broken dofs are looked up only for the
    triangles with a vertex that carries a nonzero entry in some subdomain,
    in ascending order, and their energies summed from gradients and areas
    (`_kernels.p1_energies`), with no element matrices; a triangle with no
    nonzero entry among its own dofs adds zero.  The candidates are taken
    _BLOCK at a time, so the dof gather never holds more than one block.
    The jump term is one vH J v per interface coupling with a nonzero
    entry, added by `np.sum` (pairwise), so its rounding stays near one
    ulp of the sum and the zero couplings of a larger mesh change no bit."""
    nz = np.abs(f) > 0.0
    marked = ((table >= 0) & nz[table]).any(axis=0)
    tris = m.triangles
    cand = np.flatnonzero(marked[tris[:, 0]] | marked[tris[:, 1]] | marked[tris[:, 2]])
    num = den = 0.0
    for b in range(0, cand.size, _BLOCK):
        c = cand[b:b + _BLOCK]
        tri_dofs = table[m.tri_subdomain[c, None], tris[c]]
        s, mm = _kernels.p1_energies(m.nodes, tris[c], f[tri_dofs])
        num, den = num + s, den + mm
    jd, jl = jump
    on = nz[jd].any(axis=1)
    vj = f[jd[on]]
    terms = np.einsum("qi,qij,qj->q", np.conj(vj), jl[on], vj)
    num += float(np.sum(np.real(terms)))
    if den <= 0.0:
        raise ValueError("test function vanishes on the mesh")
    return num / den


def _wedge_window(wedge_phi: float, n_list):
    """The angle of the wedge's interface ray and the bounding rectangle of
    the supports |xr - c| <= 2n, |yr| <= 2n (c = 2n + 4) of its test
    functions: the only triangles that `_wedge_quotients` reads meet it."""
    reach = 2.0 * max(n_list)
    return np.pi / 2.0 - wedge_phi / 2.0, (4.0, 2.0 * reach + 4.0, -reach, reach)


def _wedge_quotients(p, m: mesh.Mesh, beta: float, momentum: float, n_list,
                     angle: float) -> List[float]:
    """Broken-form Rayleigh quotients of the wedge test functions psi_n,
    centred at 2n + 4 on the interface ray at angle, one per n."""
    d = geometry.InteractionData.uniform(p, 0.0, beta)
    layout = forms.broken_dof_layout(m)
    jump = forms.jump_coupling(m, d.beta, layout[2])
    quotients = []
    for n in n_list:
        psi = forms.sample_test_function(
            m, layout[0], layout[1], n=n, p=momentum, beta=beta,
            center=2.0 * n + 4.0, angle=angle)
        quotients.append(_broken_rayleigh_local(m, layout[2], jump, psi))
    return quotients


def run_threshold_convergence(geometry_name: str = "half_plane",
                              operator: str = "delta", strength: float = 1.0,
                              box_radii=(8.0, 12.0, 16.0), levels: int = 7,
                              wedge_phi: float = 3.0 * np.pi / 4.0,
                              momentum: float = 0.0, n_list=(8, 16, 32),
                              wedge_box_radius: float = 140.0,
                              wedge_levels: int = 9, tol: float = 1e-8,
                              seed: int = 0) -> ExperimentReport:
    rep = ExperimentReport("threshold_convergence")
    check(strength, POSITIVE, "strength")
    if geometry_name == "half_plane":
        threshold = closedform.spectral_bottom("half_plane", operator,
                                               "dirichlet", strength, strength)
        final_tol = 0.02 if operator == "delta" else 0.05
        check(box_radii, array_of(POSITIVE), "box_radii")
        lams = []
        for R in box_radii:
            p, m = mesh.canonical_mesh("half_plane", None, float(R), levels)
            if operator == "delta":
                d = geometry.InteractionData.uniform(p, strength, 1.0)
                df = forms.assemble_delta(m, d, "dirichlet")
            else:
                d = geometry.InteractionData.uniform(p, 0.0, strength)
                df = forms.assemble_delta_prime(m, d, "dirichlet")
            lam = float(_solve(df, 1, tol, seed).eigenvalues[0])
            lams.append(lam)
            rep.check_le(f"R={R}: certified lambda_1 >= threshold", -lam,
                         -threshold, 1e-9)
        rep.quantities.update({"threshold": threshold, "lambda1": lams})
        # delta is resolution-robust here; the jump coupling is more sensitive
        # to the coarser mesh that a fixed level count implies on a larger box,
        # so its monotonicity check gets a slice of the truncation tolerance
        step_tol = 1e-12 if operator == "delta" else 0.25 * final_tol
        for i in range(1, len(lams)):
            rep.check_le(f"monotone in R: step {i}", lams[i], lams[i - 1],
                         step_tol)
        rep.check_abs("final gap to threshold", lams[-1], threshold, final_tol)
    elif geometry_name == "wedge":
        if operator != "delta-prime":
            raise ValueError("the wedge threshold run is for the jump coupling")
        beta = strength
        target = closedform.spectral_bottom(
            "half_plane", "delta-prime", "dirichlet", None, beta) + momentum ** 2
        R = wedge_box_radius
        check(n_list, array_of(whole(1)), "n_list")
        check(wedge_phi, OPENING, "wedge_phi")
        window = _wedge_window(wedge_phi, n_list)
        if window[1][1] > R:
            raise ValueError("box too small for the test-function support")
        p = geometry.build_canonical_partition(
            "wedge", {"phi": wedge_phi, "box_radius": R})
        m = mesh.triangulate(p, wedge_levels, window)
        quotients = _wedge_quotients(p, m, beta, momentum, n_list, window[0])
        rep.quantities.update({"target": target, "n_list": list(n_list),
                               "rayleigh_quotients": quotients})
        for i in range(1, len(quotients)):
            rep.check_le(f"decreasing in n: step {i}", quotients[i],
                         quotients[i - 1], 1e-12)
        rep.check_abs(f"quotient at n={n_list[-1]} near target",
                      quotients[-1], target, 0.1)
    else:
        raise ValueError(f"unsupported geometry {geometry_name!r}")
    return rep


# ---------------------------------------------------------------------------
# deformed line: existence of a bound state
# ---------------------------------------------------------------------------

def _bump_polyline_trace(bump_xy, alpha: float, n: float) -> float:
    """Integral of bump((x)/n)^2 * exp(-alpha |y|) along the closed polygon."""
    import scipy.integrate as integrate   # only here, off the import path

    total = 0.0
    pts = np.asarray(bump_xy, dtype=float)
    for i in range(pts.shape[0]):
        a = pts[i]
        b = pts[(i + 1) % pts.shape[0]]
        length = float(np.hypot(*(b - a)))

        def integrand(s, a=a, b=b):
            x = a[0] + (b[0] - a[0]) * s
            y = a[1] + (b[1] - a[1]) * s
            return float(forms.bump(x / n) ** 2 * np.exp(-alpha * abs(y)))

        val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
        total += val * length
    return total


def _deformation_quadrature(alpha: float, n: float, bump_xy) -> dict:
    """Shifted form value of the cutoff transverse profile,
    I_n = |grad|^2 - alpha(line trace + bump trace) + alpha^2/4 |f|^2.  The
    line pieces scale the bump constants, int bump(s/n)^2 ds = n BUMP_L2SQ
    and int bump'(s/n)^2 ds = n BUMP_GRAD_L2SQ; the bump trace is by 1D
    quadrature."""
    phi2 = n * forms.BUMP_L2SQ
    dphi2 = n * forms.BUMP_GRAD_L2SQ
    ey = 2.0 / alpha                      # integral of exp(-alpha |y|)
    dey = alpha / 2.0                     # integral of (alpha/2)^2 exp(-alpha |y|)
    grad = dphi2 / n ** 2 * ey + phi2 * dey
    line_trace = phi2
    bump_trace = _bump_polyline_trace(bump_xy, alpha, n)
    l2 = phi2 * ey
    value = grad - alpha * (line_trace + bump_trace) + alpha ** 2 / 4.0 * l2
    return {"grad": grad, "line_trace": line_trace, "bump_trace": bump_trace,
            "l2": l2, "value": value}


def run_deformation_bound_state(alpha: float = 1.0, n_list=(1.0, 4.0, 64.0),
                                box_radius: float = 16.0, levels: int = 6,
                                bump=((-1.0, 1.0), (1.0, 1.0), (1.0, 3.0),
                                      (-1.0, 3.0)),
                                tol: float = 1e-8, seed: int = 0) -> ExperimentReport:
    rep = ExperimentReport("deformation_bound_state")
    check(bump, POINTS, "bump")
    check(alpha, POSITIVE, "alpha")
    check(n_list, array_of(POSITIVE), "n_list")
    # mesh-free quadrature route
    quad = {n: _deformation_quadrature(alpha, float(n), bump) for n in n_list}
    rep.quantities["quadrature_I_n"] = {n: q["value"] for n, q in quad.items()}
    rep.quantities["bump_trace"] = quad[n_list[-1]]["bump_trace"]
    n_big = n_list[-1]
    rep.check_le(f"I_n < 0 at n={n_big} (quadrature)", quad[n_big]["value"],
                 0.0, 0.0)
    # coarse bound with the crude exp(-alpha*D) trace minorant
    D = max(abs(y) for _, y in bump)
    perimeter = float(sum(np.hypot(*(np.subtract(bump[(i + 1) % len(bump)], bump[i])))
                          for i in range(len(bump))))
    crude = (2.0 / (alpha * n_big)) * forms.BUMP_GRAD_L2SQ \
        - alpha * np.exp(-alpha * D) * perimeter
    rep.quantities["crude_upper_bound"] = crude
    rep.check_le("quadrature value below crude bound", quad[n_big]["value"],
                 crude, 1e-10)

    p, m = mesh.canonical_mesh("line_with_bump",
                               {"bump": [list(v) for v in bump]}, box_radius,
                               levels)
    d = geometry.InteractionData.uniform(p, alpha, 4.0 / alpha)
    # the discrete Neumann form on the nodal profile bump(x/n) exp(-alpha|y|/2)
    # for the n that fit in the box (dual route); every node is a dof
    dfn = forms.assemble_delta(m, d, "neumann")
    x, y = m.nodes[:, 0], m.nodes[:, 1]
    dual = {}
    for n in n_list:
        if 2.0 * float(n) > box_radius:
            continue
        f = forms.bump(x / float(n)) * np.exp(-0.5 * float(alpha) * np.abs(y))
        i_disc = forms.form_value(dfn, f) \
            + alpha ** 2 / 4.0 * float(f @ (dfn.M @ f))
        dual[n] = i_disc
        if float(n) >= 2.0:  # n=1 varies on the mesh scale; informational only
            rep.check_abs(f"discrete vs quadrature I_n, n={n}", i_disc,
                          quad[n]["value"], 0.1,
                          "discretization + truncation error")
    rep.quantities["discrete_I_n"] = dual

    dfd = forms.assemble_delta(m, d, "dirichlet")
    bfd = forms.assemble_delta_prime(m, d, "dirichlet")
    lam_d = float(_solve(dfd, 1, tol, seed).eigenvalues[0])
    lam_b = float(_solve(bfd, 1, tol, seed).eigenvalues[0])
    line_threshold = closedform.spectral_bottom("half_plane", "delta",
                                                "dirichlet", alpha, 4.0 / alpha)
    rep.quantities.update({"lambda1_delta": lam_d, "lambda1_delta_prime": lam_b,
                           "line_threshold": line_threshold,
                           "binding_margin": line_threshold - lam_d})
    rep.check_le("bound state below line threshold", lam_d, line_threshold, 0.0)
    rep.check_le("companion ordering at beta = 4/alpha", lam_b, lam_d,
                 1e-10 * max(1.0, abs(lam_d)))
    return rep


# ---------------------------------------------------------------------------
# compact island: indicator argument for a negative eigenvalue
# ---------------------------------------------------------------------------

def run_indicator_bound_state(beta: float = 1.0, box_radii=(6.0, 9.0),
                              levels: int = 5, sides: int = 16,
                              radius: float = 3.0, tol: float = 1e-8,
                              seed: int = 0) -> ExperimentReport:
    rep = ExperimentReport("indicator_bound_state")
    check(box_radii, array_of(POSITIVE), "box_radii")
    check(sides, whole(3), "sides")
    check(radius, POSITIVE, "radius")
    perimeters, lams = [], []
    for R in box_radii:
        p, m = mesh.canonical_mesh("island", {"sides": sides, "radius": radius},
                                   float(R), levels)
        perimeters.append(sum(i.length for i in p.interfaces))
        d = geometry.InteractionData.uniform(p, 0.0, beta)
        bf = forms.assemble_delta_prime(m, d, "neumann")
        island_id = 1
        exact = -sum(i.length for i in p.interfaces
                     if island_id in (i.k, i.l)) / beta
        reported = forms.indicator_form_value(bf, island_id)
        ind = forms.indicator_vector(bf, island_id)
        discrete = float(ind @ (bf.A @ ind))
        rep.check_abs(f"R={R}: indicator closed form", reported, exact,
                      1e-12 * abs(exact))
        rep.check_abs(f"R={R}: indicator discrete form value", discrete, exact,
                      1e-12 * abs(exact))
        lam = float(_solve(bf, 1, tol, seed).eigenvalues[0])
        lams.append(lam)
        rep.check_le(f"R={R}: negative ground eigenvalue", lam, 0.0, 0.0)
    rep.quantities.update({
        "perimeter": perimeters[0],
        "lambda1": lams,
        "lambda1_spread": max(lams) - min(lams),
    })
    return rep


# ---------------------------------------------------------------------------
# sharpness of the admissibility window for two colours
# ---------------------------------------------------------------------------

def run_sharpness_chi2(alpha: float = 1.0, beta: float = 5.0,
                       box_radius: float = 12.0, levels: int = 6,
                       tol: float = 1e-8, seed: int = 0) -> ExperimentReport:
    rep = ExperimentReport("sharpness_chi2")
    bot_d, bot_b = closedform.halfplane_bottoms(alpha, beta)
    impossible = beta > 4.0 / alpha
    rep.quantities.update({"bottom_delta": bot_d, "bottom_delta_prime": bot_b,
                           "ordering_impossible": impossible})
    p, m = mesh.canonical_mesh("half_plane", None, box_radius, levels)
    dd = geometry.InteractionData.uniform(p, alpha, beta)
    lam_d = float(_solve(forms.assemble_delta(m, dd, "dirichlet"),
                         1, tol, seed, bot_d).eigenvalues[0])
    lam_b = float(_solve(forms.assemble_delta_prime(m, dd, "dirichlet"),
                         1, tol, seed, bot_b).eigenvalues[0])
    rep.quantities.update({"lambda1_delta": lam_d, "lambda1_delta_prime": lam_b})
    if impossible:
        rep.check_le("thresholds reversed", -bot_b, -bot_d, 0.0,
                     "jump bottom strictly above the trace bottom")
        rep.check_le("discrete evidence: lambda_1(delta) below delta_prime",
                     lam_d, lam_b, 0.0)
    else:
        rep.check_le("thresholds ordered", bot_b, bot_d, 0.0)
    return rep


EXPERIMENTS = {
    "ordering": run_ordering,
    "unitary": run_unitary_identity,
    "star-bounds": run_star_bounds,
    "threshold": run_threshold_convergence,
    "deformation": run_deformation_bound_state,
    "indicator": run_indicator_bound_state,
    "sharpness": run_sharpness_chi2,
}
