"""The four benchmark workloads.  Each is a list of operations; one
operation solves one problem and checks its output.  Inputs are fixed
configs; the workload seed becomes the solver seed (the Lanczos start
vector) of every solve.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())


class Operation(NamedTuple):
    name: str
    run: Callable[[], Tuple[bool, dict]]   # -> (checks passed, details)


def _verdict(checks: dict, details: dict):
    details["failed_checks"] = [k for k, ok in checks.items() if not ok]
    return not details["failed_checks"], details


# -- bottom_32k: `deltapart spectrum` on the 32k-dof half-plane problem ------

_SPECTRUM_TOL = 1e-8
_SPECTRUM_CASES = [
    # operator, alpha, beta, certified bottom of the half-plane spectrum
    ("delta", 1.0, 1.0, -0.25),          # -alpha^2/4
    ("delta-prime", 0.0, 2.0, -1.0),     # -4/beta^2
]


def _spectrum_op(workdir: Path, seed: int, operator, alpha, beta, bottom):
    from deltapart import cli

    path = workdir / f"spectrum_{operator}.json"
    path.write_text(json.dumps({
        "geometry": {"name": "half_plane"}, "box_radius": 16, "levels": 7,
        "bc": "dirichlet", "alpha": alpha, "beta": beta,
        "solver": {"k": 1, "tol": _SPECTRUM_TOL, "seed": seed},
    }))
    ref = REFERENCES["bottom_32k"][operator]
    argv = ["spectrum", "--operator", operator, "--config", str(path)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        rep = json.loads(out.getvalue())
        lam = rep["eigenvalues"][0]
        return _verdict({
            "exit_code_0": code == 0,
            "converged": rep["converged"] is True,
            "residual_within_tol": max(rep["residuals"]) <= _SPECTRUM_TOL,
            "certified_bound": lam >= bottom - 1e-9,
            "reference_1e-8_rel": abs(lam - ref) <= 1e-8 * abs(ref),
        }, {"lambda1": lam, "dofs": rep["dofs"],
            # recorded, not checked: capped at k until the count comes
            # from an inertia count
            "count_below_threshold": rep["count_below_threshold"]})

    return Operation(f"spectrum {operator}", run)


def bottom_32k(workdir: Path, seed: int) -> List[Operation]:
    return [_spectrum_op(workdir, seed, *case) for case in _SPECTRUM_CASES]


# -- ordering_neumann: acceptance 01 and the first island box of 03 ---------

_ORDERING_CASES = [
    # geometry, params, alpha, beta, box radius, levels
    ("star3", None, 1.0, 3.0, 6.0, 6),
    ("half_plane", None, 1.0, 4.0, 6.0, 6),
    ("grid", {"variant": "chi4"}, 1.0, 2.0, 6.0, 5),
]


def ordering_neumann(workdir: Path, seed: int) -> List[Operation]:
    from deltapart import experiments

    def ordering(name, params, alpha, beta, R, levels):
        def run():
            rep = experiments.run_ordering(
                geometry_name=name, geometry_params=params, alpha=alpha,
                beta=beta, k=10, box_radius=R, levels=levels, seed=seed)
            return _verdict({
                "passed": rep.passed,
                "hypothesis_ok": bool(rep.quantities["hypothesis_ok"]),
            }, {"dofs": rep.quantities["dofs_continuous"]})

        return Operation(f"ordering {name}", run)

    def island():
        rep = experiments.run_indicator_bound_state(box_radii=(6.0,), seed=seed)
        return _verdict({"passed": rep.passed},
                        {"lambda1": rep.quantities["lambda1"][0]})

    return ([ordering(*case) for case in _ORDERING_CASES]
            + [Operation("indicator island R=6", island)])


# -- wedge_2m: acceptance 04's wedge companion, no eigensolve ---------------

def wedge_2m(workdir: Path, seed: int) -> List[Operation]:
    from deltapart import experiments

    refs = REFERENCES["wedge_2m"]["rayleigh_quotients"]

    def run():
        # no solver runs here, so the seed reaches nothing
        rep = experiments.run_threshold_convergence(
            geometry_name="wedge", operator="delta-prime", strength=2.0,
            seed=seed)
        q = rep.quantities["rayleigh_quotients"]
        return _verdict({
            "passed": rep.passed,
            "references_1e-10": len(q) == len(refs) and all(
                abs(a - b) <= 1e-10 * max(1.0, abs(b)) for a, b in zip(q, refs)),
        }, {"rayleigh_quotients": list(q)})

    return [Operation("wedge threshold R=140 L=9", run)]


# -- dense_oracle: acceptance 13's six problems ------------------------------

_ORACLE_CASES = [
    ("star3", 3, "delta", "dirichlet"),
    ("star3", 3, "delta-prime", "neumann"),
    ("half_plane", 4, "delta", "dirichlet"),
    ("island", 3, "delta-prime", "neumann"),
    ("line_with_bump", 3, "delta", "neumann"),
    ("wedge", 4, "delta-prime", "dirichlet"),
]


def dense_oracle(workdir: Path, seed: int) -> List[Operation]:
    from deltapart import eigen, forms, geometry, mesh

    def case(name, levels, op, bc):
        def run():
            p = geometry.build_canonical_partition(name, {"box_radius": 4.0})
            m = mesh.triangulate(p, levels)
            d = geometry.InteractionData.uniform(p, 1.0, 2.0)
            maker = (forms.assemble_delta if op == "delta"
                     else forms.assemble_delta_prime)
            df = maker(m, d, bc)
            r = eigen.lowest_eigenpairs(df.A, df.M, 5, seed=seed,
                                        lower_bound=df.coercivity_bound)
            ref = eigen.dense_eigen_oracle(df.A, df.M)[:5]
            rel = float(np.max(np.abs(r.eigenvalues - ref)
                               / np.maximum(1.0, np.abs(ref))))
            return _verdict({"oracle_1e-8_rel": rel <= 1e-8},
                            {"dofs": df.n_dofs, "rel_diff": rel})

        return Operation(f"oracle {name} L{levels} {op} {bc}", run)

    return [case(*c) for c in _ORACLE_CASES]


WORKLOADS = {
    "bottom_32k": bottom_32k,
    "ordering_neumann": ordering_neumann,
    "wedge_2m": wedge_2m,
    "dense_oracle": dense_oracle,
}
