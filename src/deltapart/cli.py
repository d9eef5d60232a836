"""Command-line front end: JSON config parsing, command dispatch, report output.

One JSON config file is the sole input channel for anything that needs a
geometry or a solver; commands that only evaluate analytic constants take
their parameters on the command line.  Exit codes: 0 success / all assertions
pass, 2 scientific failure (the report is still emitted), 1 usage or config
error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Union

import numpy as np

from . import closedform, eigen, experiments, forms, geometry, mesh

__all__ = ["Config", "SolverConfig", "ConfigError", "parse_config",
           "main", "entry"]


class ConfigError(ValueError):
    """Config schema violation; the message names the offending field."""


@dataclass(frozen=True)
class SolverConfig:
    k: int = 6
    tol: float = 1e-8
    seed: int = 0
    deterministic: bool = False


@dataclass(frozen=True)
class Config:
    geometry_name: str
    geometry_params: Dict
    box_radius: float
    levels: int
    bc: str = "dirichlet"
    alpha: Union[float, Dict[int, float]] = 1.0
    beta: Union[float, Dict[int, float]] = 1.0
    threshold: float = 0.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    experiment: Dict = field(default_factory=dict)

    # -- construction helpers -------------------------------------------
    def build(self):
        return mesh.canonical_mesh(self.geometry_name, self.geometry_params,
                                   self.box_radius, self.levels)

    def interaction(self, p: geometry.Partition) -> geometry.InteractionData:
        ids = [itf.id for itf in p.interfaces]

        def expand(v, label):
            if isinstance(v, dict):
                if sorted(v) != sorted(ids):
                    raise ConfigError(
                        f"{label}: interface ids {sorted(v)} do not match "
                        f"the partition's {sorted(ids)}")
                return {i: float(v[i]) for i in ids}
            return {i: float(v) for i in ids}

        return geometry.InteractionData(expand(self.alpha, "alpha"),
                                        expand(self.beta, "beta"))

    def scalar(self, which: str) -> float:
        v = getattr(self, which)
        if isinstance(v, dict):
            raise ConfigError(
                f"{which}: this command needs a scalar, not a per-interface map")
        return float(v)


# ---------------------------------------------------------------------------
# config parsing


def _typename(x) -> str:
    return type(x).__name__


def _number(obj, path, default=None, required=False, positive=False):
    if path.split(".")[-1] not in obj and not required:
        return default
    key = path.split(".")[-1]
    if key not in obj:
        raise ConfigError(f"{path}: missing required field")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {_typename(v)}")
    if positive and not v > 0:
        raise ConfigError(f"{path}: must be strictly positive, got {v}")
    return float(v)


def _strength(obj, key, default, positive):
    """Scalar or {interface id: value}; betas must be strictly positive."""
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, dict):
        out = {}
        for k, val in v.items():
            try:
                iid = int(k)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}.{k}: interface id must be an integer")
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(
                    f"{key}.{k}: expected a number, got {_typename(val)}")
            if positive and not val > 0:
                raise ConfigError(f"{key}: beta must be strictly positive "
                                  f"(interface {iid}: {val})")
            out[iid] = float(val)
        if not out:
            raise ConfigError(f"{key}: per-interface map may not be empty")
        return out
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key}: expected a number or map, got {_typename(v)}")
    if positive and not v > 0:
        raise ConfigError("beta must be strictly positive")
    return float(v)


_SOLVER_KEYS = {"k", "tol", "seed", "deterministic"}
_TOP_KEYS = {"geometry", "box_radius", "levels", "bc", "alpha", "beta",
             "threshold", "solver", "experiment"}


def _parse_solver(obj) -> SolverConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"solver: expected an object, got {_typename(obj)}")
    for key in obj:
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"solver.{key}: unknown field")
    k = obj.get("k", 6)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ConfigError(f"solver.k: expected a positive integer, got {k!r}")
    tol = _number(obj, "solver.tol", default=1e-8, positive=True)
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"solver.seed: expected an integer, got {seed!r}")
    det = obj.get("deterministic", False)
    if not isinstance(det, bool):
        raise ConfigError(
            f"solver.deterministic: expected a boolean, got {_typename(det)}")
    return SolverConfig(k=k, tol=tol, seed=seed, deterministic=det)


def parse_config(text: str) -> Config:
    """Validate a JSON config document; scalars broadcast to all interfaces."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError(f"config: expected an object, got {_typename(obj)}")
    for key in obj:
        if key not in _TOP_KEYS:
            raise ConfigError(f"{key}: unknown field")

    if "geometry" not in obj:
        raise ConfigError("geometry: missing required field")
    geo = obj["geometry"]
    if not isinstance(geo, dict):
        raise ConfigError(f"geometry: expected an object, got {_typename(geo)}")
    for key in geo:
        if key not in ("name", "params"):
            raise ConfigError(f"geometry.{key}: unknown field")
    name = geo.get("name")
    if not isinstance(name, str):
        raise ConfigError("geometry.name: missing or not a string")
    if name not in geometry.CANONICAL_NAMES:
        raise ConfigError(f"geometry.name: unknown geometry {name!r}, expected "
                          f"one of {list(geometry.CANONICAL_NAMES)}")
    params = geo.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(
            f"geometry.params: expected an object, got {_typename(params)}")

    box_radius = _number(obj, "box_radius", required=True, positive=True)
    if "levels" not in obj:
        raise ConfigError("levels: missing required field")
    levels = obj["levels"]
    if isinstance(levels, bool) or not isinstance(levels, int) or levels < 0:
        raise ConfigError(
            f"levels: expected a non-negative integer, got {levels!r}")

    bc = obj.get("bc", "dirichlet")
    if bc not in ("dirichlet", "neumann"):
        raise ConfigError(f"bc: expected 'dirichlet' or 'neumann', got {bc!r}")

    alpha = _strength(obj, "alpha", 1.0, positive=False)
    beta = _strength(obj, "beta", 1.0, positive=True)
    threshold = _number(obj, "threshold", default=0.0)
    solver = _parse_solver(obj.get("solver", {}))
    experiment = obj.get("experiment", {})
    if not isinstance(experiment, dict):
        raise ConfigError(
            f"experiment: expected an object, got {_typename(experiment)}")

    return Config(geometry_name=name, geometry_params=params,
                  box_radius=box_radius, levels=levels, bc=bc,
                  alpha=alpha, beta=beta, threshold=threshold, solver=solver,
                  experiment=experiment)


# ---------------------------------------------------------------------------
# output helpers


def _sig(v: float) -> str:
    return format(float(v), ".12g")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_kv_text(payload: Dict) -> None:
    for key in sorted(payload):
        print(f"{key} = {payload[key]!r}")


# ---------------------------------------------------------------------------
# commands


def _cmd_partition(cfg: Config, fmt: str) -> int:
    p, m = cfg.build()
    d = cfg.interaction(p)
    g = geometry.adjacency_graph(p)
    c = geometry.chromatic_colouring(g)
    ph = geometry.phase_assignment(p, c, d)
    iface = [{"id": itf.id, "k": itf.k, "l": itf.l, "length": itf.length,
              "alpha": d.alpha[itf.id], "beta": d.beta[itf.id],
              "alpha_z": ph.alpha_z[itf.id]} for itf in p.interfaces]
    payload = {
        "geometry": cfg.geometry_name,
        "box_radius": cfg.box_radius,
        "subdomains": list(p.subdomain_ids()),
        "interfaces": iface,
        "chi": c.chi,
        "colouring": {str(k): v for k, v in sorted(c.phi.items())},
        "edge_constant": geometry.edge_constant(c.chi),
        "mesh": {"levels": cfg.levels, "nodes": m.n_nodes,
                 "triangles": m.n_triangles,
                 "interface_edges": int(m.iface_edge_nodes.shape[0])},
    }
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        print("id,k,l,length,alpha,beta,alpha_z")
        for row in iface:
            print(f"{row['id']},{row['k']},{row['l']},{row['length']!r},"
                  f"{row['alpha']!r},{row['beta']!r},{row['alpha_z']!r}")
    else:
        flat = dict(payload)
        flat["interfaces"] = "; ".join(
            f"{r['id']}:{r['k']}-{r['l']} len={_sig(r['length'])} "
            f"alpha_z={_sig(r['alpha_z'])}" for r in iface)
        flat["mesh"] = (f"levels={cfg.levels} nodes={m.n_nodes} "
                        f"triangles={m.n_triangles}")
        _emit_kv_text(flat)
    return 0


def _assemble(cfg: Config, operator: str) -> forms.DiscreteForm:
    p, m = cfg.build()
    d = cfg.interaction(p)
    if operator == "delta":
        return forms.assemble_delta(m, d, cfg.bc)
    return forms.assemble_delta_prime(m, d, cfg.bc)


def _cmd_spectrum(cfg: Config, operator: str, fmt: str) -> int:
    df = _assemble(cfg, operator)
    s = cfg.solver
    r = eigen.lowest_form_eigenpairs(df, s.k, tol=s.tol, seed=s.seed)
    below = r.count_below(cfg.threshold, 10.0 * s.tol)
    if fmt == "csv":
        print("index,value,residual")
        for j, (lam, res) in enumerate(zip(r.eigenvalues, r.residuals), start=1):
            print(f"{j},{float(lam)!r},{float(res)!r}")
    elif fmt == "text":
        _emit_kv_text({
            "operator": operator,
            "eigenvalues": " ".join(_sig(v) for v in r.eigenvalues),
            "residuals": " ".join(format(float(v), ".3e") for v in r.residuals),
            "method": r.method, "converged": r.converged,
            "dofs": df.A.shape[0], "count_below_threshold": below,
        })
    else:
        _emit_json({
            "operator": operator, "bc": cfg.bc,
            "dofs": int(df.A.shape[0]),
            "eigenvalues": [float(v) for v in r.eigenvalues],
            "residuals": [float(v) for v in r.residuals],
            "method": r.method, "converged": bool(r.converged),
            "shift": None if r.shift is None else float(r.shift),
            "threshold": cfg.threshold, "count_below_threshold": below,
        })
    if not r.converged:
        print("eigensolver did not reach the requested tolerance",
              file=sys.stderr)
        return 2
    return 0


def _closed_form_payload(name: str, params) -> Dict:
    def need(n):
        if len(params) != n:
            raise ConfigError(f"closed-form {name} takes {n} parameter(s), "
                              f"got {len(params)}")
        try:
            return [float(v) for v in params]
        except ValueError:
            raise ConfigError(f"closed-form {name}: parameters must be numbers")

    if name == "halfplane-bottoms":
        a, b = need(2)
        da, db = closedform.halfplane_bottoms(a, b)
        return {"values": [da, db], "delta": da, "delta_prime": db}
    if name == "wedge-trace":
        vals = need(2) if len(params) == 2 else need(3)
        bound = closedform.wedge_trace_bound(
            vals[0], vals[1], vanishing_on_bisector=bool(vals[2:] and vals[2]))
        return {"values": [bound], "bound": bound}
    if name == "star-delta":
        (a,) = need(1)
        v = closedform.star_delta_bottom(a)
        return {"values": [v], "bottom": v}
    if name == "edge-constant":
        (chi,) = need(1)
        v = geometry.edge_constant(int(chi))
        return {"values": [v], "edge_constant": v}
    if name == "interval":
        b, l = need(2)
        r = closedform.interval_delta_prime(b, l)
        return {"values": [r.epsilon], **asdict(r)}
    if name == "minimax":
        need(0)
        r = closedform.minimax_star()
        return {"values": [r.value], **asdict(r)}
    raise ConfigError(
        f"unknown closed-form name {name!r}; expected one of "
        "halfplane-bottoms, wedge-trace, star-delta, edge-constant, "
        "interval, minimax")


def _cmd_closed_form(name: str, params, fmt: str) -> int:
    payload = _closed_form_payload(name, params)
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        print("name,value")
        for key in sorted(payload):
            if key != "values":
                print(f"{key},{payload[key]!r}")
    else:
        print(" ".join(_sig(v) for v in payload["values"]))
    return 0


# experiment parameter -> (the config field that supplies it, its value)
_CONFIG_FIELDS = {
    "geometry_name": ("geometry.name", lambda cfg: cfg.geometry_name),
    "geometry_params": ("geometry.params", lambda cfg: cfg.geometry_params or None),
    "alpha": ("alpha", lambda cfg: cfg.scalar("alpha")),
    "beta": ("beta", lambda cfg: cfg.scalar("beta")),
    "box_radius": ("box_radius", lambda cfg: cfg.box_radius),
    "levels": ("levels", lambda cfg: cfg.levels),
    "k": ("solver.k", lambda cfg: cfg.solver.k),
    "tol": ("solver.tol", lambda cfg: cfg.solver.tol),
    "seed": ("solver.seed", lambda cfg: cfg.solver.seed),
}


def _like(value, default) -> bool:
    """Whether an override has the JSON type of the parameter's default:
    an integer for int, a number for float, a non-empty array of such
    items for a tuple, an object or null for None."""
    if default is None:
        return value is None or isinstance(value, dict)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) > 0
                and all(_like(v, default[0]) for v in value))
    return isinstance(value, type(default))


def _experiment_args(cfg: Config, fn) -> inspect.BoundArguments:
    """Every argument fn will run with: config values for the parameters fn
    shares with the config, then the experiment overrides, then fn's
    defaults."""
    sig = inspect.signature(fn)
    params = sig.parameters
    kw = {name: get(cfg) for name, (_, get) in _CONFIG_FIELDS.items()
          if name in params}
    # free-form per-experiment overrides, checked against the signature
    for key, val in cfg.experiment.items():
        if key not in params:
            raise ConfigError(
                f"experiment.{key}: unknown parameter for this experiment")
        default = params[key].default
        if not _like(val, default):
            raise ConfigError(
                f"experiment.{key}: {val!r} does not match the type of the "
                f"default {experiments.jsonable(default)!r}")
        kw[key] = val
    bound = sig.bind(**kw)
    bound.apply_defaults()
    return bound


def _cmd_verify(cfg: Config, experiment: str, fmt: str) -> int:
    """Run one experiment and report it with its provenance: the arguments
    it ran with (`config`) and, outside deterministic mode, its wall time."""
    fn = experiments.EXPERIMENTS[experiment]
    args = _experiment_args(cfg, fn)
    t0 = time.perf_counter()
    rep = fn(*args.args, **args.kwargs)
    wall_time = None if cfg.solver.deterministic else time.perf_counter() - t0
    if fmt == "csv":
        print("name,computed,reference,tolerance,margin,passed")
        for a in rep.assertions:
            quoted = '"' + a.name.replace('"', '""') + '"'
            print(f"{quoted},{a.computed!r},{a.reference!r},"
                  f"{a.tolerance!r},{a.margin!r},{a.passed}")
    elif fmt == "text":
        sys.stdout.write(rep.to_text())
        if wall_time is not None:
            print(f"wall_time: {wall_time:.3f}s")
    else:
        _emit_json(dict(rep.to_dict(),
                        config=experiments.jsonable(args.arguments),
                        wall_time=wall_time))
    return 0 if rep.passed else 2


def _cmd_export(cfg: Config, what: str, operator: str, which: str) -> int:
    if what == "mesh":
        _, m = cfg.build()
        sys.stdout.write(mesh.export_mesh(m))
        return 0
    df = _assemble(cfg, operator)
    sys.stdout.write(forms.export_matrix(df.A if which == "stiffness" else df.M))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage problems exit 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    par = _Parser(prog="deltapart", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    par.add_argument("--format", choices=("json", "text", "csv"), default=None,
                     help="output format (default: json for verify/spectrum, "
                          "text otherwise)")
    sub = par.add_subparsers(dest="command")

    sp = sub.add_parser("partition", help="partition inspection")
    sp.add_argument("action", choices=("info",))
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("spectrum", help="lowest eigenvalues of a form")
    sp.add_argument("--operator", required=True,
                    choices=("delta", "delta-prime"))
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("closed-form", help="analytic constants")
    sp.add_argument("name")
    sp.add_argument("params", nargs="*")

    sp = sub.add_parser("verify", help="run a verification experiment")
    sp.add_argument("experiment", choices=sorted(experiments.EXPERIMENTS))
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("export", help="dump mesh or assembled matrices")
    sp.add_argument("what", choices=("mesh", "matrix"))
    sp.add_argument("--config", required=True)
    sp.add_argument("--operator", choices=("delta", "delta-prime"),
                    default="delta")
    sp.add_argument("--which", choices=("stiffness", "mass"),
                    default="stiffness")
    return par


def _load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")


def main(argv=None) -> int:
    par = _build_parser()
    try:
        args = par.parse_args(argv)
        if args.command is None:
            raise _UsageError(par.format_usage())
        if args.command == "partition":
            cfg = _load_config(args.config)
            return _cmd_partition(cfg, args.format or "text")
        if args.command == "spectrum":
            cfg = _load_config(args.config)
            return _cmd_spectrum(cfg, args.operator, args.format or "json")
        if args.command == "closed-form":
            return _cmd_closed_form(args.name, args.params,
                                    args.format or "text")
        if args.command == "verify":
            cfg = _load_config(args.config)
            return _cmd_verify(cfg, args.experiment, args.format or "json")
        if args.command == "export":
            cfg = _load_config(args.config)
            return _cmd_export(cfg, args.what, args.operator, args.which)
        raise _UsageError(par.format_usage())
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:   # solver non-convergence and kin
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:       # e.g. piping a long export into head
        return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
