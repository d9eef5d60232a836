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

from . import closedform, eigen, experiments, forms, geometry, mesh
from .geometry import BOOL, FINITE, OPENING, POSITIVE, _param, array_of, whole

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


_OBJECT = (lambda v: isinstance(v, dict), "an object")


def _strength(obj, key, kind):
    """A scalar, or a map {interface id: value} with every value of kind."""
    if not isinstance(obj.get(key), dict):
        return float(_param(obj, key, 1.0, kind, key))
    values = obj.pop(key)
    if not values:
        raise ValueError(f"{key}: per-interface map may not be empty")
    out = {}
    for k in list(values):
        try:
            iid = int(k)
        except ValueError:
            raise ValueError(f"{key}.{k}: interface id must be an integer")
        out[iid] = float(_param(values, k, None, kind, f"{key}.{k}"))
    return out


def parse_config(text: str) -> Config:
    """Validate a JSON config document; scalars broadcast to all interfaces.
    Every value is read by geometry._param, and every ValueError becomes a
    ConfigError naming the field."""
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"config must be an object, got {obj!r}")
        for key in ("geometry", "box_radius", "levels"):
            if key not in obj:
                raise ValueError(f"{key}: missing required field")
        geo = _param(obj, "geometry", None, _OBJECT, "geometry")
        names = geometry.CANONICAL_NAMES
        name = _param(geo, "name", None, (lambda v: v in names,
                                          f"one of {list(names)}"),
                      "geometry.name")
        params = _param(geo, "params", {}, _OBJECT, "geometry.params")
        solver = _param(obj, "solver", {}, _OBJECT, "solver")
        cfg = Config(
            geometry_name=name, geometry_params=params,
            box_radius=float(_param(obj, "box_radius", None, POSITIVE,
                                    "box_radius")),
            levels=_param(obj, "levels", None, whole(0), "levels"),
            bc=_param(obj, "bc", "dirichlet",
                      (lambda v: v in ("dirichlet", "neumann"),
                       "'dirichlet' or 'neumann'"), "bc"),
            alpha=_strength(obj, "alpha", FINITE),
            beta=_strength(obj, "beta", POSITIVE),
            threshold=float(_param(obj, "threshold", 0.0, FINITE, "threshold")),
            solver=SolverConfig(
                k=_param(solver, "k", 6, whole(1), "solver.k"),
                tol=float(_param(solver, "tol", 1e-8, POSITIVE, "solver.tol")),
                seed=_param(solver, "seed", 0, whole(0), "solver.seed"),
                deterministic=_param(solver, "deterministic", False, BOOL,
                                     "solver.deterministic")),
            experiment=_param(obj, "experiment", {}, _OBJECT, "experiment"))
        for prefix, rest in (("geometry.", geo), ("solver.", solver), ("", obj)):
            if rest:
                raise ValueError(f"{prefix}{next(iter(rest))}: unknown field")
        return cfg
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    bottom = closedform.spectral_bottom(cfg.geometry_name, operator, cfg.bc,
                                        cfg.alpha, cfg.beta)
    r = eigen.lowest_form_eigenpairs(df, s.k, tol=s.tol, seed=s.seed,
                                     bottom=bottom)
    below = {"count_below_threshold": r.count_below(cfg.threshold, 10.0 * s.tol)}
    if below["count_below_threshold"] is None:
        below["count_below_at_least"] = r.eigenvalues.size
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
            "dofs": df.A.shape[0], "spectral_bottom": bottom, **below,
        })
    else:
        _emit_json({
            "operator": operator, "bc": cfg.bc,
            "dofs": int(df.A.shape[0]),
            "eigenvalues": [float(v) for v in r.eigenvalues],
            "residuals": [float(v) for v in r.residuals],
            "method": r.method, "converged": bool(r.converged),
            "shift": None if r.shift is None else float(r.shift),
            "spectral_bottom": bottom,
            "threshold": cfg.threshold, **below,
        })
    if not r.converged:
        print("eigensolver did not reach the requested tolerance",
              file=sys.stderr)
        return 2
    return 0


def _closed_form_payload(name: str, params) -> Dict:
    def need(optional=0, **kinds):
        """The parameters, read as integers or floats and checked by name;
        the last `optional` of them may be left out."""
        if not len(kinds) - optional <= len(params) <= len(kinds):
            raise ConfigError(f"closed-form {name} takes {len(kinds)} "
                              f"parameter(s), got {len(params)}")
        args = {}
        for key, text in zip(kinds, params):
            for parse in (int, float, str):
                try:
                    args[key] = parse(text)
                    break
                except ValueError:
                    pass
        return [_param(args, key, None, kinds[key], f"closed-form {name} {key}")
                for key in list(args)]

    if name == "halfplane-bottoms":
        a, b = map(float, need(alpha=POSITIVE, beta=POSITIVE))
        da, db = closedform.halfplane_bottoms(a, b)
        return {"values": [da, db], "delta": da, "delta_prime": db}
    if name == "wedge-trace":
        gamma, phi, *flag = need(1, gamma=POSITIVE, phi=OPENING,
                                 bisector=(lambda v: v in (0, 1), "0 or 1"))
        bound = closedform.wedge_trace_bound(
            float(gamma), float(phi), vanishing_on_bisector=flag == [1])
        return {"values": [bound], "bound": bound}
    if name == "star-delta":
        (a,) = need(alpha=POSITIVE)
        v = closedform.star_delta_bottom(float(a))
        return {"values": [v], "bottom": v}
    if name == "edge-constant":
        (chi,) = need(chi=whole(2))
        v = geometry.edge_constant(chi)
        return {"values": [v], "edge_constant": v}
    if name == "interval":
        b, l = map(float, need(beta=POSITIVE, l=POSITIVE))
        r = closedform.interval_delta_prime(b, l)
        return {"values": [r.epsilon], **asdict(r)}
    if name == "minimax":
        need()
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


def _override_kind(default):
    """The kind an experiment override must have: the JSON type of the
    parameter's default, each item's where it is a tuple."""
    if default is None:
        return (lambda v: v is None or isinstance(v, dict), "an object or null")
    if isinstance(default, tuple):
        return array_of(_override_kind(default[0]))
    if isinstance(default, float):
        return FINITE
    if type(default) is int:
        return whole(0)
    return (lambda v: type(v) is type(default), f"of the type of {default!r}")


def _experiment_args(cfg: Config, fn) -> inspect.BoundArguments:
    """Every argument fn will run with: config values for the parameters fn
    shares with the config, then the experiment overrides, then fn's
    defaults."""
    sig = inspect.signature(fn)
    params = sig.parameters
    kw = {name: get(cfg) for name, (_, get) in _CONFIG_FIELDS.items()
          if name in params}
    # free-form per-experiment overrides, checked against the signature
    overrides = dict(cfg.experiment)
    for key in cfg.experiment:
        if key not in params:
            raise ConfigError(
                f"experiment.{key}: unknown parameter for this experiment")
        kw[key] = _param(overrides, key, None,
                         _override_kind(params[key].default), f"experiment.{key}")
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
