"""Outside-in layer tracing for the deltapart pipeline.

`Tracer.installed()` replaces the layer-boundary functions listed in
`BOUNDARIES` (module attributes, looked up at call time by every caller,
including calls made inside `experiments` and `cli`) with wrappers that
record a span per call, plus the scipy `eigsh`/`splu` entry points that
`deltapart.eigen` reaches.  The `SuperLU` object returned by `splu` is
wrapped so that each operator solve is a span too.  On exit every original
attribute is put back.  Nothing under `src/` is changed.

A span is (name, start, end, parent index).  Self time is a span's duration
minus the durations of its direct children.  `Tracer.metrics()` turns the
spans and counters of one pass into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  The span name is the layer boundary the
# per-layer metrics are computed from.
BOUNDARIES = [
    ("deltapart.geometry", "build_canonical_partition", "geometry"),
    ("deltapart.geometry", "adjacency_graph", "geometry"),
    ("deltapart.geometry", "chromatic_colouring", "geometry"),
    ("deltapart.mesh", "triangulate", "mesh.triangulate"),
    ("deltapart.forms", "assemble_delta", "forms.assemble"),
    ("deltapart.forms", "assemble_delta_prime", "forms.assemble"),
    ("deltapart.forms", "assemble_subdomain_robin", "forms.assemble"),
    ("deltapart.forms", "broken_dof_layout", "forms.layout"),
    ("deltapart.forms", "sample_test_function", "forms.sample"),
    ("deltapart._kernels", "p1_elements", "kernels.p1"),
    ("deltapart._kernels", "cholesky_lower", "kernels.cholesky"),
    ("deltapart._kernels", "solve_lower", "kernels.solve_lower"),
    ("deltapart._kernels", "tridiagonalize", "kernels.tridiagonalize"),
    ("deltapart._kernels", "tridiag_eigenvalues", "kernels.bisect"),
    ("deltapart.eigen", "lowest_eigenpairs", "eigen.solve"),
    ("deltapart.eigen", "dense_eigen_oracle", "eigen.oracle"),
    ("deltapart.cli", "main", "cli"),
    # `eigen` calls `spla.eigsh`; ARPACK's shift-invert operator calls the
    # `splu` name bound inside scipy's arpack module
    ("scipy.sparse.linalg", "eigsh", "eigen.arpack"),
    ("scipy.sparse.linalg._eigen.arpack.arpack", "splu", "eigen.factor"),
]
EXPERIMENT_MODULE = "deltapart.experiments"   # every run_* is a boundary

# Sturm bisection halves the bracket until it is below 1e-15 of the spectral
# span, about 50 steps; each step evaluates n Sturm counts of length n at
# about 5 flops per entry.  The flop counts are nominal, computed from sizes.
_BISECT_STEPS = 50


def _flops_cholesky(args):
    n = args[0].shape[0]
    return n ** 3 / 3.0


def _flops_solve_lower(args):
    L, b = args[0], args[1]
    cols = b.shape[1] if b.ndim == 2 else 1
    return float(L.shape[0]) ** 2 * cols


def _flops_tridiagonalize(args):
    n = args[0].shape[0]
    return 4.0 * n ** 3 / 3.0


def _flops_bisect(args):
    n = args[0].shape[0]
    return 5.0 * _BISECT_STEPS * float(n) ** 2


_DENSE_FLOPS = {
    "kernels.cholesky": _flops_cholesky,
    "kernels.solve_lower": _flops_solve_lower,
    "kernels.tridiagonalize": _flops_tridiagonalize,
    "kernels.bisect": _flops_bisect,
}


class _SuperLUProxy:
    """Stands in for the `SuperLU` factor; times and counts `solve`."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        tr = self._tracer
        tr.counts["eigen.op_solves"] += 1
        return tr.call("eigen.op_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters of the layer calls made while installed."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.max_residual = 0.0
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _observe(self, name, args, result):
        c = self.counts
        if name == "mesh.triangulate":
            c["mesh.triangles"] += result.n_triangles
        elif name == "forms.assemble":
            c["forms.dofs"] += result.n_dofs
            c["forms.nnz"] += result.A.nnz
        elif name == "kernels.p1":
            nodes, tris = args[0], args[1]
            ntri = tris.shape[0]
            c["kernels.p1_triangles"] += ntri
            # triangle indices, gathered vertex coordinates, and the
            # stiffness, mass and area outputs
            c["kernels.p1_bytes"] += (tris.nbytes + ntri * 6 * nodes.itemsize
                                      + sum(a.nbytes for a in result))
        elif name in _DENSE_FLOPS:
            c["kernels.dense_flops"] += _DENSE_FLOPS[name](args)
        elif name == "eigen.solve":
            if result.method == "dense":
                c["eigen.dense_solves"] += 1
            else:
                c["eigen.iterative_pairs"] += len(result.eigenvalues)
            c["eigen.unconverged"] += not result.converged
            if len(result.residuals):
                self.max_residual = max(self.max_residual,
                                        float(max(result.residuals)))
        elif name == "eigen.arpack":
            c["eigen.eigsh_calls"] += 1
        elif name == "eigen.factor":
            c["eigen.factorizations"] += 1
            c["eigen.factor_nnz"] += result.nnz
            return _SuperLUProxy(result, self)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            return self._observe(name, args, result)

        return traced

    @contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        originals = []
        try:
            for module, attr, name in boundaries():
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def times(self):
        """{span name: (total seconds, self seconds, calls)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            t = out[name]
            t[0] += end - start
            t[1] += end - start - child[i]
            t[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset.
        `_s` values are self times, except `eigen.solve_s` and
        `eigen.oracle_s`, which are totals."""
        t = self.times()

        def self_s(name):
            return t.get(name, (0.0, 0.0, 0))[1]

        def total_s(name):
            return t.get(name, (0.0, 0.0, 0))[0]

        c = self.counts
        pairs = c["eigen.iterative_pairs"]
        return {
            "geometry.s": self_s("geometry"),
            "mesh.triangulate_s": self_s("mesh.triangulate"),
            "mesh.triangles": c["mesh.triangles"],
            "forms.assemble_s": self_s("forms.assemble"),
            "forms.dofs": c["forms.dofs"],
            "forms.nnz": c["forms.nnz"],
            "forms.layout_s": self_s("forms.layout"),
            "forms.sample_s": self_s("forms.sample"),
            "kernels.p1_s": self_s("kernels.p1"),
            "kernels.p1_triangles": c["kernels.p1_triangles"],
            "kernels.p1_bytes": c["kernels.p1_bytes"],
            "kernels.cholesky_s": self_s("kernels.cholesky"),
            "kernels.solve_lower_s": self_s("kernels.solve_lower"),
            "kernels.tridiagonalize_s": self_s("kernels.tridiagonalize"),
            "kernels.bisect_s": self_s("kernels.bisect"),
            "kernels.dense_flops": c["kernels.dense_flops"],
            "eigen.solve_s": total_s("eigen.solve"),
            "eigen.self_s": self_s("eigen.solve"),
            "eigen.eigsh_calls": c["eigen.eigsh_calls"],
            "eigen.arpack_s": self_s("eigen.arpack"),
            "eigen.factorizations": c["eigen.factorizations"],
            "eigen.factor_s": self_s("eigen.factor"),
            "eigen.factor_nnz": c["eigen.factor_nnz"],
            "eigen.op_solves": c["eigen.op_solves"],
            "eigen.op_solve_s": self_s("eigen.op_solve"),
            "eigen.op_solves_per_pair": c["eigen.op_solves"] / pairs if pairs else 0.0,
            "eigen.oracle_s": total_s("eigen.oracle"),
            "eigen.dense_solves": c["eigen.dense_solves"],
            "eigen.unconverged": c["eigen.unconverged"],
            "eigen.max_residual": self.max_residual,
            "experiments.self_s": self_s("experiments"),
            "cli.self_s": self_s("cli"),
        }


def boundaries():
    """`BOUNDARIES` plus every `run_*` experiment."""
    exp = importlib.import_module(EXPERIMENT_MODULE)
    runs = [(EXPERIMENT_MODULE, name, "experiments")
            for name in exp.__all__ if name.startswith("run_")]
    return BOUNDARIES + runs
