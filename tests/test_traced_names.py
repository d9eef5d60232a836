"""The benchmark's tracer (`perfbench/tracing.py`) still fits the code:
every name it wraps exists, and the result attributes it reads are there,
so renaming either fails the test suite rather than first failing in a
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from deltapart import cli, eigen, experiments, forms, geometry, mesh

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = _tracing()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.boundaries()
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"traced names that no longer exist: {missing}"


def test_traced_run_counts_every_layer(tmp_path):
    """A Lanczos spectrum, a windowed wedge run and the dense oracle under
    the tracer: each layer's counters come from the results' attributes
    (n_triangles, n_dofs, A.nnz, the solver result's fields, the factor's
    nnz), and every patched name is put back afterwards."""
    tracing = _tracing()
    originals = [(mod, attr, getattr(importlib.import_module(mod), attr))
                 for mod, attr, _ in tracing.boundaries()]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"geometry":{"name":"half_plane"},"box_radius":6,'
                   '"levels":4,"beta":2,"solver":{"k":2,"seed":0}}')
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["spectrum", "--operator", "delta-prime",
                         "--config", str(cfg)]) == 0
        experiments.run_threshold_convergence(
            geometry_name="wedge", operator="delta-prime", strength=2.0,
            n_list=(4, 8), wedge_box_radius=40.0, wedge_levels=5)
        p, m = mesh.canonical_mesh("half_plane", None, 3.0, 2)
        df = forms.assemble_delta(m, geometry.InteractionData.uniform(p, 1.0, 1.0),
                                  "dirichlet")
        eigen.dense_eigen_oracle(df.A, df.M)
    metrics = tracer.metrics()
    for name in ("mesh.triangles", "forms.dofs", "forms.nnz",
                 "kernels.p1_triangles", "kernels.dense_flops",
                 "eigen.factorizations", "eigen.op_solves"):
        assert metrics[name] > 0, name
    assert all(getattr(importlib.import_module(mod), attr) is fn
               for mod, attr, fn in originals)
