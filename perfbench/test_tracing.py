"""Checks on the benchmark itself: tracing leaves results alone, its eigen
counters repeat exactly, and the benchmark refuses to run without sources.

    python3 -m pytest perfbench
"""

import importlib
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from deltapart import eigen, forms, geometry, mesh  # noqa: E402
from tracing import Tracer, boundaries  # noqa: E402

EIGEN_COUNTERS = ("eigen.factorizations", "eigen.op_solves", "eigen.eigsh_calls")


def _solve(seed):
    """A broken-space problem just above the dense cutoff, so the
    shift-invert path (eigsh, splu, operator solves) runs."""
    p = geometry.build_canonical_partition("star3", {"box_radius": 4.0})
    m = mesh.triangulate(p, 4)
    d = geometry.InteractionData.uniform(p, 1.0, 2.0)
    df = forms.assemble_delta_prime(m, d, "dirichlet")
    return eigen.lowest_eigenpairs(df.A, df.M, 3, seed=seed,
                                   lower_bound=df.coercivity_bound)


def _current():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in boundaries()}


def test_tracing_leaves_eigenvalues_bitwise_identical_and_unpatches():
    originals = _current()
    plain = _solve(seed=3)
    tracer = Tracer()
    with tracer.installed():
        assert all(fn is not originals[key] for key, fn in _current().items())
        traced = _solve(seed=3)
    assert _current() == originals
    assert plain.method == "shift-invert"
    assert np.array_equal(plain.eigenvalues, traced.eigenvalues)
    assert tracer.counts["eigen.eigsh_calls"] == 2

    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("a failing operation")
    assert _current() == originals


def test_eigen_counters_repeat_at_same_seed():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            _solve(seed=11)
        layer = tracer.metrics()
        counts.append({k: layer[k] for k in EIGEN_COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["eigen.op_solves"] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    total, self_s, calls = tracer.times()["outer"]
    inner_total = tracer.times()["inner"][0]
    assert calls == 1 and inner_total >= 0.02
    assert self_s == pytest.approx(total - inner_total, abs=1e-9)
    assert self_s >= 0.01


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
         "--workload", "wedge_2m", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
