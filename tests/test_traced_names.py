"""Every name the benchmark's tracer wraps (`perfbench/tracing.py`) still
exists, so renaming a traced function fails the test suite rather than
first failing in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.boundaries()
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"traced names that no longer exist: {missing}"
