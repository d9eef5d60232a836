"""deltapart pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `deltapart` from its
`src/`.  Repeats passes over the workload's operations until S seconds have
been measured (at least MIN_PASSES), checking every output.  The last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (see tracing.py).  The line before it is a
detail record: machine facts, per-pass samples with quartiles, and the
checked outputs of the last pass.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_RUNS = 7        # fresh-process set-up probes per run; the median is reported
MIN_PASSES = 2
DEFAULT_SEED = 0      # deltapart's own default solver seed


def _median_quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _blas_threads():
    """OpenBLAS thread count of numpy's BLAS and of scipy's own copy, which
    serves `scipy.linalg` and ARPACK's LAPACK."""
    import numpy
    import scipy

    found = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{name}.libs"
        found[name] = None
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    found[name] = int(getattr(handle, sym)())
                    break
    return found


def machine_facts():
    import numpy
    import scipy
    from deltapart import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "using_numba": bool(_kernels.USING_NUMBA),
        "blas_threads": _blas_threads(),
    }


def measure_setup(runs):
    """Set-up probes in `runs` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return probes


def run_pass(ops, stats):
    results = []
    for op in ops:
        stats["attempted"] += 1
        try:
            ok, details = op.run()
        except Exception:
            traceback.print_exc()
            ok, details = False, {"exception": traceback.format_exc(limit=1)}
        stats["failed"] += not ok
        results.append({"op": op.name, "ok": ok, **details})
    return results


def main(argv=None):
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workload", required=True)
    par.add_argument("--seed", type=int, default=DEFAULT_SEED)
    par.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = par.parse_args(argv)

    if not (SRC / "deltapart" / "__init__.py").is_file():
        print(f"error: no deltapart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import deltapart
    import setup_probe
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(deltapart.__file__).resolve().parent != SRC / "deltapart":
        print(f"error: imported deltapart from {deltapart.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up is probed before and after the measured passes, so that the
    # median spans the run rather than one moment of the host's speed.
    probes = measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    setup_probe.warm_up()        # lazy imports and first-call set-up
    tracer = Tracer() if args.trace else None
    stats = {"attempted": 0, "failed": 0}
    walls, cpus, layers = [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        ops = WORKLOADS[args.workload](Path(work), args.seed)
        start = time.perf_counter()
        while (len(walls) < MIN_PASSES
               or time.perf_counter() - start < args.seconds):
            if tracer:
                tracer.reset()
            with tracer.installed() if tracer else nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                results = run_pass(ops, stats)
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
            if tracer:
                layers.append(tracer.metrics())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes += measure_setup(SETUP_RUNS // 2)

    setup = [p["import_s"] + p["warmup_s"] for p in probes]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "wall_s": _median_quartiles(walls), "cpu_s": _median_quartiles(cpus),
        "setup_s": _median_quartiles(setup), "setup_probes": probes,
        "last_pass": results,
    }
    if args.trace:
        values = {
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "setup.warmup_s": statistics.median(p["warmup_s"] for p in probes),
            "run.wall_s": statistics.median(walls),
            "run.cpu_s": statistics.median(cpus),
        }
        for name in layers[0]:
            values[name] = statistics.median(lay[name] for lay in layers)
        detail["spans_last_pass"] = {
            k: {"total_s": v[0], "self_s": v[1], "calls": v[2]}
            for k, v in sorted(tracer.times().items())}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(detail))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in BENCH[section]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
