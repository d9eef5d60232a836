"""Run this checkout's benchmark over several seeds and collect the results.

    python3 perfbench/sweep.py --seeds 1-10 --out base.jsonl \
        [--workloads bottom_32k,wedge_2m] [--trace 1]

Each run measures BENCHMARK.json's `run_seconds` and appends one JSON record
per line to --out: {"workload", "seed", "trace", "detail", "result"}.
Summarize the file, or compare two files from two checkouts, with
compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(spec: str):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_one(workload: str, seed: int, trace: int):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv=None):
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workloads",
                     default=",".join(w["name"] for w in BENCH["workloads"]))
    par.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    par.add_argument("--out", type=Path, required=True)
    args = par.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            rec = run_one(workload, seed, args.trace)
            with args.out.open("a") as fh:
                fh.write(json.dumps(rec) + "\n")
            res = rec["result"]
            metrics = {k: round(v["value"], 4)
                       for k, v in res["metrics"].items()}
            print(f"{workload} seed={seed} failed={res['failed']}/"
                  f"{res['attempted']} {metrics}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
