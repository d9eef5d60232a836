"""Summarize one result set, or compare two, from sweep.py's JSONL files.

    python3 perfbench/compare.py base.jsonl                # spread report
    python3 perfbench/compare.py base.jsonl change.jsonl   # comparison

One row per workload and end-to-end metric, plus a row of failed against
attempted operations.  Quartiles are `statistics.quantiles(values, n=4)`.

The spread report gives each metric's spread, (q3 - q1) / median, against
its bound in BENCHMARK.json, and the tracing overhead (traced `run.wall_s`
minus untraced `wall_s`, medians) where traced runs are present.

The comparison gives each side's median and quartiles and a verdict:
  better      the change wins at least 9 of 10 runs paired by seed (ties
              count for neither) and the medians differ by more than the
              base's interquartile distance;
  worse       the change's median is worse than the base's by more than the
              bound, and the spread is within the bound or every change run
              reads worse than every base run;
  unresolved  the spread of either side is wider than the bound, and not
              every change run reads better than every base run;
  no worse    otherwise.
There is no combined score.  Results from different machine facts (cores,
versions, kernel path, BLAS threads) are flagged, never compared silently.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def load(path):
    recs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    by = defaultdict(list)
    for r in recs:
        by[(r["workload"], r["trace"])].append(r)
    machines = {json.dumps(r["detail"]["machine"], sort_keys=True) for r in recs}
    return by, machines


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def series(recs, metric):
    """[(seed, value)] in run order."""
    return [(r["seed"], r["result"]["metrics"][metric]["value"]) for r in recs]


def values(pairs):
    return [v for _, v in pairs]


def verdict(base, new, better, bound):
    """base, new: series().  See the module docstring."""
    sb, sn = stats(values(base)), stats(values(new))
    sign = 1.0 if better == "lower" else -1.0        # sign * (new - base) > 0: worse
    worse_by = sign * (sn["median"] - sb["median"]) / sb["median"]
    base_at, new_at = dict(base), dict(new)
    paired = [s for s in base_at if s in new_at]
    wins = sum(sign * (new_at[s] - base_at[s]) < 0 for s in paired)
    bad_b = [sign * v for v in values(base)]
    bad_n = [sign * v for v in values(new)]
    all_better = max(bad_n) < min(bad_b)
    all_worse = min(bad_n) > max(bad_b)
    wide = max(sb["spread"], sn["spread"]) > bound
    if (paired and wins >= 0.9 * len(paired)
            and -worse_by * sb["median"] > sb["q3"] - sb["q1"]):
        return "better"
    if worse_by > bound and (not wide or all_worse):
        return "worse"
    if wide and not all_better:
        return "unresolved"
    return "no worse"


def _fmt(s):
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def _failures(recs):
    att = sum(r["result"]["attempted"] for r in recs)
    fail = sum(r["result"]["failed"] for r in recs)
    return att, fail


def summarize(path):
    by, machines = load(path)
    for m in machines:
        print(f"machine: {m}")
    print(f"{'workload':18} {'metric':12} {'median [q1, q3] n':38} "
          f"{'spread':>8} {'bound':>6}  status")
    for (workload, trace), recs in sorted(by.items()):
        if trace:
            continue
        for name, m in METRICS.items():
            s = stats(values(series(recs, name)))
            status = ("steady" if s["spread"] < m["bound"] / 3
                      else "within bound" if s["spread"] <= m["bound"]
                      else "TOO WIDE")
            print(f"{workload:18} {name:12} {_fmt(s):38} "
                  f"{s['spread']:8.4f} {m['bound']:6.3f}  {status}")
        att, fail = _failures(recs)
        print(f"{workload:18} {'failed':12} {fail}/{att}")
        traced = by.get((workload, 1))
        if traced:
            t = statistics.median(values(series(traced, "run.wall_s")))
            u = statistics.median(values(series(recs, "wall_s")))
            print(f"{workload:18} {'trace cost':12} {t - u:+.4g} s "
                  f"(traced {t:.4g} s, untraced {u:.4g} s)")


def compare(base_path, new_path):
    base, mb = load(base_path)
    new, mn = load(new_path)
    if len(mb | mn) > 1:
        print("WARNING: machine facts differ between or within the result "
              "sets; these numbers are not comparable:")
        for m in sorted(mb | mn):
            print(f"  {m}")
    print(f"{'workload':18} {'metric':12} {'base median [q1, q3] n':34} "
          f"{'change median [q1, q3] n':34} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue
        for name, m in METRICS.items():
            b, n = series(base[key], name), series(new[key], name)
            sb, sn = stats(values(b)), stats(values(n))
            change = (sn["median"] - sb["median"]) / sb["median"]
            print(f"{workload:18} {name:12} {_fmt(sb):34} {_fmt(sn):34} "
                  f"{change:+8.2%}  {verdict(b, n, m['better'], m['bound'])}")
        ab, fb = _failures(base[key])
        an, fn = _failures(new[key])
        worse = fn / an > fb / ab
        print(f"{workload:18} {'failed':12} {f'{fb}/{ab}':34} {f'{fn}/{an}':34} "
              f"{'':8}  {'worse' if worse else 'no worse'}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]:18} present in only one result set (trace={key[1]})")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        summarize(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        sys.exit(__doc__)
