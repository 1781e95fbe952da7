"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are each a directory searched recursively for the
run records ``run.py`` writes (``<workload>-s<seed>-trace<0|1>.json``; give
repeated runs of one seed their own ``--out`` below it) or a baseline file
under ``baselines/``.  For every (workload, end-to-end metric) pair the tool prints
each side's median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``      -- the after-median is worse than the before-median by more
  than the bound;
* ``unresolved`` -- a side's quartile spread (as a share of its median) is
  wider than the bound, and not every after-run beats every before-run;
* ``better``     -- the after-median improves by more than the before-side's
  spread (or every after-run beats every before-run);
* ``same``       -- otherwise.

Each workload also gets a ``failed ops`` row: the failed over the attempted
operations of all its runs on each side.  It is ``worse`` when the after-side
share is higher, with no allowance.  Per-layer metrics from traced runs are
listed side by side, without verdicts.  The exit code is 1 when any row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

Values = Dict[Tuple[str, str], List[float]]


def load_runs(source: Path) -> List[dict]:
    """Run records from a directory tree of run JSONs or a baseline file."""
    if source.is_dir():
        return [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(source.rglob("*-trace[01].json"))
        ]
    return json.loads(source.read_text(encoding="utf-8"))["runs"]


def collect(runs: List[dict], trace: int) -> Values:
    values: Values = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def failed_share(runs: List[dict]) -> Dict[str, Tuple[int, int]]:
    """``workload -> (failed, attempted)`` over every run, traced or not."""
    counts: Dict[str, Tuple[int, int]] = {}
    for run in runs:
        failed, attempted = counts.get(run["workload"], (0, 0))
        counts[run["workload"]] = (failed + run["failed"], attempted + run["attempted"])
    return counts


def summary(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base) if base else 0.0
    if better == "lower":
        dominates = max(after) < min(before)
    else:
        dominates = min(after) > max(before)
    if max(spread(before), spread(after)) > bound:
        return "better" if dominates else "unresolved"
    if change > bound:
        return "worse"
    if -change > spread(before) or dominates:
        return "better"
    return "same"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before_runs, after_runs = load_runs(args.before), load_runs(args.after)

    before, after = collect(before_runs, 0), collect(after_runs, 0)
    workloads = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':8s} {'metric':20s} {'before q1/med/q3':>32s} {'after q1/med/q3':>32s}"
    print(header + f" {'change':>8s}  verdict")
    worse = 0
    before_failed, after_failed = failed_share(before_runs), failed_share(after_runs)
    for workload in workloads:
        if workload in before_failed and workload in after_failed:
            (bf, ba), (af, aa) = before_failed[workload], after_failed[workload]
            result = "worse" if af * ba > bf * aa else "same"
            worse += result == "worse"
            print(f"{workload:8s} {'failed ops':20s} {f'{bf}/{ba}':>32s} {f'{af}/{aa}':>32s}"
                  f" {'':8s}  {result}")
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in before or key not in after:
                continue
            b, a = before[key], after[key]
            result = verdict(b, a, metric["better"], metric["bound"])
            worse += result == "worse"
            change = statistics.median(a) / statistics.median(b) - 1.0
            print(
                f"{workload:8s} {metric['name']:20s} "
                + " ".join(f"{v:10.4g}" for v in summary(b)) + " "
                + " ".join(f"{v:10.4g}" for v in summary(a))
                + f" {change:+8.1%}  {result} (n={len(b)}/{len(a)})"
            )

    before, after = collect(before_runs, 1), collect(after_runs, 1)
    if before and after:
        print(f"\n{'workload':8s} {'per-layer metric':46s} {'before':>12s} {'after':>12s}")
        for workload in workloads:
            for metric in spec["per_layer"]:
                key = (workload, metric["name"])
                if key in before and key in after:
                    print(
                        f"{workload:8s} {metric['name']:46s} "
                        f"{statistics.median(before[key]):12.5g} "
                        f"{statistics.median(after[key]):12.5g}"
                    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
