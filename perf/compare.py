"""Compare two sets of benchmark results, or report the spread of one set.

Usage (from the repository root)::

    python3 perf/compare.py PARENT            # spread of one result set
    python3 perf/compare.py PARENT CHANGE     # before/after, one row per metric

Each set is a directory of ``run.py --out`` JSON files, or a single such file:
one file per run, for example one per seed.  Runs of the two sets are paired
by seed (then by order).  Bounds and directions come from ``BENCHMARK.json``.

For every workload x end-to-end metric, a comparison prints both medians and
quartiles and one verdict:

* ``unresolved`` — a wall-clock metric (unit ``s`` or ``us``) with fewer than
  ten pairs, or whose pairs did not take turns at running first.  How fast
  the machine runs the simulator drifts over minutes; only alternated
  pairs put that drift into both sets alike, and only several of them into
  the parent's spread.  Also any metric whose parent spread (quartile
  distance / median) is wider than the bound, unless every change run beats
  every parent run;
* ``worse`` — the change's median is worse than the parent's by more than the
  bound;
* ``better`` — over at least ten paired runs, the change wins at least nine
  tenths and the medians differ by more than the parent's quartile distance;
* ``within bound`` — anything else.

A set of one run has no spread.  It counts as zero only for the metrics not
timed on the wall clock, which repeat exactly for a seed (virtual time) or
within about half a percent (peak RSS).

Exits 1 if any metric is worse, or if a workload's failed-op share or its
count of known divergences rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Paired runs a gain needs before it can be called better, and a wall-clock
#: metric needs before it gets any verdict but unresolved.
MIN_PAIRS = 10
#: Units of the metrics timed on the wall clock.
WALL_CLOCK_UNITS = ("s", "us")


def load_set(path: str) -> dict[str, list[dict]]:
    """workload -> runs, each with its seed, start, metrics and op counts."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    runs: dict[str, list[dict]] = {}
    for file in files:
        data = json.loads(file.read_text())
        for workload, summary in data["workloads"].items():
            runs.setdefault(workload, []).append({
                "seed": data["seed"], "started": summary.get("started"),
                "metrics": summary["metrics"],
                "attempted": summary["attempted"], "failed": summary["failed"],
                "known_divergences": summary["diagnostics"].get("known_divergences", 0)})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool, wall_clock: bool = False,
            alternated: bool = False) -> str:
    """The comparison rule of the module docstring."""
    def beats(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    if wall_clock and (len(pairs) < MIN_PAIRS or not alternated):
        return "unresolved"
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if spread(parent) > bound:
        return "better" if all(beats(c, p) for c in change for p in parent) else "unresolved"
    worse_by = (cm - pm) / abs(pm) if pm else 0.0
    if (worse_by if lower_is_better else -worse_by) > bound:
        return "worse"
    wins = sum(1 for p, c in pairs if beats(c, p))
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and beats(cm, pm) \
            and abs(cm - pm) > p3 - p1:
        return "better"
    return "within bound"


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = {}
    for run in change:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs = []
    for run in parent:
        candidates = by_seed.get(run["seed"])
        if candidates:
            pairs.append((run, candidates.pop(0)))
    return pairs


def alternated(pairs: list[tuple[dict, dict]]) -> bool:
    """Whether each side ran first in half the pairs, give or take one."""
    if any(p["started"] is None or c["started"] is None for p, c in pairs):
        return False
    parent_first = sum(p["started"] < c["started"] for p, c in pairs)
    return abs(2 * parent_first - len(pairs)) <= 1


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = {m["name"]: m for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent = load_set(args.parent)
    change = load_set(args.change) if args.change else None

    status = 0
    if change is None:
        print(f"{'workload':<12} {'metric':<16} {'runs':>4} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    else:
        print(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36} {'change':>8}  verdict")
    for workload, runs in parent.items():
        other = change.get(workload, []) if change is not None else []
        paired = pair_runs(runs, other)
        turns = alternated(paired)
        for name, metric in spec.items():
            values = [r["metrics"][name] for r in runs]
            p1, pm, p3 = quartiles(values)
            if change is None:
                share = spread(values)
                flag = "" if share <= metric["bound"] else "  wider than bound"
                print(f"{workload:<12} {name:<16} {len(values):>4} {pm:>12.6g} {p1:>12.6g} "
                      f"{p3:>12.6g} {share:>7.2%} {metric['bound']:>6.0%}{flag}")
                continue
            if not other:
                print(f"{workload:<12} {name:<16} missing from the change set")
                status = 1
                continue
            new = [r["metrics"][name] for r in other]
            pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in paired]
            c1, cm, c3 = quartiles(new)
            result = verdict(values, new, pairs, metric["bound"], metric["better"] == "lower",
                             metric["unit"] in WALL_CLOCK_UNITS, turns)
            status |= result == "worse"
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{workload:<12} {name:<16} {pm:>12.6g} [{p1:.6g}, {p3:.6g}]".ljust(67) +
                  f" {cm:>12.6g} [{c1:.6g}, {c3:.6g}]".ljust(37) + f" {delta:>+8.2%}  {result}")
        if other:
            before, after = failed_share(runs), failed_share(other)
            if after > before:
                print(f"{workload:<12} failed-op share rose: {before:.4%} -> {after:.4%}")
                status = 1
            before = max(r["known_divergences"] for r in runs)
            after = max(r["known_divergences"] for r in other)
            if after > before:
                print(f"{workload:<12} known divergences rose: {before} -> {after}")
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
