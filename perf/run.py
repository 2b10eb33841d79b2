"""Run the repository benchmark: five workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perf/run.py                        # every workload, seed 1
    python3 perf/run.py --workload meta --seed 2
    python3 perf/run.py --trace 1 --out result.json

Each repetition ("rep") runs in its own fresh interpreter (``perf/rep.py``),
strictly one at a time; a run starts reps until ``RUN_SECONDS`` of measuring
would be exceeded, and always makes at least ``MIN_REPS``.  Every metric is
printed with its name and unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` a further traced rep splits wall and virtual time across the
simulator's layers, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("figures", "meta", "seqio", "conformance", "attach")
#: Measuring time per workload; ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 15
#: Reps a run makes however long they take, so medians have three values.
MIN_REPS = 3
#: Reps of a ``--toy`` run: enough to compare two digests.
TOY_REPS = 2
#: Set-up times a run takes at least.  Set-up on ``figures`` is bimodal
#: (about 0.11 or 0.17 s here) and its three reps let the median flip between
#: the modes, so children that only set up make up the rest.
MIN_SETUPS = 15
#: The calibration probe's time (``workloads.calibration_probe``) on the
#: reference machine in a quieter stretch, taken as ``summarize`` takes it:
#: about the lower quartile over 109 runs of all five workloads in one busy
#: hour.  Wall-clock metrics are rescaled to it.
PROBE_REFERENCE_NS = 17_500
#: A rep that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 150
#: Where traced reps write their spans.
SPANS_DIR = ROOT / ".perf_out"

#: End-to-end metrics: name -> (unit, better, bound).  Units starting with
#: ``virt_`` are simulated time, which repeats exactly for a given seed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_wall_p50_us": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "cntr_overhead": ("ratio", "lower", 0.05),
    "virt_op_p50_us": ("virt_us", "lower", 0.05),
    "virt_op_p99_us": ("virt_us", "lower", 0.05),
}

#: Per-layer counters read from the layers' stats objects:
#: (layer, name, unit, better).
COUNTERS = (
    ("fs.vfs", "dcache_hits", "count", "higher"),
    ("fs.vfs", "dcache_misses", "count", "lower"),
    ("fs.vfs", "dcache_hit_ratio", "ratio", "higher"),
    ("fs.pagecache", "hits", "count", "higher"),
    ("fs.pagecache", "misses", "count", "lower"),
    ("fs.pagecache", "evictions", "count", "lower"),
    ("fs.pagecache", "writebacks", "count", "lower"),
    ("fs.pagecache", "hit_ratio", "ratio", "higher"),
    ("fuse.device", "requests", "count", "lower"),
    ("fuse.device", "req_LOOKUP", "count", "lower"),
    ("fuse.device", "req_GETATTR", "count", "lower"),
    ("fuse.device", "req_READ", "count", "lower"),
    ("fuse.device", "req_WRITE", "count", "lower"),
    ("fuse.device", "req_CREATE", "count", "lower"),
    ("fuse.device", "req_FORGET", "count", "lower"),
    ("fuse.device", "bytes_to_server", "B", "lower"),
    ("fuse.device", "bytes_from_server", "B", "lower"),
    ("fuse.device", "congestion_waits", "count", "lower"),
    ("fuse.device", "congestion_wait_ms", "virt_ms", "lower"),
    ("fuse.device", "requests_per_syscall", "ratio", "lower"),
    ("fs.blockdev", "reads", "count", "lower"),
    ("fs.blockdev", "writes", "count", "lower"),
    ("fs.blockdev", "bytes_read", "B", "lower"),
    ("fs.blockdev", "bytes_written", "B", "lower"),
    ("fs.blockdev", "seeks", "count", "lower"),
    ("fs.blockdev", "flushes", "count", "lower"),
    ("fs.journal", "commits", "count", "lower"),
    ("fs.journal", "records_committed", "count", "lower"),
    ("fs.journal", "data_captures", "count", "lower"),
    ("fs.journal", "replays", "count", "lower"),
    ("fs.writeback", "flushes", "count", "lower"),
    ("fs.writeback", "flushed_mb", "MiB", "lower"),
    ("fs.writeback", "mean_flush_kb", "KiB", "higher"),
    ("fs.writeback", "dirty_throttle_ms", "virt_ms", "lower"),
    ("kernel.snapshot", "forks", "count", "lower"),
    ("sim.sched", "context_switches", "count", "lower"),
    ("sim.sched", "throttled_ms", "virt_ms", "lower"),
    ("trace", "overhead", "ratio", "lower"),
    ("trace", "virt_elapsed_ms", "virt_ms", "lower"),
)


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Per-layer metrics: name -> (unit, better), in report order."""
    spec = {}
    for layer in tracing.LAYERS:
        fields = [("calls", "count"), ("wall_self_ms", "ms"),
                  ("virt_self_ms", "virt_ms"), ("errors", "count")]
        if layer == tracing.HARNESS:
            fields = fields[1:3]
        elif layer == tracing.CLOCK:
            fields = fields[:2]
        for field, unit in fields:
            spec[f"{layer}.{field}"] = (unit, "lower")
    for layer, name, unit, better in COUNTERS:
        spec[f"{layer}.{name}"] = (unit, better)
    return spec


# ---------------------------------------------------------------- statistics
def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0-100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------- reps
class RepFailed(RuntimeError):
    """A rep's interpreter exited with an error or ran out of time."""


def run_rep(workload: str, seed: int, toy: bool, mode: str = "run") -> dict:
    """One rep in a fresh interpreter; returns its JSON measurements.

    ``mode`` is ``run``, ``trace`` or ``setup`` (set up only), as in rep.py.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
           "1" if toy else "0", mode]
    if mode == "trace":
        SPANS_DIR.mkdir(exist_ok=True)
        cmd.append(str(SPANS_DIR / f"spans-{workload}-seed{seed}.json"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload}: rep exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"{workload}: rep exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, toy: bool) -> list[dict]:
    """Untraced reps: ``TOY_REPS`` of them, or as many as fit in ``RUN_SECONDS``."""
    results: list[dict] = []
    start = time.perf_counter()
    while True:
        results.append(run_rep(workload, seed, toy))
        elapsed = time.perf_counter() - start
        if toy:
            if len(results) >= TOY_REPS:
                return results
        elif len(results) >= MIN_REPS and \
                elapsed * (len(results) + 1) / len(results) > RUN_SECONDS:
            return results


def setup_times(workload: str, seed: int, toy: bool, reps: list[dict]) -> list[dict]:
    """Set-up time and probe of each rep, and of set-up-only children up to ``MIN_SETUPS``."""
    wanted = TOY_REPS + 1 if toy else MIN_SETUPS
    children = reps + [run_rep(workload, seed, toy, mode="setup")
                       for _ in range(wanted - len(reps))]
    return [{k: child[k] for k in ("setup_s", "setup_probe_ns")} for child in children]


# ---------------------------------------------------------------- summaries
def summarize(reps: list[dict], setups: list[dict]) -> dict:
    """End-to-end metrics, correctness and diagnostics of untraced reps."""
    first = reps[0]
    failures = [msg for rep in reps for msg in rep["failures"]]
    failed = sum(rep["failed"] for rep in reps)
    for i, rep in enumerate(reps[1:], start=2):
        if rep["digest"] != first["digest"]:
            failed += 1
            failures.append(f"rep {i}: virtual digest {rep['digest']} != {first['digest']}")
        if len(rep["steps"]) != len(first["steps"]):
            failed += 1
            failures.append(f"rep {i}: {len(rep['steps'])} steps != {len(first['steps'])}")
    # The machine is shared, and other tenants slow a process down in bursts
    # of tens to hundreds of milliseconds.  Every rep runs the same steps in
    # the same order, so a step's fastest time across the reps is its time
    # outside a burst, and the sum of those is a rep's time without bursts.
    aligned = [rep for rep in reps if len(rep["steps"]) == len(first["steps"])]
    floor = [min(column) for column in zip(*(rep["steps"] for rep in aligned))]
    # Slower phases last minutes and raise even the fastest times.  The
    # calibration probe, taken the same way, rises with them; rescaling by
    # it gives times as on the reference machine in a quieter stretch.
    probe_ns = statistics.median(min(column) for column in
                                 zip(*(rep["probes"] for rep in reps)))
    scale = PROBE_REFERENCE_NS / probe_ns
    wall_s = sum(floor) * scale / 1e9
    # A workload without per-op steps (figures) has one op: the whole rep.
    op_wall = [floor[i] * scale for i in first["op_steps"]] or [sum(floor) * scale]
    virt = first["op_virt_ns"]
    overhead = first["extra"].get("cntr_overhead",
                                  first["cntr_virt_ns"] / max(1, first["native_virt_ns"]))
    # Each child's set-up is rescaled by the fastest of the probes it timed
    # right after it.
    metrics = {
        "setup_s": statistics.median(child["setup_s"] * PROBE_REFERENCE_NS
                                     / child["setup_probe_ns"] for child in setups),
        "wall_s": wall_s,
        "op_wall_p50_us": percentile(op_wall, 50) / 1e3,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "cntr_overhead": overhead,
        "virt_op_p50_us": percentile(virt, 50) / 1e3,
        "virt_op_p99_us": percentile(virt, 99) / 1e3,
    }
    diagnostics = {
        "reps": len(reps),
        "setups": len(setups),
        "steps": len(floor),
        "probe_ns": probe_ns,
        "unscaled_setup_s": statistics.median(child["setup_s"] for child in setups),
        "unscaled_wall_s": sum(floor) / 1e9,
        "rep_wall_median_s": statistics.median(rep["wall_s"] for rep in reps),
        "op_wall_samples": len(op_wall),
        "op_wall_p90_us": percentile(op_wall, 90) / 1e3,
        "op_wall_p99_us": percentile(op_wall, 99) / 1e3,
        "virt_op_samples": len(virt),
        "native_virt_ms": first["native_virt_ns"] / 1e6,
        "cntr_virt_ms": first["cntr_virt_ns"] / 1e6,
        "virtual_digest": first["digest"],
    }
    diagnostics.update((k, v) for k, v in first["extra"].items() if k not in metrics)
    return {
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "failures": failures[:10],
        "metrics": metrics,
        "diagnostics": diagnostics,
        "reps": [{k: rep[k] for k in ("setup_s", "wall_s", "peak_rss_mb",
                                      "digest", "attempted", "failed")} for rep in reps],
    }


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced rep."""
    out = {}
    for layer in tracing.LAYERS:
        data = trace["layers"][layer]
        out[f"{layer}.calls"] = data["calls"]
        out[f"{layer}.wall_self_ms"] = data["wall_self_ns"] / 1e6
        out[f"{layer}.virt_self_ms"] = data["virt_self_ns"] / 1e6
        out[f"{layer}.errors"] = data["errors"]
    counters = trace["counters"]

    def count(cls: str, name: str) -> int:
        return counters.get(cls, {}).get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in ("dcache_hits", "dcache_misses"):
        out[f"fs.vfs.{name}"] = count("VFS", name)
    out["fs.vfs.dcache_hit_ratio"] = ratio(
        count("VFS", "dcache_hits"), count("VFS", "dcache_hits") + count("VFS", "dcache_misses"))
    for name in ("hits", "misses", "evictions", "writebacks"):
        out[f"fs.pagecache.{name}"] = count("PageCache", name)
    out["fs.pagecache.hit_ratio"] = ratio(
        count("PageCache", "hits"), count("PageCache", "hits") + count("PageCache", "misses"))
    for name in ("requests", "req_LOOKUP", "req_GETATTR", "req_READ", "req_WRITE",
                 "req_CREATE", "req_FORGET", "bytes_to_server", "bytes_from_server",
                 "congestion_waits"):
        out[f"fuse.device.{name}"] = count("FuseConnection", name)
    out["fuse.device.congestion_wait_ms"] = count("FuseConnection", "congestion_wait_ns") / 1e6
    out["fuse.device.requests_per_syscall"] = ratio(
        count("FuseConnection", "requests"), trace["layers"]["kernel.syscalls"]["calls"])
    for name in ("reads", "writes", "bytes_read", "bytes_written", "seeks", "flushes"):
        out[f"fs.blockdev.{name}"] = count("BlockDevice", name)
    for name in ("commits", "records_committed", "data_captures", "replays"):
        out[f"fs.journal.{name}"] = count("Ext4Journal", name)
    flushes = count("WritebackEngine", "flushes")
    flushed = count("WritebackEngine", "flushed_bytes")
    out["fs.writeback.flushes"] = flushes
    out["fs.writeback.flushed_mb"] = flushed / (1 << 20)
    out["fs.writeback.mean_flush_kb"] = ratio(flushed, flushes) / 1024
    out["fs.writeback.dirty_throttle_ms"] = count("WritebackEngine", "dirty_throttle_ns") / 1e6
    out["kernel.snapshot.forks"] = count("KernelSnapshot", "forks")
    out["sim.sched.context_switches"] = count("sim.sched", "context_switches")
    out["sim.sched.throttled_ms"] = count("sim.sched", "throttled_ns") / 1e6
    out["trace.overhead"] = ratio(traced_wall_s, untraced_wall_s)
    out["trace.virt_elapsed_ms"] = trace["virt_elapsed_ns"] / 1e6
    spec = per_layer_spec()
    return {name: out[name] for name in spec}


def measure(workload: str, seed: int, toy: bool, trace: bool) -> dict:
    """Run one workload and return its summary (and per-layer report)."""
    # Epoch seconds, comparable across processes: compare.py checks from it
    # that parent and change runs took turns at running first.
    started = time.time()
    untraced = run_reps(workload, seed, toy)
    summary = summarize(untraced, setup_times(workload, seed, toy, untraced))
    summary["started"] = started
    summary["spec"] = {name: dict(zip(("unit", "better", "bound"), END_TO_END[name]))
                       for name in END_TO_END}
    if not trace:
        return summary
    traced = run_rep(workload, seed, toy, mode="trace")
    report = traced["trace"]
    layers = layer_metrics(report, traced["wall_s"],
                           summary["diagnostics"]["rep_wall_median_s"])
    problems = []
    if traced["digest"] != untraced[0]["digest"]:
        problems.append(f"traced virtual digest {traced['digest']} != "
                        f"untraced {untraced[0]['digest']}")
    if report["ledger_ns"] != report["virt_elapsed_ns"]:
        problems.append(f"ledger {report['ledger_ns']} ns != elapsed "
                        f"{report['virt_elapsed_ns']} ns")
    summary["failed"] += len(problems) + traced["failed"]
    summary["attempted"] += traced["attempted"]
    summary["failures"] = (summary["failures"] + problems + traced["failures"])[:10]
    summary["correct"] = summary["failed"] == 0
    summary["per_layer"] = layers
    summary["per_layer_spec"] = {name: dict(zip(("unit", "better"), value))
                                 for name, value in per_layer_spec().items()}
    summary["trace"] = {k: report[k] for k in ("ledger_ns", "virt_elapsed_ns",
                                               "spans_kept", "spans_dropped")}
    summary["trace"]["virtual_digest"] = traced["digest"]
    return summary


# ---------------------------------------------------------------- output
def print_summary(workload: str, seed: int, summary: dict, trace: bool) -> None:
    diag = summary["diagnostics"]
    print(f"== {workload} (seed {seed}, {diag['reps']} reps, "
          f"{summary['attempted']} ops, {summary['failed']} failed)")
    for msg in summary["failures"]:
        print(f"   FAILED: {msg}")
    for name, value in summary["metrics"].items():
        print(f"   {name:<20} {value:>14.6g} {END_TO_END[name][0]}")
    for name, value in diag.items():
        print(f"   ({name} = {value})")
    if trace:
        spec = per_layer_spec()
        wall_total = sum(v for k, v in summary["per_layer"].items()
                         if k.endswith(".wall_self_ms"))
        virt_total = sum(v for k, v in summary["per_layer"].items()
                         if k.endswith(".virt_self_ms"))
        print(f"   per layer (traced rep: wall {wall_total:.1f} ms, "
              f"virtual {virt_total:.3f} ms):")
        for layer in tracing.LAYERS:
            wall = summary["per_layer"][f"{layer}.wall_self_ms"]
            virt = summary["per_layer"].get(f"{layer}.virt_self_ms", 0.0)
            calls = summary["per_layer"].get(f"{layer}.calls", "")
            print(f"   {layer:<16} calls {calls!s:>9}  wall {wall:10.2f} ms "
                  f"({100 * wall / max(wall_total, 1e-9):5.1f}%)  virtual {virt:12.3f} ms "
                  f"({100 * virt / max(virt_total, 1e-9):5.1f}%)")
        for name, value in summary["per_layer"].items():
            if not name.endswith(("calls", "self_ms", "errors")):
                print(f"   {name:<34} {value:>14.6g} {spec[name][0]}")


def result_line(summaries: dict[str, dict], trace: bool) -> dict:
    """The final JSON object: flat metrics for one workload, prefixed for many."""
    key = "per_layer" if trace else "metrics"
    units = {n: u for n, (u, _b) in per_layer_spec().items()} if trace else \
        {n: spec[0] for n, spec in END_TO_END.items()}
    metrics = {}
    for workload, summary in summaries.items():
        prefix = "" if len(summaries) == 1 else f"{workload}."
        for name, value in summary[key].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {"correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    # The run length is fixed, so that two commits are always measured alike;
    # the argument exists because the benchmark's command line passes it.
    parser.add_argument("--seconds", type=float, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                        help="measuring time per workload; only the fixed run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="add one traced rep and report per-layer metrics")
    parser.add_argument("--toy", action="store_true",
                        help=f"shrink every workload to smoke-test size, {TOY_REPS} reps")
    parser.add_argument("--out", help="write the full result as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2

    summaries = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            summaries[workload] = measure(workload, args.seed, args.toy, bool(args.trace))
        except RepFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(workload, args.seed, summaries[workload], bool(args.trace))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": RUN_SECONDS, "toy": args.toy,
                       "trace": bool(args.trace), "nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "machine": platform.machine(), "workloads": summaries},
                      fh, indent=1)
            fh.write("\n")
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
