"""Hot-path regression harness: wall-clock *and* virtual-time measurements.

Unlike the Figure 2-4 generators (which only care about simulated time), this
harness measures how fast the simulator itself runs — the wall-clock cost of
pushing GB-scale sequential workloads through ``FuseClientFs``.  It exists to
prove that the extent-based page cache, the batched FUSE dispatch and the VFS
dentry cache keep the hot paths O(extents touched) instead of O(pages
touched): the same script run against the per-page seed implementation and
against the extent engine yields the speedup recorded in
``BENCH_hotpath.json`` (see PERFORMANCE.md for how to read that file).

Run it directly::

    PYTHONPATH=src python -m repro.bench.hotpath --size-mb 1024 \
        --label optimized --out BENCH_hotpath.json

Results for multiple labels accumulate in the output JSON; when both a
``seed`` and an ``optimized`` entry are present, a ``speedup`` section is
computed automatically.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass

from repro.bench.harness import BenchEnvironment
from repro.fs.constants import OpenFlags


@dataclass
class HotpathResult:
    """One measured phase of the hot-path workload."""

    workload: str
    bytes_processed: int
    record_bytes: int
    wall_seconds: float
    virtual_ms: float
    syscalls: int

    @property
    def wall_mb_s(self) -> float:
        """Real-time throughput of the *simulator* (not the simulated disk)."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.bytes_processed / 1e6 / self.wall_seconds

    def to_dict(self) -> dict:
        data = asdict(self)
        data["wall_mb_s"] = round(self.wall_mb_s, 2)
        data["wall_seconds"] = round(self.wall_seconds, 3)
        data["virtual_ms"] = round(self.virtual_ms, 3)
        return data


def _measure(env: BenchEnvironment, name: str, nbytes: int, record: int,
             func) -> HotpathResult:
    start_virtual = env.machine.clock.now_ns
    start_wall = time.perf_counter()
    syscalls = func()
    wall = time.perf_counter() - start_wall
    virtual = env.machine.clock.now_ns - start_virtual
    return HotpathResult(workload=name, bytes_processed=nbytes,
                         record_bytes=record, wall_seconds=wall,
                         virtual_ms=virtual / 1e6, syscalls=syscalls)


def run_hotpath(size_mb: int = 1024, record_kb: int = 64,
                page_cache_mb: int = 4096) -> list[HotpathResult]:
    """The acceptance workload: sequential write + read of ``size_mb`` MiB
    through a CntrFS mount, in ``record_kb`` KiB records.

    Returns one result per phase: buffered write (+fsync), cold sequential
    read (FUSE-side caches dropped first) and warm sequential read (page
    cache resident).
    """
    env = BenchEnvironment(page_cache_mb=page_cache_mb)
    sc, base = env.cntr_access()
    sc.makedirs(f"{base}/hotpath")
    path = f"{base}/hotpath/seq.dat"
    total = size_mb << 20
    record = record_kb << 10
    results = []

    def write_phase() -> int:
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY, 0o644)
        calls = 1
        chunk = b"w" * record
        try:
            written = 0
            while written < total:
                sc.write(fd, chunk)
                written += record
                calls += 1
            sc.fsync(fd)
            calls += 1
        finally:
            sc.close(fd)
            calls += 1
        return calls

    def read_phase() -> int:
        fd = sc.open(path, OpenFlags.O_RDONLY)
        calls = 1
        try:
            while True:
                data = sc.read(fd, record)
                calls += 1
                if not data:
                    break
        finally:
            sc.close(fd)
            calls += 1
        return calls

    results.append(_measure(env, "seq_write", total, record, write_phase))
    env.drop_fuse_caches()
    results.append(_measure(env, "seq_read_cold", total, record, read_phase))
    results.append(_measure(env, "seq_read_warm", total, record, read_phase))
    return results


def _merge_json(out_path: str, label: str, payload: dict) -> dict:
    data = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            data = json.load(fh)
    data[label] = payload
    if "seed" in data and "optimized" in data:
        speedup = {}
        seed_phases = {r["workload"]: r for r in data["seed"]["phases"]}
        for phase in data["optimized"]["phases"]:
            ref = seed_phases.get(phase["workload"])
            if ref and phase["wall_seconds"] > 0:
                speedup[phase["workload"]] = round(
                    ref["wall_seconds"] / phase["wall_seconds"], 2)
        seed_total = data["seed"]["total_wall_seconds"]
        opt_total = data["optimized"]["total_wall_seconds"]
        speedup["total"] = round(seed_total / opt_total, 2) if opt_total else None
        data["speedup"] = speedup
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size-mb", type=int, default=1024)
    parser.add_argument("--record-kb", type=int, default=64)
    parser.add_argument("--label", default="optimized",
                        help="result key in the output JSON (seed | optimized)")
    parser.add_argument("--out", default="BENCH_hotpath.json")
    args = parser.parse_args(argv)

    results = run_hotpath(size_mb=args.size_mb, record_kb=args.record_kb)
    payload = {
        "workload": f"{args.size_mb}MiB sequential write+read through FuseClientFs",
        "record_kb": args.record_kb,
        "phases": [r.to_dict() for r in results],
        "total_wall_seconds": round(sum(r.wall_seconds for r in results), 3),
    }
    data = _merge_json(args.out, args.label, payload)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        print(f"{r.workload:<28} wall={r.wall_seconds:8.3f}s "
              f"({r.wall_mb_s:9.1f} MB/s of simulator throughput) "
              f"virtual={r.virtual_ms:10.1f}ms syscalls={r.syscalls}")
    print(f"total wall: {payload['total_wall_seconds']}s -> {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
