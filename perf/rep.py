"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts one of these per rep, strictly one at a time::

    python perf/rep.py WORKLOAD SEED TOY MODE [SPANS_JSON]

``TOY`` is ``0`` or ``1``.  ``MODE`` is ``run``, ``trace`` (a traced rep) or
``setup`` (set up, then stop before the first op).  The last line of
standard output is one JSON object with the rep's measurements.  Set-up time
is counted from the first statement below, before the simulator is
imported, to the end of the workload's build.  The calibration probes timed
next, to rescale it, are neither set-up nor measured work.
"""

import time

START = time.perf_counter_ns()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: Calibration probes timed right after set-up (about 2 ms in all).
SETUP_PROBES = 50


def peak_rss_mb() -> float:
    """This interpreter's peak resident set size, in MiB.

    Read from ``VmHWM``, not ``ru_maxrss``: Linux carries the parent's
    resident set at the moment of ``exec`` into the child's ``ru_maxrss``,
    so that would also measure ``run.py`` holding earlier reps' samples.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    workload, seed, toy, mode = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    run = workloads.WORKLOADS[workload](seed, toy)
    setup_s = (time.perf_counter_ns() - START) / 1e9
    # How fast the machine ran just now, to rescale this child's set-up time.
    setup_probe_ns = min(workloads.time_probe() for _ in range(SETUP_PROBES))
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_probe_ns": setup_probe_ns}))
        return 0
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter_ns()
    rep = workloads.Rep(t0)
    run(rep)
    wall_s = (time.perf_counter_ns() - t0) / 1e9
    out = {
        "setup_s": setup_s,
        "setup_probe_ns": setup_probe_ns,
        "wall_s": wall_s,
        "steps": rep.steps,
        "op_steps": rep.op_steps,
        "probes": rep.probes,
        "op_virt_ns": rep.op_virt_ns,
        "native_virt_ns": rep.native_virt_ns,
        "cntr_virt_ns": rep.cntr_virt_ns,
        "attempted": rep.attempted,
        "failed": len(rep.failures),
        "failures": rep.failures[:5],
        "digest": hashlib.sha256(repr(rep.virtual).encode()).hexdigest()[:16],
        "extra": rep.extra,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["trace"] = tracer.finish(int(wall_s * 1e9))
        tracer.dump_spans(argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
