"""CLI entry point: ``python -m repro.trace``.

``--workload NAME`` traces one named Phoronix workload; ``--smoke`` traces
the small fixed write+read pair and sanity-checks the report (CI's
``observe`` job).  The report is printed as JSON; ``wall_s`` is the only
non-deterministic field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.trace import run_traced, smoke_workloads, workload_registry


def _check_smoke(report: dict) -> list[str]:
    """Invariants the smoke report must satisfy; returns violations."""
    problems = []
    if not report["tracepoints"]:
        problems.append("no tracepoints collected")
    if "fuse.dispatch" not in report["tracepoints"]:
        problems.append("fuse.dispatch never fired through the CntrFS mount")
    if report["tracepoints"] != report["subscriber"]:
        problems.append("subscriber counts diverge from tracer counters")
    psi = report["psi"]["timeline"][-1]["psi"]
    for resource, sample in psi.items():
        if sample["full_total_ns"] > sample["some_total_ns"]:
            problems.append(f"psi {resource}: full exceeds some")
    if report["virtual_ns"] <= 0:
        problems.append("workload charged no virtual time")
    return problems


def _non_negative_int(text: str) -> int:
    """argparse type for ``--top``: a row count, so never negative (a
    negative slice bound would silently drop rows from the summary)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a workload with tracepoints + PSI attached and "
                    "emit a JSON observability report.")
    registry = workload_registry()
    parser.add_argument("--workload", choices=sorted(registry),
                        help="named Phoronix workload to trace")
    parser.add_argument("--smoke", action="store_true",
                        help="trace the small fixed write+read pair and "
                             "verify report invariants (CI)")
    parser.add_argument("--top", type=_non_negative_int, default=10,
                        help="rows in the top-cost summary (default 10)")
    parser.add_argument("--output", help="write the JSON report here "
                                         "instead of stdout")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("one of --workload or --smoke is required")

    start = time.monotonic()
    if args.smoke:
        reports = [run_traced(w, top=args.top) for w in smoke_workloads()]
        problems = [p for r in reports for p in _check_smoke(r)]
        payload: dict = {"mode": "smoke", "reports": reports,
                         "problems": problems}
    else:
        payload = run_traced(registry[args.workload], top=args.top)
    payload["wall_s"] = round(time.monotonic() - start, 3)

    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.smoke and payload["problems"]:
        print("smoke check FAILED:", "; ".join(payload["problems"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
