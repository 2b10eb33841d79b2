"""Figure 2: relative overhead of CntrFS for the Phoronix disk suite.

One test per workload checks that both sides of its comparison charge
virtual time; the shape summary checks the worst cases and the wins against
the paper.  ``python3 perf/run.py --workload figures`` times the regeneration
and reports the overheads' geometric mean (``cntr_overhead``) and their
distance from the paper's (``fig2_log_err``).
"""

import pytest

from repro.bench.harness import run_comparison
from repro.bench.phoronix import ALL_WORKLOADS


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_figure2_relative_overhead(workload):
    result = run_comparison(workload)
    assert result.native_ns > 0 and result.cntr_ns > 0


def test_figure2_shape_summary():
    """Aggregate shape check: the worst cases and the wins match the paper."""
    from repro.bench.phoronix import (
        CompilebenchCreate,
        CompilebenchRead,
        Dbench,
        Fio,
        PostMark,
        ThreadedIoWrite,
    )

    lookups_heavy = [run_comparison(w) for w in
                     (CompilebenchRead(), CompilebenchCreate(), PostMark())]
    cache_friendly = run_comparison(Dbench(12, paper_overhead=0.9))
    writeback_wins = [run_comparison(w) for w in (Fio(), ThreadedIoWrite())]

    # Lookup-heavy workloads are the worst cases (paper: 13.3x / 7.3x / 7.1x).
    assert all(r.overhead > 2.5 for r in lookups_heavy)
    # Cache-friendly file-server mixes stay close to native (paper: ~0.9-1.0x).
    assert cache_friendly.overhead < 2.0
    # Writeback-friendly write workloads do not lose to native (paper: 0.2-0.3x).
    assert all(r.overhead < 1.6 for r in writeback_wins)
