"""Figure 2: relative overhead of CntrFS for the Phoronix disk suite.

One test per workload checks that both sides of its comparison charge
virtual time; the shape summary checks the worst cases and the wins against
the paper.  ``python3 perf/run.py --workload figures`` times the regeneration
and reports the overheads' geometric mean (``cntr_overhead``) and their
distance from the paper's (``fig2_log_err``).
"""

import pytest

from repro.bench.phoronix import ALL_WORKLOADS


@pytest.fixture(scope="module")
def results(regeneration):
    """Figure 2 from the session's one regeneration, by workload name."""
    return {r.workload: r for r in regeneration["fig2"][0]}


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_figure2_relative_overhead(workload, results):
    result = results[workload.name]
    assert result.native_ns > 0 and result.cntr_ns > 0


def test_figure2_shape_summary(results):
    """Aggregate shape check: the worst cases and the wins match the paper."""
    lookups_heavy = [results[name] for name in
                     ("Compileb.: Read", "Compileb.: Create", "PostMark")]
    cache_friendly = results["Dbench: 12 Clients"]
    writeback_wins = [results[name] for name in ("FIO", "Threaded I/O: Write")]

    # Lookup-heavy workloads are the worst cases (paper: 13.3x / 7.3x / 7.1x).
    assert all(r.overhead > 2.5 for r in lookups_heavy)
    # Cache-friendly file-server mixes stay close to native (paper: ~0.9-1.0x).
    assert cache_friendly.overhead < 2.0
    # Writeback-friendly write workloads do not lose to native (paper: 0.2-0.3x).
    assert all(r.overhead < 1.6 for r in writeback_wins)
