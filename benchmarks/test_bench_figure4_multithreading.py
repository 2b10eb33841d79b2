"""Figure 4: sequential-read throughput as the CntrFS thread count grows."""

import pytest

from repro.bench.harness import figure4_thread_sweep


@pytest.fixture(scope="module")
def sweep():
    return figure4_thread_sweep(thread_counts=(1, 2, 4, 8, 16), size_mb=16)


def test_figure4_thread_sweep(sweep):
    assert [p.threads for p in sweep] == [1, 2, 4, 8, 16]


def test_figure4_more_threads_cost_a_little_throughput(sweep):
    """Paper: throughput drops by up to ~8% going from 1 to 16 threads."""
    single = next(p for p in sweep if p.threads == 1)
    sixteen = next(p for p in sweep if p.threads == 16)
    drop = 1.0 - sixteen.throughput_mb_s / single.throughput_mb_s
    assert 0.0 <= drop <= 0.25, f"unexpected multithreading penalty: {drop:.1%}"


def test_figure4_throughput_monotonically_non_increasing(sweep):
    throughputs = [p.throughput_mb_s for p in sweep]
    assert all(a >= b * 0.98
               for a, b in zip(throughputs, throughputs[1:], strict=False))
