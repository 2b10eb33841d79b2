"""Ablation benches for the design choices DESIGN.md calls out.

These are not figures from the paper; they quantify the trade-offs the paper
discusses in prose: splice-write disabled by default, the delayed-sync
consistency trade-off of the writeback cache, and the missing kernel-side
xattr cache that causes the small-write overhead.
"""


from repro.bench.harness import BenchEnvironment, _run_in
from repro.bench.phoronix import IoZoneWrite, Sqlite
from repro.fuse.options import FuseMountOptions


def _measure(workload, options=None, delay_sync=True, xattr_lookup=True):
    env = BenchEnvironment(options=options or FuseMountOptions.paper_defaults(),
                           delay_sync=delay_sync)
    env.client.xattr_lookup_on_write = xattr_lookup
    return _run_in(env, workload, through_cntr=True)


def test_ablation_splice_write_costs_more():
    """The paper disables splice-write because the header peek adds a context switch."""
    defaults = FuseMountOptions.paper_defaults()
    off = _measure(IoZoneWrite(size_mb=8), defaults.with_overrides(splice_write=False,
                                                                   writeback_cache=False))
    on = _measure(IoZoneWrite(size_mb=8), defaults.with_overrides(splice_write=True,
                                                                  writeback_cache=False))
    assert on >= off * 0.95, "splice-write should not be a clear win (paper disables it)"


def test_ablation_delayed_sync_tradeoff():
    """Delaying sync (writeback consistency trade-off) speeds up fsync-heavy loads."""
    delayed = _measure(Sqlite(), delay_sync=True)
    strict = _measure(Sqlite(), delay_sync=False)
    assert delayed < strict


def test_ablation_hypothetical_xattr_cache():
    """Caching security.capability would remove the small-write overhead."""
    with_lookup = _measure(IoZoneWrite(size_mb=8), xattr_lookup=True)
    without_lookup = _measure(IoZoneWrite(size_mb=8), xattr_lookup=False)
    assert without_lookup < with_lookup
