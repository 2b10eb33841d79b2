"""Figure 3: effectiveness of the individual CntrFS optimizations."""

import pytest


@pytest.fixture(scope="module")
def effects(regeneration):
    """Figure 3 from the session's one regeneration, by panel."""
    return {e.name: e for e in regeneration["fig3"][0]}


def test_figure3_collects_all_four_panels(effects):
    assert set(effects) == {"read_cache", "writeback_cache", "batching", "splice_read"}


def test_figure3a_read_cache_improves_threaded_reads(effects):
    # Paper: ~10x with FOPEN_KEEP_CACHE.  Shape requirement: a substantial win.
    assert effects["read_cache"].improvement > 1.5


def test_figure3b_writeback_cache_improves_sequential_writes(effects):
    # Paper: +65% write throughput.
    assert effects["writeback_cache"].improvement > 1.2


def test_figure3c_batching_improves_tree_reads(effects):
    # Paper: ~2.5x with FUSE_PARALLEL_DIROPS.
    assert effects["batching"].improvement > 1.05


def test_figure3d_splice_read_is_a_small_effect(effects):
    # Paper: ~5% improvement; shape requirement: small effect either way.
    assert 0.7 < effects["splice_read"].improvement < 1.5
