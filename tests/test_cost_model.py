"""The worker pool's shard-size rule
(:func:`repro.parallel.executor.choose_shard_size`): a batch too small
to feed every worker is cut finer only when one shard's estimated
mask-kernel work clears the pool's dispatch cost."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.executor import choose_shard_size


class TestChooseShardSize:
    """The parallel shard size is deterministic pure arithmetic with
    sane bounds — the parallel executor's serial-equality proof leans
    on every process computing the same answer."""

    def test_degenerate_shapes_decline(self):
        assert choose_shard_size(0, 10_000, 4, 8) == 8
        assert choose_shard_size(16, 10_000, 1, 8) == 8
        assert choose_shard_size(16, 0, 4, 8) == 8

    def test_saturated_predicate_axis_declines(self):
        # 64 predicates / chunk 8 = 8 shards >= 2 x 4 workers.
        assert choose_shard_size(64, 100_000, 4, 8) == 8

    def test_tiny_shards_decline(self):
        # Almost no rows: a shard's work would be dwarfed by pool
        # dispatch overhead.
        assert choose_shard_size(4, 64, 4, 8) == 8

    def test_few_predicates_many_rows_splits(self):
        size = choose_shard_size(4, 1_000_000, 4, 8)
        assert 1 <= size < 8

    @settings(max_examples=100, deadline=None)
    @given(n_predicates=st.integers(0, 512),
           n_rows=st.integers(0, 2_000_000), workers=st.integers(1, 16),
           batch_chunk=st.integers(1, 1024))
    def test_deterministic_and_bounded(self, n_predicates, n_rows,
                                       workers, batch_chunk):
        first = choose_shard_size(n_predicates, n_rows, workers,
                                  batch_chunk)
        again = choose_shard_size(n_predicates, n_rows, workers,
                                  batch_chunk)
        assert first == again
        assert 1 <= first <= batch_chunk
        if first < batch_chunk:
            # A split never cuts more than 2 x workers shards.
            assert -(-n_predicates // first) <= 2 * workers
