"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import SeedSequencePool, as_generator


class TestAsGenerator:
    def test_int_seed_is_reproducible(self):
        a = as_generator(42)
        b = as_generator(42)
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert as_generator(1).random() != as_generator(2).random()

    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(99)
        g = as_generator(ss)
        assert isinstance(g, np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_generator(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")


class TestSeedSequencePool:
    def test_same_index_same_stream(self):
        pool_a = SeedSequencePool(5)
        pool_b = SeedSequencePool(5)
        assert pool_a.generator(3).random() == pool_b.generator(3).random()

    def test_indices_are_independent(self):
        pool = SeedSequencePool(5)
        assert pool.generator(0).random() != pool.generator(1).random()

    def test_earlier_children_unaffected_by_growth(self):
        pool_small = SeedSequencePool(5)
        first_small = pool_small.generator(0).random()
        pool_big = SeedSequencePool(5)
        pool_big.generator(49)  # grows the pool to 50 children
        first_big = pool_big.generator(0).random()
        assert first_small == first_big

    def test_len_tracks_created_children(self):
        pool = SeedSequencePool(1)
        pool.generator(4)
        assert len(pool) >= 5

    def test_pool_starts_empty(self):
        assert len(SeedSequencePool(7)) == 0

    def test_children_are_the_root_spawn(self):
        pool = SeedSequencePool(7)
        spawned = np.random.SeedSequence(7).spawn(3)
        assert [pool.generator(i).random() for i in range(3)] == [
            np.random.default_rng(child).random() for child in spawned
        ]

    def test_sequence_and_generator_share_a_stream(self):
        # Worker processes get pool.sequence(i); the serial path uses pool.generator(i).
        pool = SeedSequencePool(7)
        assert np.random.default_rng(pool.sequence(2)).random() == pool.generator(2).random()

    def test_seed_sequence_root_matches_integer_root(self):
        from_sequence = SeedSequencePool(np.random.SeedSequence(7)).generator(0).random()
        assert from_sequence == SeedSequencePool(7).generator(0).random()

    def test_distinct_roots_give_distinct_streams(self):
        assert SeedSequencePool(1).generator(0).random() != SeedSequencePool(2).generator(0).random()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SeedSequencePool(1).generator(-1)

    def test_accepts_generator_seed(self):
        pool = SeedSequencePool(np.random.default_rng(0))
        assert isinstance(pool.generator(0), np.random.Generator)
