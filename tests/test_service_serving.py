"""Tests for admission control in front of the recommendation service.

The contract pinned here: the :class:`AdmissionController` never drops
silently -- every request is either admitted (and eventually drained) or
rejected with an explicit retry-after estimate.
"""

from __future__ import annotations

import pytest

from repro.integration import AdmissionController, BackpressureError, ShardQueue


class TestAdmissionController:
    def test_rejects_when_full_with_retry_after(self):
        controller = AdmissionController(n_shards=1, capacity=2, drain_rate_per_second=4.0)
        controller.admit(0, "a")
        controller.admit(0, "b")
        with pytest.raises(BackpressureError) as excinfo:
            controller.admit(0, "c")
        error = excinfo.value
        assert error.shard_id == 0
        assert error.queue_depth == 2
        assert error.capacity == 2
        assert error.retry_after_seconds == pytest.approx(0.5)
        assert "retry after" in str(error)

    def test_nothing_dropped_silently(self):
        controller = AdmissionController(n_shards=1, capacity=3)
        offered = 10
        admitted = 0
        for i in range(offered):
            try:
                controller.admit(0, i)
                admitted += 1
            except BackpressureError:
                pass
        stats = controller.stats()[0]
        assert stats["admitted"] + stats["rejected"] == offered
        assert stats["admitted"] == admitted == 3

    def test_pop_batch_is_fifo_and_counts_drained(self):
        controller = AdmissionController(n_shards=2, capacity=8)
        for i in range(5):
            controller.admit(1, i)
        assert controller.pop_batch(1, 3) == [0, 1, 2]
        assert controller.pop_batch(1, 3) == [3, 4]
        assert controller.pop_batch(1, 3) == []
        assert controller.stats()[1]["drained"] == 5
        assert controller.depth(1) == 0

    def test_rejection_frees_no_slot_and_admits_after_drain(self):
        controller = AdmissionController(n_shards=1, capacity=1)
        controller.admit(0, "a")
        with pytest.raises(BackpressureError):
            controller.admit(0, "b")
        controller.pop_batch(0, 1)
        controller.admit(0, "c")  # slot freed by draining, not by rejecting
        assert controller.depth(0) == 1

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="n_shards"):
            AdmissionController(n_shards=0)
        with pytest.raises(ValueError, match="capacity"):
            ShardQueue(0, capacity=0)
        with pytest.raises(ValueError, match="drain_rate"):
            AdmissionController(n_shards=1, drain_rate_per_second=0.0)
