"""Request queue and FIFO-prefix batching unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import AdaptiveBatcher, RequestQueue


def image(n=1):
    return np.zeros((n, 1, 4, 4), dtype=np.float32)


def fifo_batcher(queue, batch_window, max_rows=None):
    """The greedy fixed-window policy: no deadlines, no waiting."""
    return AdaptiveBatcher(
        queue, batch_window, max_rows=max_rows, batch_timeout=0.0,
        deadline_aware=False,
    )


class TestRequestQueue:
    def test_fifo_ids(self):
        queue = RequestQueue()
        assert queue.submit(image()) == 0
        assert queue.submit(image()) == 1
        window = queue.pop_window(5)
        assert [r.request_id for r in window] == [0, 1]
        assert len(queue) == 0

    def test_single_image_gains_batch_dim(self):
        queue = RequestQueue()
        queue.submit(np.zeros((1, 4, 4), dtype=np.float32))
        request = queue.pop_window(1)[0]
        assert request.images.shape == (1, 1, 4, 4)
        assert request.rows == 1

    def test_invalid_shapes_rejected(self):
        queue = RequestQueue()
        with pytest.raises(ConfigurationError):
            queue.submit(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            queue.submit(image(0))

    def test_pop_window_bounds(self):
        queue = RequestQueue()
        for _ in range(5):
            queue.submit(image())
        assert len(queue.pop_window(3)) == 3
        assert len(queue.pop_window(3)) == 2
        assert queue.pop_window(3) == []
        with pytest.raises(ConfigurationError):
            queue.pop_window(0)


class TestFifoPrefixBatches:
    def test_window_respected(self):
        queue = RequestQueue()
        for _ in range(10):
            queue.submit(image())
        batcher = fifo_batcher(queue, batch_window=4)
        sizes = []
        while True:
            batch = batcher.next_batch(0.0, flush=True)
            if not batch:
                break
            sizes.append(len(batch))
        assert sizes == [4, 4, 2]

    def test_max_rows_caps_multi_image_requests(self):
        queue = RequestQueue()
        for rows in (3, 3, 3):
            queue.submit(image(rows))
        batcher = fifo_batcher(queue, batch_window=8, max_rows=6)
        first = batcher.next_batch(0.0, flush=True)
        assert [r.rows for r in first] == [3, 3]
        second = batcher.next_batch(0.0, flush=True)
        assert [r.rows for r in second] == [3]

    def test_oversized_request_still_ships_alone(self):
        queue = RequestQueue()
        queue.submit(image(10))
        queue.submit(image(1))
        batcher = fifo_batcher(queue, batch_window=4, max_rows=4)
        first = batcher.next_batch(0.0, flush=True)
        assert [r.rows for r in first] == [10]
        assert [r.rows for r in batcher.next_batch(0.0, flush=True)] == [1]

    def test_order_preserved_after_putback(self):
        queue = RequestQueue()
        ids = [queue.submit(image(2)) for _ in range(4)]
        batcher = fifo_batcher(queue, batch_window=4, max_rows=4)
        seen = []
        while True:
            batch = batcher.next_batch(0.0, flush=True)
            if not batch:
                break
            seen.extend(r.request_id for r in batch)
        assert seen == ids

    def test_invalid_config_rejected(self):
        queue = RequestQueue()
        with pytest.raises(ConfigurationError):
            fifo_batcher(queue, batch_window=0)
        with pytest.raises(ConfigurationError):
            fifo_batcher(queue, batch_window=2, max_rows=0)


class TestSloAndSessions:
    def test_slo_and_session_stamped_on_request(self):
        queue = RequestQueue()
        queue.submit(image(), slo_seconds=0.05, session_id="user-1")
        request = queue.peek()
        assert request.slo_seconds == 0.05
        assert request.session_id == "user-1"
        assert request.deadline == pytest.approx(request.submitted_at + 0.05)

    def test_no_slo_means_no_deadline(self):
        queue = RequestQueue()
        queue.submit(image())
        assert queue.peek().deadline is None

    def test_nonpositive_slo_rejected(self):
        queue = RequestQueue()
        with pytest.raises(ConfigurationError):
            queue.submit(image(), slo_seconds=0.0)
        with pytest.raises(ConfigurationError):
            queue.submit(image(), slo_seconds=-1.0)

    def test_injected_clock_stamps_submission(self):
        ticks = iter([3.5, 7.25])
        queue = RequestQueue(clock=lambda: next(ticks))
        queue.submit(image())
        queue.submit(image())
        stamped = [r.submitted_at for r in queue]
        assert stamped == [3.5, 7.25]

    def test_iteration_is_fifo_and_non_destructive(self):
        queue = RequestQueue()
        ids = [queue.submit(image()) for _ in range(3)]
        assert [r.request_id for r in queue] == ids
        assert len(queue) == 3

    def test_peek_empty(self):
        assert RequestQueue().peek() is None
