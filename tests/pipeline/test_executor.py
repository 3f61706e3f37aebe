"""Batch executor ordering, fan-out, and failure attribution."""

import threading
import time

import pytest

from repro.pipeline.executor import BatchExecutor, BatchItemError


def _reject_three(x):
    if x == 3:
        raise RuntimeError("three is right out")
    return x


class TestBatchExecutor:
    def test_serial_default(self):
        assert BatchExecutor().map(lambda x: x * 2, [1, 2, 3]) == \
            [2, 4, 6]

    def test_empty_input(self):
        assert BatchExecutor(workers=4).map(lambda x: x, []) == []

    def test_result_order_matches_input_order(self):
        def slow_for_small(x):
            time.sleep(0.02 if x < 2 else 0.0)
            return x

        result = BatchExecutor(workers=4).map(slow_for_small,
                                              list(range(8)))
        assert result == list(range(8))

    def test_actually_fans_out(self):
        seen = set()
        barrier = threading.Barrier(2, timeout=5)

        def rendezvous(x):
            seen.add(threading.get_ident())
            barrier.wait()
            return x

        BatchExecutor(workers=2).map(rendezvous, [1, 2])
        assert len(seen) == 2

    def test_workers_capped_by_items(self):
        # 100 workers over 2 items must not explode
        assert BatchExecutor(workers=100).map(lambda x: x, [1, 2]) == \
            [1, 2]


class TestFailureAttribution:
    """A worker exception names the input item that caused it,
    serial or threaded."""

    @pytest.mark.parametrize("executor", [
        BatchExecutor(),
        BatchExecutor(workers=2),
    ], ids=["serial", "thread"])
    def test_failure_carries_index_and_item(self, executor):
        with pytest.raises(BatchItemError) as excinfo:
            executor.map(_reject_three, [0, 1, 2, 3, 4])
        assert excinfo.value.index == 3
        assert excinfo.value.item == 3
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "item 3" in str(excinfo.value)

    def test_error_message_truncates_huge_items(self):
        huge = {"k": list(range(10_000))}
        with pytest.raises(BatchItemError) as excinfo:
            BatchExecutor().map(lambda _: 1 / 0, [huge])
        assert len(str(excinfo.value)) < 500
        assert excinfo.value.item is huge
