"""Batch ordering and failure attribution.

``PPChecker.check_batch`` runs inline: it calls ``self.check`` on each
bundle in turn (so a subclass's override, e.g. ``ExtendedPPChecker``,
is what runs) and returns the outcomes in input order.  An aborted
batch raises ``BatchItemError`` naming the failing item.
"""

from dataclasses import dataclass

import pytest

from repro.core.checker import PPChecker
from repro.pipeline import BatchItemError


@dataclass(frozen=True)
class Item:
    package: str
    value: int


class ScriptedChecker(PPChecker):
    """``check`` doubles ``item.value`` and rejects 3."""

    def check(self, bundle):
        if bundle.value == 3:
            raise RuntimeError("three is right out")
        return bundle.value * 2


def items(*values):
    return [Item(f"com.example.app{value}", value) for value in values]


class TestBatchExecutor:
    def test_serial_default(self):
        assert ScriptedChecker().check_batch(items(1, 2, 4)) == \
            [2, 4, 8]

    def test_empty_input(self):
        assert ScriptedChecker().check_batch([]) == []

    def test_result_order_matches_input_order(self):
        values = [5, 0, 7, 2, 6, 1]
        assert ScriptedChecker().check_batch(items(*values)) == \
            [2 * value for value in values]


def _reject_item_three(bundle, outcome):
    if bundle.value == 3:
        raise RuntimeError("three is right out")


class TestFailureAttribution:
    """An aborted batch names the input item that caused it, whether
    the check raised or the ``on_outcome`` hook did."""

    @pytest.mark.parametrize("mode", [
        {},
        {"on_error": "quarantine", "on_outcome": _reject_item_three},
    ], ids=["serial", "on_outcome"])
    def test_failure_carries_index_and_item(self, mode):
        batch = items(0, 1, 2, 3, 4)
        with pytest.raises(BatchItemError) as excinfo:
            ScriptedChecker().check_batch(batch, **mode)
        assert excinfo.value.index == 3
        assert excinfo.value.item is batch[3]
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "item 3" in str(excinfo.value)

    def test_error_message_truncates_huge_items(self):
        huge = {"k": list(range(10_000))}
        error = BatchItemError(0, huge, ZeroDivisionError("boom"))
        assert len(str(error)) < 500
        assert error.item is huge
