"""Tests for Task and CommTask."""

from __future__ import annotations

import pytest

from repro.workflow.task import CommTask, Task


class TestTask:
    def test_defaults(self):
        task = Task("a")
        assert task.work == 1
        assert task.category is None

    def test_invalid_work(self):
        with pytest.raises(ValueError):
            Task("a", work=0)
        with pytest.raises(ValueError):
            Task("a", work=-3)

    def test_frozen(self):
        task = Task("a")
        with pytest.raises(AttributeError):
            task.work = 5  # type: ignore[misc]

    def test_equality(self):
        assert Task("a", 2) == Task("a", 2)
        assert Task("a", 2) != Task("a", 3)


class TestCommTask:
    def test_name_is_unique_tuple(self):
        comm = CommTask("u", "v", volume=3)
        assert comm.name == ("comm", "u", "v")
        assert comm.edge == ("u", "v")

    def test_invalid_volume(self):
        with pytest.raises(ValueError):
            CommTask("u", "v", volume=0)

    def test_hashable_and_distinct(self):
        a = CommTask("u", "v", 1)
        b = CommTask("v", "u", 1)
        assert a.name != b.name
        assert len({a, b}) == 2
