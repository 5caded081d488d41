"""Tests for the topological-order helpers."""

from __future__ import annotations

import pytest

from repro.utils.errors import CyclicWorkflowError
from repro.utils.ordering import is_topological_order, topological_order


def make_diamond() -> dict:
    return {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}


class TestTopologicalOrder:
    def test_valid_order(self):
        graph = make_diamond()
        order = topological_order(graph)
        assert is_topological_order(graph, order)

    def test_deterministic(self):
        graph = make_diamond()
        assert topological_order(graph) == topological_order(graph)

    def test_cycle_raises(self):
        graph = {"a": ["b"], "b": ["a"]}
        with pytest.raises(CyclicWorkflowError):
            topological_order(graph)

    def test_empty_graph(self):
        assert topological_order({}) == []

    def test_single_node(self):
        assert topological_order({"only": []}) == ["only"]

    def test_ties_broken_by_label_then_insertion(self):
        # Labels sort before insertion order; equal keys keep insertion order.
        assert topological_order({"b": [], "a": [], 2: [], "2": []}) == [2, "2", "a", "b"]


class TestIsTopologicalOrder:
    def test_rejects_wrong_length(self):
        graph = make_diamond()
        assert not is_topological_order(graph, ["a", "b", "c"])

    def test_rejects_duplicates(self):
        graph = make_diamond()
        assert not is_topological_order(graph, ["a", "a", "b", "d"])

    def test_rejects_edge_violation(self):
        graph = make_diamond()
        assert not is_topological_order(graph, ["b", "a", "c", "d"])

    def test_accepts_any_valid_order(self):
        graph = make_diamond()
        assert is_topological_order(graph, ["a", "c", "b", "d"])
