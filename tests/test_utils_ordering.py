"""Tests for the topological-order helpers."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.utils.errors import CyclicWorkflowError
from repro.utils.ordering import topological_order


def make_diamond() -> dict:
    return {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}


class TestTopologicalOrder:
    def test_valid_order(self):
        graph = make_diamond()
        order = topological_order(graph)
        assert order in [list(valid) for valid in nx.all_topological_sorts(nx.DiGraph(graph))]

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

