"""Tests for the brute-force oracle."""

from __future__ import annotations

import pytest

from repro.exact.brute import brute_force_optimal
from repro.schedule.cost import carbon_cost
from repro.schedule.validation import is_feasible
from repro.utils.errors import SolverError


class TestBruteForce:
    def test_result_is_feasible(self, tiny_single_instance):
        assert is_feasible(brute_force_optimal(tiny_single_instance))

    def test_not_worse_than_any_heuristic(self, tiny_multi_instance):
        from repro.core.scheduler import CaWoSched
        from repro.core.variants import variant_names

        optimal = carbon_cost(brute_force_optimal(tiny_multi_instance))
        for name in variant_names():
            result = CaWoSched().run(tiny_multi_instance, name)
            assert optimal <= result.carbon_cost

    def test_node_limit_enforced(self, tiny_multi_instance):
        with pytest.raises(SolverError):
            brute_force_optimal(tiny_multi_instance, max_nodes=2)

    def test_state_limit_enforced(self, tiny_single_instance):
        with pytest.raises(SolverError):
            brute_force_optimal(tiny_single_instance, max_states=3)

    def test_deterministic(self, tiny_single_instance):
        a = brute_force_optimal(tiny_single_instance)
        b = brute_force_optimal(tiny_single_instance)
        assert a.start_times() == b.start_times()
