"""Tests for the ILP formulation and solver."""

from __future__ import annotations

from repro.exact.brute import brute_force_optimal
from repro.exact.dp_single import dp_single_processor
from repro.exact.ilp import build_ilp, ilp_optimal
from repro.schedule.cost import carbon_cost
from repro.schedule.validation import is_feasible


class TestModelConstruction:
    def test_variable_count(self, tiny_single_instance):
        model = build_ilp(tiny_single_instance)
        dag = tiny_single_instance.dag
        horizon = tiny_single_instance.deadline
        expected_starts = sum(horizon - dag.duration(n) + 1 for n in dag.nodes())
        assert model.num_variables == expected_starts + horizon
        assert len(model.brown_index) == horizon

    def test_objective_only_on_brown_variables(self, tiny_single_instance):
        model = build_ilp(tiny_single_instance)
        for (node, start), column in model.start_index.items():
            assert model.objective[column] == 0
        for column in model.brown_index.values():
            assert model.objective[column] == 1

    def test_start_binaries_are_integer(self, tiny_single_instance):
        model = build_ilp(tiny_single_instance)
        for column in model.start_index.values():
            assert model.integrality[column] == 1
        for column in model.brown_index.values():
            assert model.integrality[column] == 0


class TestOptimality:
    def test_matches_brute_force_single(self, tiny_single_instance):
        optimal = ilp_optimal(tiny_single_instance)
        assert is_feasible(optimal)
        assert carbon_cost(optimal) == carbon_cost(brute_force_optimal(tiny_single_instance))

    def test_matches_dp_single(self, tiny_single_instance):
        assert carbon_cost(ilp_optimal(tiny_single_instance)) == carbon_cost(
            dp_single_processor(tiny_single_instance)
        )

    def test_matches_brute_force_multi(self, tiny_multi_instance):
        optimal = ilp_optimal(tiny_multi_instance)
        assert is_feasible(optimal)
        assert carbon_cost(optimal) == carbon_cost(brute_force_optimal(tiny_multi_instance))

    def test_heuristics_never_beat_ilp(self, tiny_multi_instance):
        from repro.core.scheduler import CaWoSched
        from repro.core.variants import variant_names

        optimal_cost = carbon_cost(ilp_optimal(tiny_multi_instance))
        for name in variant_names():
            result = CaWoSched().run(tiny_multi_instance, name)
            assert result.carbon_cost >= optimal_cost

    def test_algorithm_label(self, tiny_single_instance):
        assert ilp_optimal(tiny_single_instance).algorithm == "ILP"
