"""Tests for the Table 1 cluster presets."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.platform_.presets import (
    CLUSTER_PRESETS,
    PROCESSOR_TYPES,
    cluster_from_table1,
    cluster_preset,
    large_cluster,
    scaled_large_cluster,
    scaled_small_cluster,
    single_processor_cluster,
    small_cluster,
    table1_rows,
    uniform_cluster,
)


class TestTable1:
    def test_six_types(self):
        assert len(PROCESSOR_TYPES) == 6

    def test_exact_values_from_paper(self):
        rows = {row["Processor Name"]: row for row in table1_rows()}
        assert rows["PT1"] == {
            "Processor Name": "PT1", "Speed": 4, "Pidle": 40, "Pwork": 10,
            "small": 12, "large": 24,
        }
        assert rows["PT6"]["Speed"] == 32
        assert rows["PT6"]["Pidle"] == 200
        assert rows["PT6"]["Pwork"] == 100

    def test_speed_and_power_monotonic(self):
        speeds = [pt.speed for pt in PROCESSOR_TYPES]
        idles = [pt.p_idle for pt in PROCESSOR_TYPES]
        assert speeds == sorted(speeds)
        assert idles == sorted(idles)


class TestClusters:
    def test_small_cluster_size(self):
        assert small_cluster().num_processors == 72

    def test_large_cluster_size(self):
        assert large_cluster().num_processors == 144

    def test_scaled_clusters(self):
        assert scaled_small_cluster().num_processors == 12
        assert scaled_large_cluster().num_processors == 24
        assert scaled_small_cluster(1).num_processors == 6

    def test_cluster_from_table1_types(self):
        cluster = cluster_from_table1(2)
        types = Counter(spec.proc_type for spec in cluster)
        assert types == {pt.name: 2 for pt in PROCESSOR_TYPES}

    def test_invalid_nodes_per_type(self):
        with pytest.raises(ValueError):
            cluster_from_table1(0)

    def test_uniform_cluster(self):
        cluster = uniform_cluster(4, p_idle=0, p_work=1)
        assert cluster.num_processors == 4
        assert cluster.total_idle_power() == 0
        assert cluster.total_work_power() == 4

    def test_single_processor_cluster(self):
        cluster = single_processor_cluster(p_idle=2, p_work=5)
        assert cluster.num_processors == 1
        assert cluster.processors()[0].p_work == 5

    def test_cluster_names(self):
        assert small_cluster().name == "small"
        assert large_cluster().name == "large"
        assert scaled_small_cluster().name == "small"


class TestClusterPreset:
    @pytest.mark.parametrize("name", sorted(CLUSTER_PRESETS))
    def test_one_shared_cluster_per_preset(self, name):
        assert cluster_preset(name) is cluster_preset(name)
        assert cluster_preset(name, 3) is cluster_preset(name, 3)

    def test_node_counts(self):
        assert cluster_preset("small").num_processors == 12
        assert cluster_preset("large").num_processors == 24
        assert cluster_preset("small", 3).num_processors == 18
        assert cluster_preset("single").num_processors == 1

    @pytest.mark.parametrize("name", sorted(CLUSTER_PRESETS))
    @pytest.mark.parametrize("count", [0, -2])
    def test_non_positive_node_count_rejected(self, name, count):
        # ``small``/``large`` used to read 0 as their default and ``single``
        # ignored the count.
        with pytest.raises(ValueError, match="nodes_per_type"):
            cluster_preset(name, count)

    @pytest.mark.parametrize("name", sorted(CLUSTER_PRESETS))
    @pytest.mark.parametrize("count", ["x", 2.5, True])
    def test_non_integer_node_count_rejected(self, name, count):
        with pytest.raises(TypeError, match="nodes_per_type"):
            cluster_preset(name, count)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown cluster preset"):
            cluster_preset("huge")
