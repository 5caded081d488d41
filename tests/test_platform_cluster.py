"""Tests for Cluster, ExtendedPlatform and link processors."""

from __future__ import annotations

import pytest

from repro.platform_.cluster import Cluster, ExtendedPlatform, link_name
from repro.platform_.processor import LINK, ProcessorSpec
from repro.utils.errors import InvalidMappingError


def make_cluster() -> Cluster:
    return Cluster(
        [
            ProcessorSpec("p0", speed=1, p_idle=2, p_work=4, proc_type="A"),
            ProcessorSpec("p1", speed=2, p_idle=3, p_work=6, proc_type="B"),
        ],
        name="test",
    )


class TestCluster:
    def test_basic_accessors(self):
        cluster = make_cluster()
        assert cluster.num_processors == 2
        assert cluster.processor_names() == ["p0", "p1"]
        assert cluster.processor("p1").speed == 2
        assert cluster.has_processor("p0")
        assert not cluster.has_processor("zzz")

    def test_unknown_processor_raises(self):
        with pytest.raises(KeyError):
            make_cluster().processor("nope")

    def test_power_totals(self):
        cluster = make_cluster()
        assert cluster.total_idle_power() == 5
        assert cluster.total_work_power() == 10

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Cluster([ProcessorSpec("p0"), ProcessorSpec("p0")])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_link_processor_rejected_in_cluster(self):
        with pytest.raises(ValueError):
            Cluster([ProcessorSpec("l0", kind=LINK)])

    def test_iteration_and_len(self):
        cluster = make_cluster()
        assert len(cluster) == 2
        assert [p.name for p in cluster] == ["p0", "p1"]
        assert "p0" in cluster


class TestExtendedPlatform:
    def test_for_links_creates_one_processor_per_used_link(self):
        cluster = make_cluster()
        platform = ExtendedPlatform.for_links(cluster, [("p0", "p1"), ("p1", "p0")], rng=0)
        assert len(platform.links()) == 2
        assert platform.num_processors == 4

    def test_duplicate_links_deduplicated(self):
        cluster = make_cluster()
        platform = ExtendedPlatform.for_links(cluster, [("p0", "p1"), ("p0", "p1")], rng=0)
        assert len(platform.links()) == 1

    def test_link_power_in_range(self):
        cluster = make_cluster()
        platform = ExtendedPlatform.for_links(cluster, [("p0", "p1")], rng=0)
        link = platform.links()[0]
        assert 1 <= link.p_idle <= 2
        assert 1 <= link.p_work <= 2
        assert link.kind == LINK

    def test_self_link_rejected(self):
        cluster = make_cluster()
        with pytest.raises(InvalidMappingError):
            ExtendedPlatform.for_links(cluster, [("p0", "p0")], rng=0)

    def test_unknown_processor_in_link_rejected(self):
        cluster = make_cluster()
        with pytest.raises(InvalidMappingError):
            ExtendedPlatform.for_links(cluster, [("p0", "ghost")], rng=0)

    def test_power_totals_include_links(self):
        cluster = make_cluster()
        platform = ExtendedPlatform.for_links(cluster, [("p0", "p1")], rng=0)
        link = platform.links()[0]
        assert platform.total_idle_power() == cluster.total_idle_power() + link.p_idle
        assert platform.total_work_power() == cluster.total_work_power() + link.p_work

    def test_lookup_compute_and_link(self):
        cluster = make_cluster()
        platform = ExtendedPlatform.for_links(cluster, [("p0", "p1")], rng=0)
        assert platform.processor("p0").name == "p0"
        key = link_name("p0", "p1")
        assert platform.processor(key).kind == LINK
        assert platform.has_processor(key)
        with pytest.raises(KeyError):
            platform.processor("missing")

    def test_non_link_spec_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            ExtendedPlatform(cluster, [ProcessorSpec("x", kind="compute")])

    def test_name_clash_with_cluster_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            ExtendedPlatform(cluster, [ProcessorSpec("p0", kind=LINK)])


class TestLinkName:
    def test_directed(self):
        assert link_name("a", "b") != link_name("b", "a")

    def test_stable(self):
        assert link_name("a", "b") == ("link", "a", "b")
