"""Platform substrate: processors, clusters, link processors, Table 1 presets.

The subpackage is called ``platform_`` (with a trailing underscore) to avoid
any confusion with the Python standard-library :mod:`platform` module.
"""

from repro.platform_.processor import COMPUTE, LINK, ProcessorSpec
from repro.platform_.cluster import Cluster, ExtendedPlatform, link_name
from repro.platform_.presets import (
    CLUSTER_PRESETS,
    PROCESSOR_TYPES,
    ProcessorType,
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

__all__ = [
    "COMPUTE",
    "LINK",
    "ProcessorSpec",
    "Cluster",
    "ExtendedPlatform",
    "link_name",
    "CLUSTER_PRESETS",
    "PROCESSOR_TYPES",
    "ProcessorType",
    "cluster_from_table1",
    "cluster_preset",
    "large_cluster",
    "scaled_large_cluster",
    "scaled_small_cluster",
    "single_processor_cluster",
    "small_cluster",
    "table1_rows",
    "uniform_cluster",
]
