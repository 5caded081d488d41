"""networkx mirrors of the library's graphs, used as a test oracle.

The library keeps its graphs in plain dicts; the tests cross-check them
against :mod:`networkx`, which is a test-only dependency.
"""

from __future__ import annotations

import networkx as nx

from repro.workflow.dag import Workflow


def to_networkx(graph) -> nx.DiGraph:
    """Mirror a :class:`Workflow` or an ``EnhancedDAG`` as a ``networkx.DiGraph``."""
    mirror = nx.DiGraph()
    if isinstance(graph, Workflow):
        mirror.add_nodes_from(graph.tasks())
        mirror.add_edges_from(graph.dependencies())
    else:
        mirror.add_nodes_from(graph.nodes())
        mirror.add_edges_from(graph.edges())
    return mirror
