"""Figure 17 — performance profiles split by cluster size.

The paper notes that on the large cluster the curves move closer together
while the small cluster reproduces the overall picture of Figure 2.  The
regenerated output reports both clusters' profiles; the shape check is that on
both clusters every heuristic dominates ASAP at τ = 1.
"""

from __future__ import annotations

from repro.experiments.figures import figure17_profiles_by_cluster
from repro.experiments.reporting import format_performance_profiles

from bench_utils import write_figure_output

#: The printed columns, a subset of DEFAULT_TAU_GRID.
TAUS = [0.0, 0.25, 0.5, 0.75, 1.0]


def test_fig17_profiles_by_cluster(grid_records, benchmark, output_dir):
    by_cluster = benchmark.pedantic(
        figure17_profiles_by_cluster, args=(grid_records,), rounds=1, iterations=1
    )
    sections = []
    for cluster, curves in sorted(by_cluster.items()):
        text = format_performance_profiles(curves, taus=TAUS)
        sections.append(f"cluster {cluster}\n{text}")
    output = "\n\n".join(sections)
    print("\nFigure 17 — performance profiles by cluster\n" + output)
    write_figure_output(output_dir, "fig17_profiles_by_cluster", output)

    assert set(by_cluster) == {"small", "large"}
    for cluster, curves in by_cluster.items():
        asap_at_one = dict(curves["ASAP"])[1.0]
        for name, curve in curves.items():
            if name != "ASAP":
                assert dict(curve)[1.0] >= asap_at_one
