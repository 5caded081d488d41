"""Figure 2 — performance profiles of ASAP and the eight LS variants.

The curve value at τ is the fraction of instances on which the variant's cost
is within a factor 1/τ of the best observed cost.  Higher curves are better;
the paper's Figure 2 shows all CaWoSched variants far above ASAP.
"""

from __future__ import annotations

from repro.experiments.figures import figure2_performance_profiles
from repro.experiments.reporting import format_performance_profiles

from bench_utils import write_figure_output

#: The printed columns, a subset of DEFAULT_TAU_GRID.
TAUS = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]


def test_fig2_performance_profiles(grid_records, benchmark, output_dir):
    curves = benchmark.pedantic(
        figure2_performance_profiles, args=(grid_records,), rounds=1, iterations=1
    )
    text = format_performance_profiles(curves, taus=TAUS)
    print("\nFigure 2 — performance profiles (fraction of instances with ratio ≥ τ)\n" + text)
    write_figure_output(output_dir, "fig2_performance_profiles", text)

    asap = dict(curves["ASAP"])
    for name, curve in curves.items():
        if name == "ASAP":
            continue
        points = dict(curve)
        # Every heuristic curve dominates ASAP's at τ = 0.8 and τ = 1.0.
        assert points[0.8] >= asap[0.8]
        assert points[1.0] >= asap[1.0]
