"""Figures 3 and 10 — performance profiles split by deadline factor.

The paper observes that pressure-based variants lead under the tight deadline
(factor 1.0) while slack-based variants catch up / overtake once the deadline
becomes loose.  Here we regenerate the per-deadline profiles and check the
generic shape: the curves at τ = 1 are not lower for looser deadlines.
"""

from __future__ import annotations

from repro.experiments.figures import figure3_profiles_by_deadline
from repro.experiments.reporting import format_performance_profiles

from bench_utils import write_figure_output

#: The printed columns, a subset of DEFAULT_TAU_GRID.
TAUS = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]


def test_fig3_profiles_by_deadline(grid_records, benchmark, output_dir):
    by_deadline = benchmark.pedantic(
        figure3_profiles_by_deadline, args=(grid_records,), rounds=1, iterations=1
    )
    sections = []
    for factor, curves in sorted(by_deadline.items()):
        text = format_performance_profiles(curves, taus=TAUS)
        sections.append(f"deadline factor {factor:g}\n{text}")
    output = "\n\n".join(sections)
    print("\nFigure 3/10 — performance profiles by deadline factor\n" + output)
    write_figure_output(output_dir, "fig3_profiles_by_deadline", output)

    assert set(by_deadline) == {1.0, 1.5, 2.0, 3.0}
    # ASAP's share of best solutions must not increase with looser deadlines.
    asap_at_one = {
        factor: dict(curves["ASAP"])[1.0] for factor, curves in by_deadline.items()
    }
    assert asap_at_one[3.0] <= asap_at_one[1.0] + 0.05
