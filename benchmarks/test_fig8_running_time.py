"""Figure 8 — running time of each algorithm variant.

The paper reports that every variant computes its schedule within seconds for
most instances (minutes for the largest workflows) and that the overhead over
ASAP is reasonable.  Here we report the per-variant runtime statistics from
the grid run and additionally time one representative full scheduling call.
The grid runs all variants of an instance as one job: an ``-LS`` time is its
greedy parent's time plus the wall time of its own local search and
validation.
"""

from __future__ import annotations

from repro.core.scheduler import CaWoSched
from repro.experiments.figures import figure8_running_times
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.reporting import format_table

from bench_utils import write_bench_json, write_figure_output


def test_fig8_running_times(grid_records, benchmark, output_dir):
    stats = figure8_running_times(grid_records)
    rows = [
        [name, values["min"] * 1e3, values["median"] * 1e3, values["mean"] * 1e3,
         values["max"] * 1e3, values["count"]]
        for name, values in sorted(stats.items())
    ]
    text = format_table(
        rows, ["variant", "min ms", "median ms", "mean ms", "max ms", "runs"]
    )
    print("\nFigure 8 — running time per algorithm variant (milliseconds)\n" + text)
    write_figure_output(output_dir, "fig8_running_times", text)
    write_bench_json(
        output_dir,
        "fig8",
        {
            name: {
                "median_ms": round(values["median"] * 1e3, 4),
                "mean_ms": round(values["mean"] * 1e3, 4),
                "runs": values["count"],
            }
            for name, values in stats.items()
        },
    )

    # Time a representative pressWR-LS scheduling call end to end.
    instance = make_instance(
        InstanceSpec("atacseq", 60, "small", "S1", 2.0, seed=0), master_seed=0
    )
    scheduler = CaWoSched()
    benchmark(lambda: scheduler.run(instance, "pressWR-LS"))

    # Shape checks: ASAP is the fastest variant; the heuristics stay within an
    # interactive time budget on laptop-scale instances.
    asap_median = stats["ASAP"]["median"]
    for name, values in stats.items():
        assert values["median"] >= asap_median or name == "ASAP"
        assert values["max"] < 60.0, f"{name} took more than a minute on a laptop-scale instance"
