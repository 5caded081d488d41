#!/usr/bin/env python
"""Compare a fresh ``BENCH_fig8.json`` against the committed baseline.

Used by the ``bench-smoke`` CI job: the benchmark subset writes
``benchmarks/output/latest/BENCH_fig8.json`` (gitignored), this script
compares it against the committed ``benchmarks/output/BENCH_fig8.json`` and
fails (exit code 1) when the median runtime of any local-search variant
regressed by more than the allowed fraction over that baseline.

Absolute milliseconds are not comparable across machines (the committed
baseline comes from whatever box last regenerated it), so by default each
``-LS`` median is normalised by the ASAP median *of the same run* — ASAP is
a pure baseline pass whose cost scales with the hardware, making the
LS/ASAP ratio a machine-independent measure of kernel work per schedule.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json \
        [--max-regression 0.25] [--suffix -LS] [--normalize-by ASAP | --absolute]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_medians(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf8"))
    return {
        variant: stats["median_ms"]
        for variant, stats in data.get("variants", {}).items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH_fig8.json")
    parser.add_argument("current", type=Path, help="freshly produced BENCH_fig8.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional median slowdown per variant (default 0.25)",
    )
    parser.add_argument(
        "--suffix",
        default="-LS",
        help="only compare variants with this suffix (default: -LS)",
    )
    parser.add_argument(
        "--normalize-by",
        default="ASAP",
        help="variant whose same-run median divides each compared median "
        "(default: ASAP; makes the check hardware-independent)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw milliseconds instead of normalised ratios "
        "(only meaningful on the machine that produced the baseline)",
    )
    args = parser.parse_args(argv)

    baseline_all = load_medians(args.baseline)
    current_all = load_medians(args.current)
    baseline = {v: m for v, m in baseline_all.items() if v.endswith(args.suffix)}
    current = {v: m for v, m in current_all.items() if v.endswith(args.suffix)}
    if not baseline:
        print(f"no '{args.suffix}' variants in baseline {args.baseline}", file=sys.stderr)
        return 2

    base_unit = cur_unit = 1.0
    unit = "ms"
    if not args.absolute:
        normalizer = args.normalize_by
        if normalizer not in baseline_all or normalizer not in current_all:
            print(
                f"normaliser variant {normalizer!r} missing; "
                "falling back to absolute milliseconds",
                file=sys.stderr,
            )
        else:
            base_unit = baseline_all[normalizer]
            cur_unit = current_all[normalizer]
            unit = f"x {normalizer}"

    failures = []
    width = max(len(name) for name in baseline)
    print(f"{'variant':<{width}}  baseline {unit:>7}  current {unit:>7}  ratio")
    for variant in sorted(baseline):
        if variant not in current:
            failures.append(f"{variant}: missing from current run")
            continue
        old = baseline[variant] / base_unit
        new = current[variant] / cur_unit
        ratio = new / old if old > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.max_regression:
            failures.append(
                f"{variant}: median regressed {ratio:.2f}x "
                f"({old:.3f} -> {new:.3f} {unit})"
            )
            flag = "  << REGRESSION"
        print(f"{variant:<{width}}  {old:>16.3f}  {new:>15.3f}  {ratio:>5.2f}{flag}")

    if failures:
        print("\nbenchmark regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} '{args.suffix}' medians within "
          f"{args.max_regression:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
