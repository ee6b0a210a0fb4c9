#!/usr/bin/env python3
"""Compare a bench_hotpath JSON report against the committed baseline.

``bench_hotpath --out`` emits a flat JSON array of
``{"bench", "metric", "unit", "value"}`` samples. The entries whose
unit is ``"x"`` are machine-independent *ratios* (optimized-over-naive
speedups), so they are stable enough to gate CI on even though the
absolute cycle counts are not.

This script fails (exit 1) when any tracked ratio in the current
report falls more than ``--tolerance`` (default 10%) below the
committed baseline, and warns — without failing — when tracked
entries appear or disappear, so the baseline file does not silently
rot as benchmarks are added.

Updating the baseline after an intentional change::

    ./build/bench/bench_hotpath --out BENCH_hotpath.json

then commit the refreshed file alongside the change that explains it.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_ratios(path: Path) -> dict[str, float]:
    """Return {bench: metric} for entries whose unit is \"x\"."""
    try:
        entries = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    if not isinstance(entries, list):
        raise SystemExit(f"{path}: expected a JSON array of samples")
    ratios: dict[str, float] = {}
    for e in entries:
        if e.get("unit") == "x":
            ratios[str(e["bench"])] = float(e["metric"])
    return ratios


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_hotpath.json"),
        help="committed baseline report",
    )
    ap.add_argument(
        "--current",
        type=Path,
        default=Path("build/BENCH_hotpath_ci.json"),
        help="freshly generated report to check",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional drop below baseline (default 0.10)",
    )
    args = ap.parse_args()

    baseline = load_ratios(args.baseline)
    current = load_ratios(args.current)
    if not baseline:
        raise SystemExit(f"{args.baseline}: no tracked ratios (unit 'x')")

    width = max(len(k) for k in baseline | current)
    print(f"{'tracked ratio':<{width}} {'base':>8} {'now':>8} {'delta':>8}")
    regressions: list[str] = []
    for key in sorted(baseline):
        if key not in current:
            print(f"{key:<{width}} {baseline[key]:>8.3f} {'gone':>8}")
            print(f"warning: {key} missing from {args.current}",
                  file=sys.stderr)
            continue
        base, now = baseline[key], current[key]
        delta = (now - base) / base
        flag = ""
        if delta < -args.tolerance:
            regressions.append(key)
            flag = "  << REGRESSION"
        print(f"{key:<{width}} {base:>8.3f} {now:>8.3f} "
              f"{delta:>+7.1%}{flag}")
    for key in sorted(set(current) - set(baseline)):
        print(f"warning: {key} not in baseline {args.baseline} — "
              f"regenerate it to start tracking", file=sys.stderr)

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} tracked ratio(s) regressed "
            f"more than {args.tolerance:.0%} vs {args.baseline}: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        print(
            "If the slowdown is intentional, refresh the baseline with "
            "'./build/bench/bench_hotpath --out BENCH_hotpath.json' and "
            "commit it with an explanation.",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: {len(baseline)} tracked ratio(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
