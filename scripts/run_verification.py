#!/usr/bin/env python3
"""Full verification campaign: sweeps, suites, and JSON reports.

Runs the headline exhaustive and sampled sweeps, the spanning-cycle and
start-vertex suites, the Turan table rows, and the gap-inequality scan,
writing reports under results/. Everything is deterministic; re-running
reproduces the same files byte for byte. Each stage prints its wall time
to stdout only; the reports carry no timings.
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

from bergepaths.verify import SweepConfig, coro_path_check, report_write, run_sweep
from bergepaths.weights import format_fraction, gap_check, gap_domain, turan_exact


def banner(text: str) -> None:
    print(f"\n=== {text} ===")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="report directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--sample-count", type=int, default=100_000, help="size of the (6,3) sampled sweep"
    )
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0

    sweeps = [
        ("sweep_3_3_exhaustive", SweepConfig(n=3, r=3, mode="exhaustive")),
        ("sweep_4_3_exhaustive", SweepConfig(n=4, r=3, mode="exhaustive")),
        ("sweep_5_3_exhaustive", SweepConfig(n=5, r=3, mode="exhaustive")),
        ("sweep_4_4_exhaustive", SweepConfig(n=4, r=4, mode="exhaustive")),
        ("sweep_5_4_exhaustive", SweepConfig(n=5, r=4, mode="exhaustive")),
        (
            "sweep_6_3_sample",
            SweepConfig(
                n=6,
                r=3,
                mode="sample",
                sample_count=args.sample_count,
                seed=42,
                checks=("inequality", "equality_classifier", "good_set_existence"),
            ),
        ),
    ]
    for name, cfg in sweeps:
        banner(name)
        started = time.monotonic()
        report = run_sweep(cfg, workers=args.workers)
        elapsed = time.monotonic() - started
        print(
            f"{report.instances} instances, {len(report.violations)} violations,"
            f" census {report.census}, {elapsed:.1f}s"
        )
        report_write(report, out / f"{name}.json")
        failures += len(report.violations)

    for r in range(3, 7):
        banner(f"start-vertex suite r={r}")
        started = time.monotonic()
        rep = coro_path_check(r)
        elapsed = time.monotonic() - started
        status = "pass" if rep.passed else "FAIL"
        print(
            f"{rep.instances} instances: {status};"
            f" single-edge coverage discrepancy at {len(rep.e1_discrepancy)} vertices,"
            f" {elapsed:.1f}s"
        )
        if not rep.passed:
            failures += 1

    banner("Turan table")
    cells = [(5, 3, 3), (4, 3, 4), (6, 3, 4), (5, 3, 4), (6, 3, 5), (7, 5, 6), (8, 6, 6)]
    for n, r, k in cells:
        started = time.monotonic()
        res = turan_exact(n, r, k)
        elapsed = time.monotonic() - started
        print(
            f"ex_{r}({n}, BP_{k}) = {res.exact}"
            f"  (bound {format_fraction(res.paper_bound)}), {elapsed:.1f}s"
        )
        faults = res.faults()
        for fault in faults:
            print(f"FAIL: {fault}")
        failures += len(faults)

    banner("gap inequality r in 3..8, k up to 40")
    started = time.monotonic()
    bad = []
    for r in range(3, 9):
        start = next(k for k in itertools.count(1) if gap_domain(r, k))  # the domain's first k
        for k in range(start, 41):
            res = gap_check(r, k)
            if not res.holds:
                bad.append((r, k))
            if res.is_equality:
                print(f"equality at r={r}, k={k}")
    elapsed = time.monotonic() - started
    print(f"{'no violations' if not bad else bad}, {elapsed:.1f}s")
    failures += len(bad)

    banner("summary")
    print("all checks passed" if failures == 0 else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
