#!/usr/bin/env python3
"""Full verification campaign: sweeps, suites, and JSON reports.

Runs the headline exhaustive and sampled sweeps, the Turan cells, the
gap-inequality tables and the start-vertex suites, writing reports under
results/. Each sweep, Turan cell and gap table is an ``hg`` command run
in this process; a nonzero exit status counts as a failure, and the
remaining stages still run. Everything is deterministic; re-running
reproduces the same reports byte for byte. Each stage prints its wall
time to stdout only; the reports carry no timings.
"""

import argparse
import sys
import time
from pathlib import Path

from bergepaths.cli import main as hg
from bergepaths.verify import coro_path_check

EXHAUSTIVE = [(3, 3), (4, 3), (5, 3), (4, 4), (5, 4)]
SAMPLE_CHECKS = "inequality,equality_classifier,good_set_existence"
TURAN_CELLS = [(5, 3, 3), (4, 3, 4), (6, 3, 4), (5, 3, 4), (6, 3, 5), (7, 5, 6), (8, 6, 6)]


def stages(out: Path, workers: int, sample_count: int) -> list[tuple[str, list[str]]]:
    """(title, ``hg`` argv) of every sweep, Turan cell and gap table, in run order."""
    sweeps = [(f"sweep_{n}_{r}_exhaustive", f"--n={n} --r={r} --exhaustive") for n, r in EXHAUSTIVE]
    sample = f"--sample={sample_count} --seed=42 --checks={SAMPLE_CHECKS}"
    sweeps.append(("sweep_6_3_sample", f"--n=6 --r=3 {sample}"))
    verify = [
        (name, ["verify", *cfg.split(), "--out", str(out / f"{name}.json"), f"--workers={workers}"])
        for name, cfg in sweeps
    ]
    turan = [
        (f"Turan ex_{r}({n}, BP_{k})", f"turan --n={n} --r={r} --k={k}".split())
        for n, r, k in TURAN_CELLS
    ]
    gap = [(f"gap inequality r={r}", f"gapcheck --r={r} --kmax=40".split()) for r in range(3, 9)]
    return verify + turan + gap


def start_vertex(r: int) -> int:
    """The (r+1)-vertex path claim; the single-edge coverage discrepancy
    is printed, never hidden."""
    rep = coro_path_check(r)
    print(
        f"{rep.instances} instances: {'pass' if rep.passed else 'FAIL'};"
        f" single-edge coverage discrepancy at {len(rep.e1_discrepancy)} vertices"
    )
    return 0 if rep.passed else 1


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
    runs = [(title, hg, argv) for title, argv in stages(out, args.workers, args.sample_count)]
    runs += [(f"start-vertex suite r={r}", start_vertex, r) for r in range(3, 7)]
    failures = 0
    for title, run, arg in runs:
        print(f"\n=== {title} ===", flush=True)
        started = time.monotonic()
        status = run(arg)
        print(f"exit {status}, {time.monotonic() - started:.1f}s")
        failures += status != 0

    print("\n=== summary ===")
    print("all checks passed" if failures == 0 else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
