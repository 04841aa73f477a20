#!/usr/bin/env python3
"""Full verification campaign: sweeps, Turan cells and gap tables, with JSON reports.

Runs the headline exhaustive and sampled sweeps, the (r+1)-vertex path
claim for r = 3..6, the Turan cells and the gap-inequality tables,
writing the sweep reports under results/. Every stage is an ``hg``
command run in this process; a nonzero exit status counts as a failure,
and the remaining stages still run. Everything is deterministic;
re-running reproduces the same reports byte for byte. Each stage prints
its wall time to stdout only; the reports carry no timings.
"""

import argparse
import sys
import time
from pathlib import Path

from bergepaths.cli import main as hg

EXHAUSTIVE = [(3, 3), (4, 3), (5, 3), (4, 4), (5, 4)]
SAMPLE_CHECKS = "inequality,equality_classifier,good_set_existence"
TURAN_CELLS = [(5, 3, 3), (4, 3, 4), (6, 3, 4), (5, 3, 4), (6, 3, 5), (7, 5, 6), (8, 6, 6)]


def stages(out: Path, workers: int, sample_count: int) -> list[tuple[str, list[str]]]:
    """(title, ``hg`` argv) of every stage of the campaign, in run order."""
    sweeps = [(f"sweep_{n}_{r}_exhaustive", f"--n={n} --r={r} --exhaustive") for n, r in EXHAUSTIVE]
    sample = f"--sample={sample_count} --seed=42 --checks={SAMPLE_CHECKS}"
    sweeps.append(("sweep_6_3_sample", f"--n=6 --r=3 {sample}"))
    # the path claim alone: all six checks take over two minutes at (7,6),
    # nearly all of it rotation_bound
    sweeps += [
        (f"sweep_{r + 1}_{r}_coro_path", f"--n={r + 1} --r={r} --exhaustive --checks=coro_path")
        for r in range(3, 7)
    ]
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
    for title, argv in stages(out, args.workers, args.sample_count):
        print(f"\n=== {title} ===", flush=True)
        started = time.monotonic()
        status = hg(argv)
        print(f"exit {status}, {time.monotonic() - started:.1f}s")
        failures += status != 0

    print("\n=== summary ===")
    print("all checks passed" if failures == 0 else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
