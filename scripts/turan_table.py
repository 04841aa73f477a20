#!/usr/bin/env python3
"""Print exact Turan numbers for Berge paths over a small (n, k) grid.

Each cell is the maximum edge count of an n-vertex r-uniform hypergraph
with no Berge path of length k, next to the n*f_r(k-1) bound. Exits 1 if
a cell exceeds its bound or its witness is not a BP_k-free set of that
many edges, and 2, with an ``error:`` line on stderr, if the grid has no
cell (--nmax below r, or --kmax below 2) or ``turan_exact`` refuses a
cell (r < 3, or more edge slots than it searches).
"""

import argparse
import sys

from bergepaths.weights import format_fraction, turan_exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, default=3)
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--kmax", type=int, default=5)
    args = parser.parse_args(argv)
    r = args.r
    if args.nmax < r or args.kmax < 2:
        short = (
            f"--nmax {args.nmax} is below r = {r}"
            if args.nmax < r
            else f"--kmax {args.kmax} is below k = 2"
        )
        print(f"error: {short}, so the grid has no cell", file=sys.stderr)
        return 2
    print(f"r = {r}: exact ex_r(n, BP_k) / bound n*f_r(k-1)")
    header = "n\\k " + "".join(f"{k:>14}" for k in range(2, args.kmax + 1))
    print(header)
    faults = []
    for n in range(r, args.nmax + 1):
        row = [f"{n:<4}"]
        for k in range(2, args.kmax + 1):
            try:
                res = turan_exact(n, r, k)
            except ValueError as exc:  # every package error is a ValueError
                print(f"error: {exc}", file=sys.stderr)
                return 2
            row.append(f"{res.exact:>5}/{format_fraction(res.paper_bound):>8}")
            faults += [f"FAIL ex_{r}({n}, BP_{k}): {fault}" for fault in res.faults()]
        print("".join(row))
    print("\n".join(faults) if faults else "every cell within its bound, witnesses checked")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
