#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to a BENCH_*.json file.

    python3 scripts/bench_pairs.py REV --workload rotation53 --pairs 10 \\
        --seconds 25 --out BENCH_6.json

REV's committed files are exported (``git archive``) into a temporary
directory; the change is this checkout, as it stands on disk. Each pair
runs ``perfbench/run.py`` once in each tree with the same workload, seed
and run length, the tree that goes first alternating from pair to pair.
Every result line is kept, and for each end-to-end metric of
``BENCHMARK.json`` the file records both sides' medians and quartiles,
the change's ratio to the parent and the pairs the change won (ties
count for neither). Running again with another workload and the same
``--out`` adds that workload to the file and replaces an earlier entry
of the same name. SIGTERM ends the script as an error does: the running
benchmark is killed and the export removed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def src_digest(tree: Path) -> str:
    """sha256 over the package sources of ``tree``, so a record names exactly
    the code it ran even when the change is not committed."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {
            side: [p[side]["metrics"][name]["value"] for p in pairs]
            for side in ("parent", "change")
        }
        wins = sum(
            (c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"])
        )
        parent, change = spread(sides["parent"]), spread(sides["change"])
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_wins": wins,
            "pairs": len(pairs),
        }
    out["failed"] = {
        side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    # SystemExit unwinds through subprocess.run, which kills its child, and
    # through the TemporaryDirectory, which removes the export
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_commit = git("rev-parse", f"{args.rev}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(parent_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
                ops = pair[side]["metrics"]["ops_per_s"]["value"]
                print(f"{args.workload} pair {i + 1}/{args.pairs} {side}: ops_per_s {ops:.4g}",
                      file=sys.stderr)
            pairs.append(pair)
        parent_src = src_digest(parent_tree)

    entry = {
        "seed": args.seed,
        "seconds": args.seconds,
        "parent": {"rev": args.rev, "commit": parent_commit, "src_sha256": parent_src},
        "change": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": src_digest(ROOT),
        },
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    data.update(
        host=platform.node(),
        platform=platform.platform(),
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
    )
    data["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
