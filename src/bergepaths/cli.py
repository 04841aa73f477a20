"""Command-line front end: the ``hg`` tool.

Subcommands: analyze, longest, goodset, rotate, turan, verify, gapcheck.
All rational quantities print as exact p/q strings.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import sys
import time

from .goodsets import find_good_set, rotation_closure
from .hypergraph import bits, load_hypergraph
from .search import BergePath, SearchError, longest_berge_path, p_edge, render_path
from .verify import CHECK_NAMES, SweepConfig, report_write, run_sweep
from .weights import format_fraction, gap_check, gap_domain, turan_exact, weight_report


def _vertex_list(mask: int) -> str:
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def cmd_analyze(args) -> int:
    hg = load_hypergraph(args.file)
    rep = weight_report(hg)
    if args.json:
        payload = {
            "n": hg.n,
            "r": hg.r,
            "k": rep.k,
            "sum": format_fraction(rep.total),
            "bound": rep.bound,
            "is_equality": rep.is_equality,
            "classification": rep.classification,
            "edges": [list(bits(e)) for e in hg.edges],
            "per_edge": [
                {
                    "edge": w.edge,
                    "p": w.p,
                    "f": format_fraction(w.f),
                    "inv_f": format_fraction(w.inv_f),
                }
                for w in rep.per_edge
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"n={hg.n} r={hg.r} edges={hg.num_edges} longest path k={rep.k}")
    for w in rep.per_edge:
        print(
            f"  edge {w.edge} {_vertex_list(hg.edges[w.edge])}: p={w.p}"
            f" f={format_fraction(w.f)} 1/f={format_fraction(w.inv_f)}"
        )
    eq = "equality" if rep.is_equality else "strict"
    print(f"weight sum = {format_fraction(rep.total)} <= n = {rep.bound} ({eq})")
    print(f"classification: {rep.classification}")
    return 0


def cmd_longest(args) -> int:
    hg = load_hypergraph(args.file)
    if args.edge is not None:
        print(f"p(edge {args.edge}) = {p_edge(hg, args.edge)}")
        return 0
    k, witness = longest_berge_path(hg)
    print(f"longest Berge path length k = {k}")
    print(f"witness: {render_path(witness)}")
    if args.verbose:
        union = 0
        for e in witness.edges:
            union |= hg.edges[e]
        print(f"defining vertices: {_vertex_list(sum(1 << v for v in witness.vertices))}")
        print(f"union of defining edges: {_vertex_list(union)}")
    return 0


def cmd_goodset(args) -> int:
    cert = find_good_set(load_hypergraph(args.file))
    print(
        f"good set S={_vertex_list(cert.S)} |S|={cert.size} k={cert.k}"
        f" |N(S)|={len(cert.NS)} <= f_r(k)|S|={format_fraction(cert.bound)}"
    )
    print(f"  N(S) = edges {list(cert.NS)}")
    return 0


def cmd_rotate(args) -> int:
    hg = load_hypergraph(args.file)
    tokens = [int(t) for t in args.path.split(",")]
    if len(tokens) % 2 != 1:
        raise SearchError("path literal must alternate v0,e1,v1,...,ek,vk")
    family = rotation_closure(hg, BergePath(tuple(tokens[0::2]), tuple(tokens[1::2])))
    print(f"base path: {render_path(family.base)} (fixed end v{family.base.vertices[0]})")
    print(f"terminals tau = {_vertex_list(family.terminals)}")
    for t in bits(family.terminals):
        print(f"  terminal v{t}: {render_path(family.witnesses[t])}")
    print(
        f"|N_E(P)(tau)| = {family.bound_lhs} <= 2|tau|-1 = {family.bound_rhs}:"
        f" {'ok' if family.bound_lhs <= family.bound_rhs else 'VIOLATED'}"
    )
    return 0 if family.bound_lhs <= family.bound_rhs else 1


def cmd_turan(args) -> int:
    res = turan_exact(args.n, args.r, args.k)
    print(
        f"ex_{res.r}({res.n}, BP_{res.k}) = {res.exact}"
        f"  bound n*f_r(k-1) = {format_fraction(res.paper_bound)}"
    )
    print("extremal witness:")
    for i in range(res.witness.num_edges):
        print(f"  {_vertex_list(res.witness.edges[i])}")
    faults = res.faults()
    for fault in faults:
        print(f"FAIL: {fault}")
    return 1 if faults else 0


def cmd_verify(args) -> int:
    # "" is a list too (of one empty name), which validate_config refuses
    checks = CHECK_NAMES if args.checks is None else tuple(args.checks.split(","))
    cfg = SweepConfig(
        n=args.n,
        r=args.r,
        mode="sample" if args.sample is not None else "exhaustive",
        connected_only=args.connected,
        checks=checks,
        sample_count=args.sample,
        seed=args.seed,
    )
    if args.out and os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    started = time.monotonic()
    report = run_sweep(cfg, workers=args.workers)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(
        f"checked {report.instances} instances in {elapsed_ms} ms:"
        f" {len(report.violations)} violations"
    )
    print(f"census: {report.census}")
    for v in report.violations[:10]:
        print(f"  [{v.check}] {v.detail}")
        print("    " + v.hg.replace("\n", " | "))
    if args.out:
        report_write(report, args.out)
        print(f"report written to {args.out}")
    return 1 if report.violations else 0


def cmd_gapcheck(args) -> int:
    if args.r < 3:
        raise ValueError(f"gapcheck requires r >= 3, got r={args.r}")
    start = next(k for k in itertools.count(1) if gap_domain(args.r, k))
    if args.kmax < start:
        raise ValueError(
            f"--kmax {args.kmax} is below k = {start}, the first k of the domain for r = {args.r}"
        )
    bad = 0
    for k in range(start, args.kmax + 1):
        res = gap_check(args.r, k)
        marker = " (equality)" if res.is_equality else ""
        status = "ok" if res.holds else "FAILS"
        print(
            f"r={args.r} k={k}: f_r(k)-2 = {format_fraction(res.lhs)}"
            f" >= C(k/2, r-1) = {format_fraction(res.rhs)}: {status}{marker}"
        )
        if not res.holds:
            bad += 1
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hg",
        description="Berge-path statistics, localized weight sums, and"
        " exhaustive verification for small uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-edge weights and the equality classification")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("longest", help="longest Berge path, or p(e) with --edge")
    p.add_argument("file")
    p.add_argument("--edge", type=int, default=None, metavar="IDX")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_longest)

    p = sub.add_parser("goodset", help="one good-set certificate, found from a longest path")
    p.add_argument("file")
    p.set_defaults(fn=cmd_goodset)

    p = sub.add_parser("rotate", help="rotation closure of a path literal")
    p.add_argument("file")
    p.add_argument("--path", required=True, metavar='"v0,e1,v1,..."')
    p.set_defaults(fn=cmd_rotate)

    p = sub.add_parser("turan", help="exact Turan number for Berge paths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_turan)

    p = sub.add_parser("verify", help="exhaustive or sampled verification sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--sample", type=int, default=None, metavar="COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checks", default=None, metavar="LIST")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gapcheck", help="gap inequality table over the stated domain")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(fn=cmd_gapcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
