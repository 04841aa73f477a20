"""Exhaustive and sampled verification sweeps with JSON reports.

A sweep enumerates labeled hypergraphs at fixed (n, r), applies a set of
per-instance checks, and aggregates order-independent counters plus a
capped, sorted violation list, so reports are byte-identical no matter
how the index range is partitioned across workers.

Instances come from one source, ``instances``: index i is edge subset i,
or under sampling the "sha256-ctr" draw, the edge-subset bitmask from the
leading bits of SHA-256("{seed}:{i}:{block}") blocks, uniform over all
subsets and reproducible without any sampler state. Each call builds and
validates one pool of the C(n, r) slots, so each worker block has its own,
and yields an ``Analysis`` of the pool and the subset mask: the checks
build no Hypergraph but a violation's, and a detail names edges in rank
order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .goodsets import check_good_set_existence, check_rotation_bound, check_spanning_cycle_property
from .hypergraph import (
    MAX_EDGE_SLOTS,
    MAX_SEARCH_EDGE_SLOTS,
    Hypergraph,
    bits,
    possible_edges,
    serialize_hypergraph,
)
from .search import Analysis, _walk
from .weights import NOT_EXTREMAL, classify_structure, format_fraction, weight_sum

CHECK_NAMES = (
    "inequality",
    "equality_classifier",
    "good_set_existence",
    "rotation_bound",
    "spanning_cycle",
    "coro_path",
)

SAMPLE_GENERATOR = "sha256-ctr"
VIOLATION_CAP = 100
MAX_WORKERS = 64

CENSUS_KEYS = ("case_i", "case_ii", "not_extremal")

# (check, goodsets function giving its failure detail or None, whether it
# runs only on a connected instance with an edge), in report order
STRUCTURAL_CHECKS = (
    ("good_set_existence", check_good_set_existence, True),
    ("rotation_bound", check_rotation_bound, False),
    ("spanning_cycle", check_spanning_cycle_property, True),
)


class SweepConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    n: int
    r: int
    mode: str  # "exhaustive" or "sample"
    connected_only: bool = False
    checks: tuple[str, ...] = CHECK_NAMES
    sample_count: int | None = None
    seed: int | None = None


def validate_config(cfg: SweepConfig) -> None:
    if cfg.r < 3:
        raise SweepConfigError(f"sweeps require r >= 3, got r={cfg.r}")
    if cfg.mode not in ("exhaustive", "sample"):
        raise SweepConfigError(f"unknown mode {cfg.mode!r}")
    unknown = set(cfg.checks) - set(CHECK_NAMES)
    if unknown or not cfg.checks:
        raise SweepConfigError(f"bad check list {cfg.checks!r}")
    slots = comb(cfg.n, cfg.r)
    if cfg.mode == "exhaustive":
        search_heavy = {"good_set_existence", "rotation_bound"} & set(cfg.checks)
        cap = MAX_SEARCH_EDGE_SLOTS if search_heavy else MAX_EDGE_SLOTS
        if slots > cap:
            raise SweepConfigError(
                f"exhaustive sweep over C({cfg.n},{cfg.r}) = {slots} edge slots exceeds cap {cap}"
            )
        if cfg.sample_count is not None or cfg.seed is not None:
            raise SweepConfigError("exhaustive mode takes no sample_count/seed")
    else:
        if cfg.sample_count is None or cfg.seed is None:
            raise SweepConfigError("sample mode requires sample_count and seed")
        if cfg.sample_count <= 0:
            raise SweepConfigError("sample_count must be positive")


@dataclass(frozen=True)
class Violation:
    hg: str
    check: str
    detail: str


@dataclass
class SweepReport:
    config: SweepConfig
    instances: int
    violations: list[Violation]
    census: dict[str, int]


def sample_mask(seed: int, index: int, bits: int) -> int:
    """Uniform ``bits``-bit integer from the sha256-ctr stream for (seed, index)."""
    out = 0
    for block in range(-(-bits // 256)):
        digest = hashlib.sha256(f"{seed}:{index}:{block}".encode()).digest()
        out |= int.from_bytes(digest, "big") << 256 * block
    return out & ((1 << bits) - 1)


def _check_instance(a: Analysis, checks: frozenset[str]) -> tuple[str, list[tuple[str, str]]]:
    """Classification label plus (check, detail) pairs for failed checks."""
    n, m = a.n, a.m
    failures: list[tuple[str, str]] = []
    whole = a.connected and m > 0

    cls = classify_structure(a)
    if "inequality" in checks or "equality_classifier" in checks:
        num, den = weight_sum(a)  # compared over integers; a message shows it reduced
        if "inequality" in checks and num > n * den:
            total = format_fraction(Fraction(num, den))
            failures.append(("inequality", f"weight sum {total} exceeds n={n}"))
        if "equality_classifier" in checks and (num == n * den) != (cls != NOT_EXTREMAL):
            total = format_fraction(Fraction(num, den))
            detail = f"exact sum {total} vs n={n} disagrees with structural class {cls}"
            failures.append(("equality_classifier", detail))

    for name, check, gated in STRUCTURAL_CHECKS:
        if name in checks and (whole or not gated):
            detail = check(a)
            if detail is not None:
                failures.append((name, detail))

    if "coro_path" in checks:
        failures.extend(("coro_path", detail) for detail in _coro_path(a))

    return cls, failures


def _coro_path(a: Analysis) -> list[str]:
    """Failures, by vertex, of the (r+1)-vertex path claim: a length-|E| path
    starts at every vertex in an edge (the vertex off a single edge, which
    the claim read literally includes, is left to the tests) and, for r >= 4
    and |E| >= 2, joins every two. None unless n = r+1 and 1 <= |E| < r.

    One walk per vertex v collects the far ends of the length-|E| paths
    from v. A path reversed is a path, so u and w > u are joined when w
    is a far end of u, and the walk from v stops once its far ends hold
    every vertex above v, or after its first path when no pair is checked.
    """
    n, r, m = a.n, a.r, a.m
    failures = []
    if n != r + 1 or not 1 <= m < r:
        return failures
    check_pairs = r >= 4 and m >= 2
    for v in range(n):
        above = (1 << n) - (2 << v) if check_pairs else 0
        ends = 0
        for vs, _ in _walk(a, v, m):
            ends |= 1 << vs[-1]
            if ends & above == above:
                break
        expected = m >= 2 or a.incidence[v] != 0
        got = ends != 0
        if got != expected:
            failures.append(f"length-{m} path starting at v{v}: expected {expected}, got {got}")
        failures.extend(f"no length-{m} path joins v{v} and v{w}" for w in bits(above & ~ends))
    return failures


def index_count(cfg: SweepConfig) -> int:
    return (1 << comb(cfg.n, cfg.r)) if cfg.mode == "exhaustive" else cfg.sample_count


def instances(cfg: SweepConfig, start: int = 0, end: int | None = None) -> Iterator[Analysis]:
    """The analysed instances of indices ``start..end-1`` (default: all) in
    index order, leaving out disconnected ones under ``connected_only``."""
    pool = Hypergraph(cfg.n, cfg.r, possible_edges(cfg.n, cfg.r))
    slot_incidence = Analysis(pool).incidence
    for index in range(start, index_count(cfg) if end is None else end):
        subset = index
        if cfg.mode == "sample":
            subset = sample_mask(cfg.seed, index, pool.num_edges)
        a = Analysis(pool, subset, slot_incidence)
        if not cfg.connected_only or a.connected:
            yield a


def _run_block(cfg: SweepConfig, start: int, end: int):
    checks = frozenset(cfg.checks)
    census = {key: 0 for key in CENSUS_KEYS}
    violations: list[Violation] = []
    checked = 0
    for a in instances(cfg, start, end):
        checked += 1
        cls, failures = _check_instance(a, checks)
        census[cls] += 1
        if failures:
            text = serialize_hypergraph(a.hg)
            violations.extend(Violation(text, check, detail) for check, detail in failures)
    return checked, census, violations


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepReport:
    """Apply the configured checks to every enumerated or sampled instance.

    The index range is block-partitioned across ``workers`` processes
    (1..MAX_WORKERS, checked before any process starts); merging is
    commutative (summed counters, violations re-sorted), so any worker
    count produces the same report.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise SweepConfigError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    validate_config(cfg)
    total = index_count(cfg)
    if workers == 1 or total < 2 * workers:
        parts = [_run_block(cfg, 0, total)]
    else:
        step = -(-total // workers)
        starts = list(range(0, total, step))
        ends = [min(s + step, total) for s in starts]
        # imported here, as it adds 2.8 MiB to the peak RSS of a process
        # that never starts a worker
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, [cfg] * len(starts), starts, ends))
    instances, census, violations = merge_block_results(parts)
    return SweepReport(cfg, instances, violations, census)


def merge_block_results(parts) -> tuple[int, dict[str, int], list[Violation]]:
    """Commutative merge: summed counters; violations sorted with the
    lexicographically smallest instance first, capped afterwards."""
    instances = sum(p[0] for p in parts)
    census = {key: sum(p[1][key] for p in parts) for key in CENSUS_KEYS}
    violations = sorted(
        (v for p in parts for v in p[2]), key=lambda v: (v.hg, v.check, v.detail)
    )[:VIOLATION_CAP]
    return instances, census, violations


def report_to_dict(report: SweepReport) -> dict:
    """The stable JSON schema. elapsed_ms is always 0, so identical
    configs give byte-identical files; wall time is not part of a report."""
    cfg = report.config
    config: dict = {
        "n": cfg.n,
        "r": cfg.r,
        "mode": cfg.mode,
        "connected_only": cfg.connected_only,
        "checks": [c for c in CHECK_NAMES if c in cfg.checks],
    }
    if cfg.mode == "sample":
        config["sample_count"] = cfg.sample_count
        config["seed"] = cfg.seed
        config["generator"] = SAMPLE_GENERATOR
    return {
        "config": config,
        "instances": report.instances,
        "violations": [
            {"hg": v.hg, "check": v.check, "detail": v.detail} for v in report.violations
        ],
        "census": {key: report.census[key] for key in CENSUS_KEYS},
        "elapsed_ms": 0,
    }


def report_write(report: SweepReport, path) -> None:
    data = json.dumps(report_to_dict(report), indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)

