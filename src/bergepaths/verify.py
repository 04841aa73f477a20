"""Exhaustive and sampled verification sweeps with JSON reports.

A sweep enumerates labeled hypergraphs at fixed (n, r), applies a set of
per-instance checks, and aggregates order-independent counters plus a
capped, sorted violation list, so reports are byte-identical no matter
how the index range is partitioned across workers.

Sampling uses the "sha256-ctr" generator: instance ``index`` under
``seed`` draws the edge-subset bitmask from the leading bits of
SHA-256("{seed}:{index}:{block}") blocks, uniform over all subsets and
reproducible without any sampler state.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb

from .goodsets import check_spanning_cycle_property, enumerate_good_sets, rotation_closure
from .hypergraph import (
    MAX_EDGE_SLOTS,
    MAX_SEARCH_EDGE_SLOTS,
    hypergraph_from_subset,
    possible_edges,
    serialize_hypergraph,
)
from .search import (
    Analysis,
    PathQuery,
    analyze,
    has_path_with_endpoints,
    iter_longest_paths,
    longest_path_length,
)
from .weights import NOT_EXTREMAL, classify_structure, format_fraction, weight_report

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

CENSUS_KEYS = ("case_i", "case_ii", "not_extremal")


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
    produced = 0
    block = 0
    while produced < bits:
        digest = hashlib.sha256(f"{seed}:{index}:{block}".encode()).digest()
        out |= int.from_bytes(digest, "big") << produced
        produced += 256
        block += 1
    return out & ((1 << bits) - 1)


def _check_instance(a: Analysis, checks: frozenset[str]) -> tuple[str, list[tuple[str, str]]]:
    """Classification label plus (check, detail) pairs for failed checks."""
    hg = a.hg
    cls = classify_structure(a)
    failures: list[tuple[str, str]] = []
    connected = a.connected

    if "inequality" in checks or "equality_classifier" in checks:
        rep = weight_report(a)
        if "inequality" in checks and rep.total > hg.n:
            failures.append(
                ("inequality", f"weight sum {format_fraction(rep.total)} exceeds n={hg.n}")
            )
        if "equality_classifier" in checks and rep.is_equality != (cls != NOT_EXTREMAL):
            failures.append(
                (
                    "equality_classifier",
                    f"exact sum {format_fraction(rep.total)} vs n={hg.n} disagrees with"
                    f" structural class {cls}",
                )
            )

    if "good_set_existence" in checks and connected and hg.num_edges:
        first = next(enumerate_good_sets(a), None)
        if first is None:
            failures.append(("good_set_existence", "no good set exists"))
        else:
            k = a.k
            if k > hg.r and first.S == hg.vertex_mask and hg.n != k + 1:
                failures.append(
                    (
                        "good_set_existence",
                        f"k={k} > r but the only good set is V(H) and n != k+1",
                    )
                )

    if "rotation_bound" in checks:
        for path in iter_longest_paths(a):
            fam = rotation_closure(hg, path, path.vertices[0])
            if fam.bound_lhs > fam.bound_rhs:
                failures.append(
                    (
                        "rotation_bound",
                        f"path {path.vertices}/{path.edges}: |N_E(P)(tau)|={fam.bound_lhs}"
                        f" > 2|tau|-1={fam.bound_rhs}",
                    )
                )
                break

    if "spanning_cycle" in checks and connected:
        rep = check_spanning_cycle_property(a)
        if not rep.passed:
            failures.append(("spanning_cycle", rep.detail))

    if "coro_path" in checks and hg.n == hg.r + 1 and 1 <= hg.num_edges < hg.r:
        m = hg.num_edges
        for v in range(hg.n):
            expected = True if m >= 2 else bool(hg.edges[0] >> v & 1)
            got = longest_path_length(a, PathQuery(required_endpoint=v, target_length=m)) >= m
            if got != expected:
                failures.append(
                    (
                        "coro_path",
                        f"length-{m} path starting at v{v}: expected {expected}, got {got}",
                    )
                )

    return cls, failures


def _run_block(cfg: SweepConfig, start: int, end: int):
    slots = possible_edges(cfg.n, cfg.r)
    checks = frozenset(cfg.checks)
    census = {key: 0 for key in CENSUS_KEYS}
    violations: list[Violation] = []
    checked = 0
    for index in range(start, end):
        if cfg.mode == "exhaustive":
            subset = index
        else:
            subset = sample_mask(cfg.seed, index, len(slots))
        a = analyze(hypergraph_from_subset(cfg.n, cfg.r, slots, subset))
        if cfg.connected_only and not a.connected:
            continue
        checked += 1
        cls, failures = _check_instance(a, checks)
        census[cls] += 1
        if failures:
            text = serialize_hypergraph(a.hg)
            violations.extend(Violation(text, check, detail) for check, detail in failures)
    return checked, census, violations


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepReport:
    """Apply the configured checks to every enumerated or sampled instance.

    The index range is block-partitioned across ``workers`` processes;
    merging is commutative (summed counters, violations re-sorted), so
    any worker count produces the same report.
    """
    validate_config(cfg)
    slots = possible_edges(cfg.n, cfg.r)
    total = (1 << len(slots)) if cfg.mode == "exhaustive" else cfg.sample_count
    if workers <= 1 or total < 2 * workers:
        parts = [_run_block(cfg, 0, total)]
    else:
        step = -(-total // workers)
        starts = list(range(0, total, step))
        ends = [min(s + step, total) for s in starts]
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


def report_read(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class CoroPathReport:
    """Length-|E| reachability on (r+1)-vertex hypergraphs with under r edges.

    ``start_failures`` are failures of the coverage-corrected claim (a
    length-|E| path starts at every vertex, except that with a single
    edge only its own vertices qualify). ``e1_discrepancy`` lists the
    single-edge cases where the claim read literally fails because the
    start vertex lies outside the edge; it is reported, never hidden.
    ``pair_failures`` covers the stronger two-terminal form checked for
    r >= 4 and |E| >= 2.
    """

    r: int
    instances: int = 0
    start_failures: list[dict] = field(default_factory=list)
    e1_discrepancy: list[dict] = field(default_factory=list)
    pair_failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.start_failures and not self.pair_failures


def coro_path_check(r: int) -> CoroPathReport:
    """Exhaustively check length-|E| path existence on n = r+1 vertices.

    Enumerates every labeled edge subset of size 1..r-1 and every start
    vertex; for r >= 4 also every vertex pair as required terminals.
    """
    if not 3 <= r <= 6:
        raise SweepConfigError(f"coro_path_check supports r in 3..6, got {r}")
    n = r + 1
    slots = possible_edges(n, r)
    report = CoroPathReport(r=r)
    for subset in range(1, 1 << len(slots)):
        m = subset.bit_count()
        if not 1 <= m < r:
            continue
        hg = hypergraph_from_subset(n, r, slots, subset)
        report.instances += 1
        text = serialize_hypergraph(hg)
        for v in range(n):
            found = longest_path_length(hg, PathQuery(required_endpoint=v, target_length=m)) >= m
            if m == 1 and not hg.edges[0] >> v & 1:
                if found:
                    report.start_failures.append(
                        {"hg": text, "vertex": v, "detail": "path found from uncovered vertex"}
                    )
                else:
                    report.e1_discrepancy.append({"hg": text, "vertex": v})
            elif not found:
                report.start_failures.append(
                    {"hg": text, "vertex": v, "detail": f"no length-{m} path starts here"}
                )
        if r >= 4 and m >= 2:
            for u in range(n):
                for w in range(u + 1, n):
                    if not has_path_with_endpoints(hg, u, w, m):
                        report.pair_failures.append({"hg": text, "pair": [u, w]})
    return report
