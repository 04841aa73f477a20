"""Acceptance gate: every criterion at its stated tolerance.

Exact rational comparisons throughout; each test prints one pass/fail
line. The (5,3) exhaustive all-checks sweep is shared across criteria
through a module-scoped fixture. This module is slower than the unit
tests (a few minutes single-core); run it with

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import itertools
import json
import time
from pathlib import Path

import pytest

from bergepaths.hypergraph import Hypergraph, possible_edges
from bergepaths.oracle import oracle_length_table
from bergepaths.search import analyze, longest_path_length
from bergepaths.verify import (
    SweepConfig,
    coro_path_check,
    report_to_dict,
    run_sweep,
)
from bergepaths.weights import gap_check, turan_exact

GOLDEN = Path(__file__).parent / "golden"


def report_line(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def sweep_53_all():
    """The (5,3) exhaustive sweep with every check enabled, single worker."""
    return run_sweep(SweepConfig(n=5, r=3, mode="exhaustive"), workers=1)


def test_criterion_1_localized_inequality_exhaustive_5_3():
    started = time.monotonic()
    rep = run_sweep(
        SweepConfig(n=5, r=3, mode="exhaustive", checks=("inequality",)), workers=1
    )
    elapsed = time.monotonic() - started
    ok = rep.instances == 1024 and not rep.violations and elapsed < 60
    report_line(
        1,
        ok,
        f"1024 labeled (5,3) hypergraphs, weight sum <= 5 exactly, "
        f"{len(rep.violations)} violations, {elapsed:.1f}s single-threaded",
    )
    assert rep.instances == 1024
    assert rep.violations == []
    assert elapsed < 60


def test_criterion_2_equality_characterization(sweep_53_all):
    mismatches = [
        v for v in sweep_53_all.violations if v.check == "equality_classifier"
    ]
    censuses = {}
    for n, r in [(3, 3), (4, 3), (4, 4), (5, 4)]:
        rep = run_sweep(
            SweepConfig(
                n=n, r=r, mode="exhaustive", checks=("inequality", "equality_classifier")
            )
        )
        mismatches += [v for v in rep.violations if v.check == "equality_classifier"]
        censuses[(n, r)] = rep.census
    golden = json.loads((GOLDEN / "census_4_3.json").read_text())
    stable = censuses[(4, 3)] == golden
    ok = not mismatches and stable
    report_line(
        2,
        ok,
        f"is_equality matches the per-component truth table at (3,3),(4,3),(5,3),(4,4),(5,4); "
        f"(4,3) census {censuses[(4, 3)]} matches golden",
    )
    assert mismatches == []
    assert stable


def _r4_sampled_instance(index: int) -> Hypergraph:
    """Deterministic r=4 instance with n <= 7 and at most 5 edges."""
    digest = hashlib.sha256(f"acceptance3:{index}".encode()).digest()
    stream = int.from_bytes(digest, "big")
    n = 4 + stream % 4
    stream //= 4
    count = stream % 6
    stream //= 6
    slots = possible_edges(n, 4)
    picked = set()
    while len(picked) < min(count, len(slots)):
        picked.add(slots[stream % len(slots)])
        stream //= len(slots)
        if stream == 0:
            stream = int.from_bytes(
                hashlib.sha256(f"acceptance3:{index}:more".encode()).digest(), "big"
            )
    return Hypergraph(n, 4, tuple(sorted(picked)))


def test_criterion_3_oracle_equivalence():
    checked = 0
    for n in range(3, 7):
        slots = possible_edges(n, 3)
        for size in range(0, 6):
            for combo in itertools.combinations(range(len(slots)), size):
                hg = Hypergraph(n, 3, tuple(slots[i] for i in combo))
                k, pvals = oracle_length_table(hg)
                assert longest_path_length(hg) == k, hg
                assert analyze(hg).p_values == pvals, hg
                checked += 1
    sampled = 0
    for index in range(1000):
        hg = _r4_sampled_instance(index)
        k, pvals = oracle_length_table(hg)
        assert longest_path_length(hg) == k, hg
        assert analyze(hg).p_values == pvals, hg
        sampled += 1
    report_line(
        3,
        True,
        f"search equals factorial oracle on {checked} exhaustive r=3 instances"
        f" (<=5 edges, n<=6) and {sampled} sampled r=4 instances (n<=7)",
    )


def test_criterion_4_good_set_existence(sweep_53_all):
    viol53 = [v for v in sweep_53_all.violations if v.check == "good_set_existence"]
    rep63 = run_sweep(
        SweepConfig(
            n=6,
            r=3,
            mode="sample",
            sample_count=100_000,
            seed=42,
            checks=("good_set_existence",),
        ),
        workers=1,
    )
    ok = not viol53 and not rep63.violations and rep63.instances == 100_000
    report_line(
        4,
        ok,
        f"every connected instance admits a good set and the k > r size dichotomy holds:"
        f" (5,3) exhaustive + (6,3) sample of {rep63.instances} (seed 42),"
        f" {len(viol53) + len(rep63.violations)} violations",
    )
    assert viol53 == []
    assert rep63.violations == []
    assert rep63.instances == 100_000


def test_criterion_5_rotation_bound(sweep_53_all):
    viols = [v for v in sweep_53_all.violations if v.check == "rotation_bound"]
    report_line(
        5,
        not viols,
        f"|N_E(P)(tau)| <= 2|tau|-1 for the rotation closure of every longest path"
        f" of every (5,3) instance, {len(viols)} violations",
    )
    assert viols == []


def test_criterion_6_turan_exactness():
    started = time.monotonic()
    res533 = turan_exact(5, 3, 3)
    res434 = turan_exact(4, 3, 4)
    res634 = turan_exact(6, 3, 4)
    elapsed = time.monotonic() - started

    golden = json.loads((GOLDEN / "turan_6_3_4.json").read_text())
    checks = {
        "ex_3(5,BP_3)": res533.exact == 2 and res533.exact <= res533.paper_bound,
        "floor bound": int(res533.paper_bound) == 2,
        "ex_3(4,BP_4)=n": res434.exact == 4 == res434.n,
        "ex_3(6,BP_4)<=6": res634.exact <= 6,
        "golden": res634.exact == golden["exact"],
        "witnesses BP_k-free": all(
            longest_path_length(res.witness) < res.k and res.witness.num_edges == res.exact
            for res in (res533, res434, res634)
        ),
        "runtime": elapsed < 300,
    }
    report_line(
        6,
        all(checks.values()),
        f"ex_3(5,BP_3)={res533.exact}, ex_3(4,BP_4)={res434.exact},"
        f" ex_3(6,BP_4)={res634.exact}, witnesses re-verified, {elapsed:.1f}s",
    )
    for name, passed in checks.items():
        assert passed, name


def test_criterion_7_gap_inequality():
    equalities = []
    count = 0
    for r in range(3, 9):
        start = 6 if r == 3 else r + 1
        for k in range(start, 41):
            res = gap_check(r, k)
            assert res.in_domain, (r, k)
            assert res.holds, (r, k, res.lhs, res.rhs)
            if res.is_equality:
                equalities.append((r, k))
            count += 1
    report_line(
        7,
        equalities == [(3, 6)],
        f"f_r(k)-2 >= C(k/2, r-1) over {count} domain points, equality exactly at (3,6)",
    )
    assert equalities == [(3, 6)]


def test_criterion_8_spanning_cycle_and_start_vertex_suites(sweep_53_all):
    cyc53 = [v for v in sweep_53_all.violations if v.check == "spanning_cycle"]
    rep54 = run_sweep(
        SweepConfig(n=5, r=4, mode="exhaustive", checks=("spanning_cycle",))
    )
    coro3 = coro_path_check(3)
    coro4 = coro_path_check(4)
    ok = (
        not cyc53
        and not rep54.violations
        and coro3.passed
        and coro4.passed
        and len(coro3.e1_discrepancy) == 4
        and len(coro4.e1_discrepancy) == 5
    )
    report_line(
        8,
        ok,
        f"spanning-cycle property clean at r in {{3,4}}; start-vertex suite passes with the"
        f" single-edge coverage discrepancy reported"
        f" ({len(coro3.e1_discrepancy)}+{len(coro4.e1_discrepancy)} uncovered-vertex cases)",
    )
    assert cyc53 == []
    assert rep54.violations == []
    assert coro3.passed and coro4.passed
    # the literal single-edge claim fails exactly at the uncovered vertex
    assert len(coro3.e1_discrepancy) == 4
    assert len(coro4.e1_discrepancy) == 5


def test_criterion_9_determinism_and_parallel_soundness(sweep_53_all):
    baseline = json.dumps(report_to_dict(sweep_53_all), indent=2) + "\n"
    golden = (GOLDEN / "report_5_3_exhaustive.json").read_text()
    rerun = run_sweep(SweepConfig(n=5, r=3, mode="exhaustive"), workers=1)
    par4 = run_sweep(SweepConfig(n=5, r=3, mode="exhaustive"), workers=4)
    par8 = run_sweep(SweepConfig(n=5, r=3, mode="exhaustive"), workers=8)
    texts = {
        "rerun": json.dumps(report_to_dict(rerun), indent=2) + "\n",
        "workers=4": json.dumps(report_to_dict(par4), indent=2) + "\n",
        "workers=8": json.dumps(report_to_dict(par8), indent=2) + "\n",
        "golden": golden,
    }
    mismatched = [name for name, text in texts.items() if text != baseline]
    report_line(
        9,
        not mismatched,
        "(5,3) exhaustive report byte-identical across runs and worker counts {1,4,8}"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
    assert mismatched == []
