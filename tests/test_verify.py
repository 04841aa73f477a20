import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from bergepaths import verify
from bergepaths.goodsets import find_good_set
from bergepaths.hypergraph import (
    Hypergraph,
    bits,
    hypergraph_from_subset,
    possible_edges,
    serialize_hypergraph,
)
from bergepaths.search import analyze
from bergepaths.verify import (
    MAX_WORKERS,
    SweepConfig,
    SweepConfigError,
    coro_path_check,
    index_count,
    instances,
    report_to_dict,
    report_write,
    run_sweep,
    sample_mask,
    validate_config,
)
from bergepaths.weights import classify_structure, weight_sum


def built(cfg, *span):
    return [a.hg for a in instances(cfg, *span)]


def test_importing_the_package_leaves_the_process_pool_unloaded():
    """Only a sweep on two or more workers imports the process pool, so a
    fresh interpreter that imports the package and its five layers has not
    loaded concurrent.futures: its ProcessPoolExecutor costs about 2 MiB
    of resident memory in every process that loads it."""
    code = (
        "import sys, bergepaths\n"
        "from bergepaths import goodsets, hypergraph, search, verify, weights\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestConfig:
    def test_r2_rejected(self):
        with pytest.raises(SweepConfigError):
            validate_config(SweepConfig(n=5, r=2, mode="exhaustive"))

    def test_sample_needs_count_and_seed(self):
        with pytest.raises(SweepConfigError):
            validate_config(SweepConfig(n=5, r=3, mode="sample"))

    def test_exhaustive_cap_depends_on_checks(self):
        # C(7,5) = 21 slots: over the search-heavy cap of 20, under the plain cap of 30
        with pytest.raises(SweepConfigError):
            validate_config(SweepConfig(n=7, r=5, mode="exhaustive"))
        validate_config(
            SweepConfig(n=7, r=5, mode="exhaustive", checks=("inequality",))
        )
        with pytest.raises(SweepConfigError):
            validate_config(
                SweepConfig(n=8, r=3, mode="exhaustive", checks=("inequality",))
            )

    def test_unknown_check(self):
        with pytest.raises(SweepConfigError):
            validate_config(SweepConfig(n=4, r=3, mode="exhaustive", checks=("nope",)))


class TestSampleMask:
    def test_deterministic(self):
        assert sample_mask(42, 7, 20) == sample_mask(42, 7, 20)
        assert sample_mask(42, 7, 20) != sample_mask(42, 8, 20)
        assert sample_mask(1, 7, 20) != sample_mask(2, 7, 20)

    def test_width(self):
        for idx in range(50):
            assert 0 <= sample_mask(9, idx, 10) < 1 << 10

    def test_wide_masks_use_multiple_blocks(self):
        wide = sample_mask(3, 0, 300)
        assert wide.bit_length() <= 300
        assert wide >> 250  # astronomically unlikely to have 50 leading zeros


class TestInstances:
    def test_index_is_the_subset_or_its_draw(self):
        slots = possible_edges(4, 3)
        exhaustive = SweepConfig(n=4, r=3, mode="exhaustive")
        assert built(exhaustive) == [hypergraph_from_subset(4, 3, slots, i) for i in range(16)]
        sample = SweepConfig(n=4, r=3, mode="sample", sample_count=30, seed=8)
        draws = [sample_mask(8, i, len(slots)) for i in range(30)]
        assert built(sample) == [hypergraph_from_subset(4, 3, slots, m) for m in draws]
        assert len(built(SweepConfig(n=4, r=3, mode="exhaustive", connected_only=True))) == 11

    @pytest.mark.parametrize(
        "cfg",
        [
            SweepConfig(n=4, r=3, mode="exhaustive"),
            SweepConfig(n=5, r=3, mode="sample", connected_only=True, sample_count=40, seed=2),
        ],
    )
    def test_split_blocks_concatenate(self, cfg):
        # what keeps reports byte-identical across worker counts
        total = index_count(cfg)
        for s in range(total + 1):
            assert built(cfg, 0, s) + built(cfg, s, total) == built(cfg)


class TestSweep:
    def test_exhaustive_43_all_checks_clean(self):
        rep = run_sweep(SweepConfig(n=4, r=3, mode="exhaustive"))
        assert rep.instances == 16
        assert rep.violations == []
        assert rep.census == {"case_i": 7, "case_ii": 0, "not_extremal": 9}

    def test_census_matches_combinatorial_count(self):
        # equality at (4,3): any 2 of the 4 triples, or all 4
        rep = run_sweep(SweepConfig(n=4, r=3, mode="exhaustive", checks=("inequality",)))
        assert rep.census["case_i"] == comb(4, 2) + 1

    def test_census_5_4_matches_combinatorial_count(self):
        # equality at (5,4): any 2 or 3 of the 5 quadruples, or all 5
        rep = run_sweep(SweepConfig(n=5, r=4, mode="exhaustive", checks=("inequality",)))
        assert rep.census["case_i"] == comb(5, 2) + comb(5, 3) + 1
        assert rep.census["case_ii"] == 0

    def test_connected_only_counts(self):
        rep = run_sweep(
            SweepConfig(n=4, r=3, mode="exhaustive", connected_only=True, checks=("inequality",))
        )
        assert rep.instances == 11

    def test_sampled_clean_and_reproducible(self):
        cfg = SweepConfig(
            n=5, r=3, mode="sample", sample_count=500, seed=7, checks=("inequality",)
        )
        a, b = run_sweep(cfg), run_sweep(cfg)
        assert a.violations == [] and a.census == b.census

    def test_worker_count_bounds(self):
        cfg = SweepConfig(n=3, r=3, mode="exhaustive")
        for workers in (0, -1, MAX_WORKERS + 1):
            with pytest.raises(SweepConfigError):
                run_sweep(cfg, workers=workers)
        assert run_sweep(cfg, workers=MAX_WORKERS).instances == 2

    def test_parallel_matches_sequential(self):
        cfg = SweepConfig(n=4, r=3, mode="exhaustive")
        seq = run_sweep(cfg, workers=1)
        par = run_sweep(cfg, workers=3)
        assert report_to_dict(seq) == report_to_dict(par)


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        rep = run_sweep(SweepConfig(n=3, r=3, mode="exhaustive"))
        assert rep.instances == 2  # the empty hypergraph and the single triple
        out = tmp_path / "rep.json"
        report_write(rep, out)
        assert json.loads(out.read_text(encoding="utf-8")) == report_to_dict(rep)

    def test_schema_fields(self):
        rep = run_sweep(SweepConfig(n=3, r=3, mode="exhaustive"))
        d = report_to_dict(rep)
        assert set(d) == {"config", "instances", "violations", "census", "elapsed_ms"}
        assert d["elapsed_ms"] == 0
        assert set(d["census"]) == {"case_i", "case_ii", "not_extremal"}

    def test_byte_stability(self, tmp_path):
        cfg = SweepConfig(n=4, r=3, mode="exhaustive")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        report_write(run_sweep(cfg), p1)
        report_write(run_sweep(cfg, workers=2), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_config_names_generator(self):
        cfg = SweepConfig(
            n=4, r=3, mode="sample", sample_count=10, seed=1, checks=("inequality",)
        )
        d = report_to_dict(run_sweep(cfg))
        assert d["config"]["generator"] == "sha256-ctr"
        assert d["config"]["seed"] == 1

    def test_violations_serialize_sorted(self):
        from bergepaths.verify import SweepReport, Violation

        cfg = SweepConfig(n=4, r=3, mode="exhaustive")
        rep = SweepReport(
            config=cfg,
            instances=2,
            violations=[
                Violation("4 3\n1 2 3\n", "inequality", "b"),
                Violation("4 3\n0 1 2\n", "inequality", "a"),
            ],
            census={"case_i": 0, "case_ii": 0, "not_extremal": 2},
        )
        d = report_to_dict(rep)
        assert [v["detail"] for v in d["violations"]] == ["b", "a"]
        assert d["violations"][0]["hg"].startswith("4 3")


class TestCoroPath:
    def test_r3_corrected_claim_holds(self):
        rep = coro_path_check(3)
        # subsets of size 1 or 2 from the 4 possible triples on 4 vertices
        assert rep.instances == comb(4, 1) + comb(4, 2)
        assert rep.passed
        assert not rep.start_failures

    def test_r3_single_edge_discrepancy_reported(self):
        rep = coro_path_check(3)
        # each single-edge instance leaves exactly one vertex uncovered
        assert len(rep.e1_discrepancy) == 4

    def test_r4_with_pair_statement(self):
        rep = coro_path_check(4)
        assert rep.passed
        assert not rep.pair_failures
        assert len(rep.e1_discrepancy) == 5

    @pytest.mark.parametrize("r, count, uncovered", [(5, 56, 6), (6, 119, 7)])
    def test_r5_and_r6(self, r, count, uncovered):
        rep = coro_path_check(r)
        # subsets of size 1..r-1 of the r+1 possible r-sets on r+1 vertices
        assert rep.instances == count == sum(comb(r + 1, m) for m in range(1, r))
        assert rep.passed
        assert len(rep.e1_discrepancy) == uncovered

    def test_r_out_of_range(self):
        with pytest.raises(SweepConfigError):
            coro_path_check(7)

    def test_start_failure_reaches_both_callers(self, monkeypatch):
        text = "4 3\n0 1 2\n0 1 3\n"
        real = verify._walk

        def no_paths_from_v3(a, start, length):
            lie = serialize_hypergraph(a.hg) == text and start == 3
            return iter(()) if lie else real(a, start, length)

        monkeypatch.setattr(verify, "_walk", no_paths_from_v3)
        rep = run_sweep(SweepConfig(n=4, r=3, mode="exhaustive", checks=("coro_path",)))
        detail = "length-2 path starting at v3: expected True, got False"
        assert [(v.hg, v.check, v.detail) for v in rep.violations] == [(text, "coro_path", detail)]
        assert coro_path_check(3).start_failures == [{"hg": text, "vertex": 3, "detail": detail}]

    def test_pair_failure_reaches_both_callers(self, monkeypatch):
        text = "5 4\n0 1 2 3\n0 1 2 4\n"
        real = verify._walk

        def no_path_joins_v0_v4(a, start, length):
            paths = real(a, start, length)
            if serialize_hypergraph(a.hg) != text:
                return paths
            return ((vs, es) for vs, es in paths if {vs[0], vs[-1]} != {0, 4})

        monkeypatch.setattr(verify, "_walk", no_path_joins_v0_v4)
        rep = run_sweep(SweepConfig(n=5, r=4, mode="exhaustive", checks=("coro_path",)))
        detail = "no length-2 path joins v0 and v4"
        assert [(v.hg, v.check, v.detail) for v in rep.violations] == [(text, "coro_path", detail)]
        assert coro_path_check(4).pair_failures == [{"hg": text, "pair": [0, 4]}]


def test_report_json_is_parseable_and_sorted(tmp_path):
    rep = run_sweep(SweepConfig(n=4, r=3, mode="exhaustive", checks=("inequality",)))
    out = tmp_path / "r.json"
    report_write(rep, out)
    data = json.loads(out.read_text())
    assert data["instances"] == 16


def pool_and_rebuild_agree(a, walks, good_sets=True):
    """The values the sweeps read, from a pool instance (slot indices) and
    from a rank-order rebuild of its Hypergraph, each structural check
    where a sweep runs it; with ``walks``, also ``rotation_bound``, and with
    ``good_sets``, ``find_good_set``, whose certificate names N(S) in rank
    order."""
    b = analyze(a.hg)
    values = (a.k, a.p_values, a.components, a.connected)
    assert values == (b.k, b.p_values, b.components, b.connected)
    assert sum(1 << i for i in a.ranks(bits(a.max_p_mask))) == b.max_p_mask
    assert (classify_structure(a), weight_sum(a)) == (classify_structure(b), weight_sum(b))
    whole = b.connected and b.m > 0
    for name, check, gated in verify.STRUCTURAL_CHECKS:
        if (whole or not gated) and (walks or name != "rotation_bound"):
            assert check(a) == check(b), (name, a.hg)
    if whole and good_sets:
        assert find_good_set(a) == find_good_set(b), a.hg


def test_pool_instances_match_a_rank_order_rebuild():
    # rotation_bound walks every longest path, so it runs on (4,3) and (5,4)
    # only; the (5,3) rotation details are compared under a mutation that
    # makes them fail
    for n, r in ((4, 3), (5, 3), (5, 4), (6, 4)):
        for a in instances(SweepConfig(n=n, r=r, mode="exhaustive")):
            pool_and_rebuild_agree(a, walks=(n, r) in ((4, 3), (5, 4)))
    for a in instances(SweepConfig(n=6, r=3, mode="sample", sample_count=30_000, seed=77)):
        pool_and_rebuild_agree(a, walks=False, good_sets=False)


def test_a_violation_free_sweep_builds_no_hypergraph_per_instance(monkeypatch):
    # the pool is the one Hypergraph a sweep builds until a check fails
    built = []
    post_init = Hypergraph.__post_init__

    def counting(hg):
        built.append(hg)
        post_init(hg)

    monkeypatch.setattr(Hypergraph, "__post_init__", counting)
    checks = ("inequality", "equality_classifier", "good_set_existence")
    cfg = SweepConfig(n=6, r=3, mode="sample", sample_count=800, seed=1, checks=checks)
    report = run_sweep(cfg)
    assert report.instances == 800 and report.violations == []
    assert len(built) == 1
