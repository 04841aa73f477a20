import json
from math import comb

import pytest

from bergepaths.verify import (
    SweepConfig,
    SweepConfigError,
    coro_path_check,
    report_read,
    report_to_dict,
    report_write,
    run_sweep,
    sample_mask,
    validate_config,
)


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
        assert report_read(out) == report_to_dict(rep)

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

    def test_r_out_of_range(self):
        with pytest.raises(SweepConfigError):
            coro_path_check(7)


def test_report_json_is_parseable_and_sorted(tmp_path):
    rep = run_sweep(SweepConfig(n=4, r=3, mode="exhaustive", checks=("inequality",)))
    out = tmp_path / "r.json"
    report_write(rep, out)
    data = json.loads(out.read_text())
    assert data["instances"] == 16
