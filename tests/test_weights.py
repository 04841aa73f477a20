from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bergepaths.hypergraph import (
    Hypergraph,
    component_masks,
    from_edge_lists,
    induced,
    possible_edges,
)
from bergepaths.search import longest_path_length
from bergepaths.verify import SweepConfig, instances
from bergepaths.weights import (
    CASE_I,
    CASE_II,
    NOT_EXTREMAL,
    OUT_OF_SCOPE_R2,
    f_r,
    falling_factorial,
    format_fraction,
    gap_check,
    gap_domain,
    turan_exact,
    weight_report,
)
from reference import complete


class TestFr:
    @pytest.mark.parametrize(
        "r,x,expected",
        [
            (3, 1, Fraction(1, 3)),
            (3, 2, Fraction(1, 2)),
            (3, 3, Fraction(1)),
            (3, 4, Fraction(2)),
            (4, 5, Fraction(5, 2)),
            (4, 1, Fraction(1, 4)),
            (4, 3, Fraction(3, 5)),
        ],
    )
    def test_values(self, r, x, expected):
        assert f_r(r, x) == expected

    def test_rejects_small_r_and_x(self):
        with pytest.raises(ValueError):
            f_r(2, 3)
        with pytest.raises(ValueError):
            f_r(3, 0)

    def test_strictly_increasing(self):
        for r in range(3, 13):
            prev = f_r(r, 1)
            for x in range(2, 65):
                cur = f_r(r, x)
                assert cur > prev, (r, x)
                prev = cur


class TestWeightReport:
    def test_complete_k53_is_equality(self):
        rep = weight_report(complete(5, 3))
        assert rep.total == 5 and rep.is_equality
        assert rep.classification == CASE_II
        assert all(w.p == 4 and w.inv_f == Fraction(1, 2) for w in rep.per_edge)

    def test_single_edge_on_r_vertices(self):
        rep = weight_report(from_edge_lists(3, 3, [[0, 1, 2]]))
        assert rep.total == 3 and rep.is_equality and rep.classification == CASE_II

    def test_three_triples_not_extremal(self):
        rep = weight_report(from_edge_lists(4, 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3]]))
        assert rep.total == 3 and not rep.is_equality
        assert rep.classification == NOT_EXTREMAL

    def test_two_triples_case_i(self):
        rep = weight_report(from_edge_lists(4, 3, [[0, 1, 2], [0, 1, 3]]))
        assert [w.p for w in rep.per_edge] == [2, 2]
        assert rep.total == 4 and rep.is_equality and rep.classification == CASE_I

    def test_r2_out_of_scope_but_summed(self):
        rep = weight_report(from_edge_lists(3, 2, [[0, 1], [1, 2]]))
        assert rep.classification == OUT_OF_SCOPE_R2
        # graph path of length 2: each p=2, f=1, sum=2 <= 3
        assert rep.total == 2

    def test_two_disjoint_single_edges_equality(self):
        rep = weight_report(from_edge_lists(6, 3, [[0, 1, 2], [3, 4, 5]]))
        assert rep.total == 6 and rep.is_equality and rep.classification == CASE_II

    def test_isolated_vertex_breaks_equality(self):
        rep = weight_report(from_edge_lists(4, 3, [[0, 1, 2]]))
        assert rep.total == 3 and not rep.is_equality


class TestTuran:
    def test_bp3_free_on_five_vertices(self):
        res = turan_exact(5, 3, 3)
        assert res.exact == 2
        assert res.paper_bound == Fraction(5, 2)
        assert res.exact <= res.paper_bound

    def test_bp4_free_on_four_vertices_tight(self):
        res = turan_exact(4, 3, 4)
        assert res.exact == 4 == res.n
        assert res.paper_bound == 4

    def test_witness_is_path_free(self):
        for n, r, k in [(5, 3, 3), (4, 3, 4), (5, 3, 4)]:
            res = turan_exact(n, r, k)
            assert res.witness.num_edges == res.exact
            assert longest_path_length(res.witness) < k

    def test_guards(self):
        with pytest.raises(ValueError):
            turan_exact(5, 2, 3)
        with pytest.raises(ValueError):
            turan_exact(5, 3, 1)


class TestGapCheck:
    def test_equality_at_r3_k6(self):
        res = gap_check(3, 6)
        assert res.lhs == 3 and res.rhs == 3 and res.holds and res.is_equality

    def test_half_integer_case(self):
        res = gap_check(4, 5)
        assert res.lhs == Fraction(1, 2) and res.rhs == Fraction(5, 16) and res.holds

    def test_outside_domain_flagged(self):
        res = gap_check(3, 5)
        assert not res.in_domain
        assert res.lhs == Fraction(4, 3)

    def test_domain_boundaries(self):
        assert gap_domain(3, 6) and not gap_domain(3, 5)
        assert gap_domain(4, 5) and not gap_domain(4, 4)
        assert gap_domain(7, 8) and not gap_domain(7, 7)

    def test_falling_factorial(self):
        assert falling_factorial(Fraction(5, 2), 3) == Fraction(15, 8)
        assert falling_factorial(Fraction(3), 4) == 0


def test_format_fraction():
    assert format_fraction(Fraction(5)) == "5/1"
    assert format_fraction(Fraction(-3, 7)) == "-3/7"


def small_weighted(max_n=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=3, max_value=max_n))
        r = draw(st.integers(min_value=3, max_value=min(4, n)))
        slots = possible_edges(n, r)
        picked = draw(st.sets(st.sampled_from(slots), max_size=6))
        return Hypergraph(n, r, tuple(sorted(picked)))

    return build()


@given(small_weighted())
@settings(max_examples=120)
def test_weight_sum_bounded_by_n(h):
    assert weight_report(h).total <= h.n


@given(small_weighted())
@settings(max_examples=80)
def test_weight_sum_additive_over_components(h):
    rep = weight_report(h)
    comps = (induced(h, group)[0] for group in component_masks(h))
    comp_total = sum((weight_report(c).total for c in comps), Fraction(0))
    assert rep.total == comp_total


def test_weights_shared_by_p_class_are_exact():
    cfgs = (
        SweepConfig(n=5, r=3, mode="exhaustive"),
        SweepConfig(n=6, r=3, mode="sample", sample_count=300, seed=9),
    )
    for cfg in cfgs:
        for a in instances(cfg):
            rep = weight_report(a)
            assert rep.total == sum((w.inv_f for w in rep.per_edge), Fraction(0))
            for w, p in zip(rep.per_edge, a.p_values):
                assert w.p == p and w.f == f_r(3, p) and w.f * w.inv_f == 1
