import pytest

from bergepaths.goodsets import (
    GoodSetError,
    check_spanning_cycle_property,
    enumerate_good_sets,
    find_good_set,
    is_good_set,
    rotation_closure,
)
from bergepaths.hypergraph import (
    complete_hypergraph,
    from_edge_lists,
    hypergraph_from_subset,
    is_connected,
    mask_of,
    possible_edges,
)
from bergepaths.search import BergePath, SearchError, iter_longest_paths, longest_path_length
from bergepaths.weights import f_r


def hg(n, r, *edges):
    return from_edge_lists(n, r, edges)


SINGLE = hg(3, 3, [0, 1, 2])
CHAIN2 = hg(5, 3, [0, 1, 2], [2, 3, 4])
K43 = complete_hypergraph(4, 3)
K53 = complete_hypergraph(5, 3)


class TestIsGoodSet:
    def test_whole_vertex_set_of_complete(self):
        cert = is_good_set(K53, mask_of(range(5)))
        assert cert is not None
        assert len(cert.NS) == 10 and cert.bound == f_r(3, 4) * 5

    def test_single_edge_vertex_set(self):
        cert = is_good_set(SINGLE, 0b111)
        assert cert is not None and cert.k == 1

    def test_chain_singleton_rejected_by_bound(self):
        # p(edge 0) = k = 2 but |N({0})| = 1 > f_3(2) * 1 = 1/2
        assert is_good_set(CHAIN2, 0b00001) is None

    def test_empty_set_rejected(self):
        with pytest.raises(GoodSetError):
            is_good_set(SINGLE, 0)

    def test_edgeless_rejected(self):
        from bergepaths.hypergraph import Hypergraph

        with pytest.raises(GoodSetError):
            is_good_set(Hypergraph(4, 3, ()), 1)

    def test_untouched_set_is_vacuously_good(self):
        h = hg(4, 3, [0, 1, 2])
        cert = is_good_set(h, mask_of([3]))
        assert cert is not None and cert.NS == ()


class TestEnumerate:
    def test_single_edge(self):
        assert [c.S for c in enumerate_good_sets(SINGLE)] == [0b111]

    def test_complete_k43_includes_v(self):
        assert any(c.S == 0b1111 for c in enumerate_good_sets(K43))

    def test_disconnected_pair_of_edges(self):
        h = hg(6, 3, [0, 1, 2], [3, 4, 5])
        ss = [c.S for c in enumerate_good_sets(h)]
        assert mask_of([0, 1, 2]) in ss and mask_of([3, 4, 5]) in ss

    def test_increasing_bitmask_order(self):
        ss = [c.S for c in enumerate_good_sets(K43)]
        assert ss == sorted(ss)


class TestRotationClosure:
    def test_loose_chain_no_rotation(self):
        h = hg(8, 3, [0, 1, 5], [1, 2, 6], [2, 3, 7])
        fam = rotation_closure(h, BergePath((0, 1, 2, 3), (0, 1, 2)), 0)
        assert fam.terminals == mask_of([3])
        assert fam.bound_lhs == 1 and fam.bound_rhs == 1

    def test_single_edge_path(self):
        fam = rotation_closure(SINGLE, BergePath((0, 1), (0,)), 0)
        assert fam.bound_lhs == 1 and fam.bound_rhs == 1

    def test_k43_grows_terminals_and_respects_bound(self):
        for path in iter_longest_paths(K43):
            fam = rotation_closure(K43, path, path.vertices[0])
            assert fam.bound_lhs <= fam.bound_rhs
            assert fam.bound_lhs <= len(path.edges)
            assert path.vertices[-1] in fam.witnesses

    def test_witnesses_preserve_vertex_and_edge_sets(self):
        for path in iter_longest_paths(K53):
            fam = rotation_closure(K53, path, path.vertices[0])
            for t, q in fam.witnesses.items():
                assert q.vertices[0] == path.vertices[0]
                assert q.vertices[-1] == t
                assert set(q.vertices) == set(path.vertices)
                assert set(q.edges) == set(path.edges)

    def test_fixed_end_may_be_either_terminal(self):
        fam = rotation_closure(CHAIN2, BergePath((0, 2, 3), (0, 1)), 3)
        assert fam.base.vertices[0] == 3

    def test_non_terminal_fixed_end_rejected(self):
        with pytest.raises(SearchError):
            rotation_closure(CHAIN2, BergePath((0, 2, 3), (0, 1)), 2)


class TestFindGoodSet:
    def test_complete_k53_via_cycle_route(self):
        assert find_good_set(K53).S == mask_of(range(5))

    def test_single_edge_direct(self):
        assert find_good_set(SINGLE).S == 0b111

    def test_chain_found_by_fallback(self):
        cert = find_good_set(CHAIN2)
        assert is_good_set(CHAIN2, cert.S) is not None

    def test_disconnected_rejected(self):
        with pytest.raises(GoodSetError):
            find_good_set(hg(6, 3, [0, 1, 2], [3, 4, 5]))


class TestSpanningCycle:
    def test_complete_k43(self):
        rep = check_spanning_cycle_property(K43)
        assert rep.cycle_found and rep.spans and rep.all_p_equal_k and rep.passed

    def test_chain_vacuous(self):
        rep = check_spanning_cycle_property(CHAIN2)
        assert not rep.cycle_found and rep.passed

    def test_complete_k53(self):
        assert check_spanning_cycle_property(K53).passed


@pytest.mark.parametrize("n", [4, 5])
def test_good_set_existence_and_patterns_exhaustive(n):
    """Connected instances with 1 < k <= r admit a good set matching one of
    the four structural patterns; k = 1 and k > r also stay nonempty."""
    r = 3
    slots = possible_edges(n, r)
    for subset in range(1, 1 << len(slots)):
        h = hypergraph_from_subset(n, r, slots, subset)
        if not is_connected(h):
            continue
        certs = list(enumerate_good_sets(h))
        assert certs, h
        k = longest_path_length(h)
        if 1 < k <= r:
            patterns = []
            for c in certs:
                size, ns = c.size, len(c.NS)
                patterns.append(
                    (k == r and size == r and ns <= r)
                    or (k == r and size >= r + 1 and ns <= r + 1)
                    or (1 < k < r and size >= r + 1 and ns <= k)
                    or (size == r - 1 and ns == 1)
                )
            assert any(patterns), (h, certs)
