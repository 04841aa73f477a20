import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bergepaths.hypergraph import (
    Hypergraph,
    bits,
    complete_hypergraph,
    delete_vertices,
    from_edge_lists,
    is_connected,
    possible_edges,
)
from bergepaths.oracle import OracleError, oracle_length_table, oracle_longest_path
from bergepaths.search import (
    BergePath,
    PathQuery,
    SearchError,
    analyze,
    find_berge_cycle,
    has_berge_cycle,
    has_path_with_endpoints,
    iter_paths_of_length,
    longest_berge_path,
    longest_path_length,
    p_edge,
    render_path,
    validate_path,
)
from bergepaths.weights import classify_structure


def hg(n, r, *edges):
    return from_edge_lists(n, r, edges)


SINGLE = hg(3, 3, [0, 1, 2])
CHAIN2 = hg(5, 3, [0, 1, 2], [2, 3, 4])
CHAIN3 = hg(7, 3, [0, 1, 2], [2, 3, 4], [4, 5, 6])
K43 = complete_hypergraph(4, 3)
K53 = complete_hypergraph(5, 3)


class TestLongestPath:
    def test_single_edge(self):
        k, w = longest_berge_path(SINGLE)
        assert k == 1
        validate_path(SINGLE, w)

    def test_chain(self):
        assert longest_berge_path(CHAIN2)[0] == 2

    def test_complete_k43(self):
        k, w = longest_berge_path(K43)
        assert k == 3
        assert len(set(w.vertices)) == 4  # witness spans all 4 vertices

    def test_edgeless(self):
        h = Hypergraph(4, 3, ())
        k, w = longest_berge_path(h)
        assert k == 0 and w == BergePath((0,), ())

    def test_no_vertices_has_no_paths(self):
        with pytest.raises(SearchError):
            longest_berge_path(Hypergraph(0, 3, ()))

    def test_witness_is_lexicographically_least(self):
        k, w = longest_berge_path(K43)
        best = min(
            (p.vertices, p.edges) for p in iter_paths_of_length(K43, k)
        )
        assert (w.vertices, w.edges) == best

    def test_render(self):
        _, w = longest_berge_path(CHAIN2)
        assert render_path(w) == "v0 -e0- v2 -e1- v3"


class TestPEdge:
    def test_single_edge(self):
        assert p_edge(SINGLE, 0) == 1

    def test_chain_both_edges(self):
        assert [p_edge(CHAIN2, i) for i in range(2)] == [2, 2]

    def test_complete_k53_all_edges(self):
        # p equals n-1 for every edge of a complete hypergraph
        assert all(p_edge(K53, i) == 4 for i in range(10))

    def test_bad_index(self):
        with pytest.raises(SearchError):
            p_edge(SINGLE, 1)

    def test_p_table_and_max_mask_agree(self):
        # K53 beside a disjoint 3-edge chain: the chain's edges have p = 3 < k = 4
        chain = ([5, 6, 7], [7, 8, 9], [9, 10, 11])
        k53_and_chain = hg(12, 3, *(bits(e) for e in K53.edges), *chain)
        assert analyze(k53_and_chain).max_p_mask == (1 << 10) - 1
        for h in (SINGLE, CHAIN2, CHAIN3, K43, K53, k53_and_chain):
            k = longest_path_length(h)
            pvals = analyze(h).p_values
            mask = analyze(h).max_p_mask
            assert all((pvals[i] == k) == bool(mask >> i & 1) for i in range(h.num_edges))


class TestCycles:
    def test_k43_has_spanning_cycle(self):
        c = find_berge_cycle(K43, 4)
        assert c is not None and len(c.edges) == 4
        assert set(c.vertices) == {0, 1, 2, 3}

    def test_chain_has_no_2cycle(self):
        assert find_berge_cycle(CHAIN2, 2) is None

    def test_two_edges_sharing_two_vertices_form_2cycle(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        c = find_berge_cycle(h, 2)
        assert c is not None
        assert c.vertices == (1, 2) and c.edges == (0, 1)

    def test_length_below_two_rejected(self):
        with pytest.raises(SearchError):
            find_berge_cycle(K43, 1)

    def test_existence_matches_witness(self):
        for h in (SINGLE, CHAIN2, K43, K53):
            for l in range(2, 6):
                assert has_berge_cycle(h, l) == (find_berge_cycle(h, l) is not None)


class TestQueries:
    def test_required_endpoint(self):
        # only vertices of the edge can start a length-1 path
        assert longest_path_length(SINGLE, PathQuery(required_endpoint=0)) == 1
        h = hg(4, 3, [0, 1, 2])
        assert longest_path_length(h, PathQuery(required_endpoint=3)) == 0

    def test_target_length_early_exit(self):
        assert longest_path_length(K53, PathQuery(target_length=2)) == 2

    def test_endpoint_pair_search(self):
        assert has_path_with_endpoints(CHAIN2, 0, 4, 2)
        assert not has_path_with_endpoints(CHAIN2, 0, 4, 1)
        assert has_path_with_endpoints(CHAIN2, 0, 0, 0)


class TestOracle:
    def test_single_edge(self):
        assert oracle_longest_path(SINGLE) == 1

    def test_k43_required_edge(self):
        assert oracle_longest_path(K43, PathQuery(required_edge=0)) == 3

    def test_chain_of_three(self):
        assert oracle_longest_path(CHAIN3) == 3

    def test_cap(self):
        h = complete_hypergraph(5, 3)  # 10 edges
        with pytest.raises(OracleError):
            oracle_longest_path(h)

    def test_table_matches_per_query_results(self):
        for h in (SINGLE, CHAIN2, CHAIN3, K43):
            k, pvals = oracle_length_table(h)
            assert k == oracle_longest_path(h)
            for i in range(h.num_edges):
                assert pvals[i] == oracle_longest_path(h, PathQuery(required_edge=i))


def small_searchable(max_n=5, max_edges=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        r = draw(st.integers(min_value=2, max_value=min(3, n) if n >= 2 else 2))
        slots = possible_edges(n, r)
        if not slots:
            return Hypergraph(n, r, ())
        picked = draw(st.sets(st.sampled_from(slots), max_size=max_edges))
        return Hypergraph(n, r, tuple(sorted(picked)))

    return build()


@given(small_searchable())
@settings(max_examples=150)
def test_oracle_equivalence_random(h):
    assert longest_path_length(h) == oracle_longest_path(h)
    for i in range(h.num_edges):
        assert p_edge(h, i) == oracle_longest_path(h, PathQuery(required_edge=i))


@given(small_searchable())
@settings(max_examples=100)
def test_analysis_matches_oracle_table(h):
    a = analyze(h)
    assert analyze(a) is a
    k, pvals = oracle_length_table(h)
    assert a.k == k and a.p_values == pvals
    assert a.max_p_mask == sum(1 << i for i, p in enumerate(pvals) if p == k)
    assert classify_structure(a) == classify_structure(h)
    assert a.connected == is_connected(h)


@given(small_searchable(), st.data())
@settings(max_examples=100)
def test_oracle_equivalence_combined_constraints(h, data):
    if h.num_edges == 0 or h.n == 0:
        return
    q = PathQuery(
        required_edge=data.draw(st.integers(min_value=0, max_value=h.num_edges - 1)),
        required_endpoint=data.draw(st.integers(min_value=0, max_value=h.n - 1)),
    )
    assert longest_path_length(h, q) == oracle_longest_path(h, q)


@given(small_searchable(), st.integers(min_value=0))
@settings(max_examples=100)
def test_p_monotone_under_vertex_deletion(h, s):
    s &= h.vertex_mask
    sub, _ = delete_vertices(h, s)
    kept = [i for i, e in enumerate(h.edges) if not e & s]
    for sub_idx, old_idx in enumerate(kept):
        assert p_edge(h, old_idx) >= p_edge(sub, sub_idx)


@given(small_searchable())
@settings(max_examples=100)
def test_subpath_closure(h):
    k = longest_path_length(h)
    for l in range(k + 1):
        assert next(iter(iter_paths_of_length(h, l)), None) is not None


@given(small_searchable())
@settings(max_examples=100)
def test_every_enumerated_longest_path_is_valid(h):
    k = longest_path_length(h)
    for p in iter_paths_of_length(h, k):
        validate_path(h, p)
        assert p.length == k


def test_exhaustive_oracle_equivalence_tiny():
    # every hypergraph on 4 vertices, r=3, up to all 4 edges
    slots = possible_edges(4, 3)
    for size in range(len(slots) + 1):
        for combo in itertools.combinations(range(len(slots)), size):
            h = Hypergraph(4, 3, tuple(slots[i] for i in combo))
            k, pvals = oracle_length_table(h)
            assert longest_path_length(h) == k
            assert analyze(h).p_values == pvals
