from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bergepaths.hypergraph import (
    Hypergraph,
    bits,
    from_edge_lists,
    induced,
    is_connected,
    mask_of,
    possible_edges,
)
from bergepaths import search as search_module
from bergepaths.search import (
    Analysis,
    BergePath,
    PathQuery,
    SearchError,
    _cycle_mask,
    _validate_cycle,
    _validate_seq,
    analyze,
    longest_berge_path,
    longest_path_length,
    p_edge,
    render_path,
    validate_path,
)
from bergepaths.verify import SweepConfig, instances
from bergepaths.weights import classify_structure
from reference import OracleError, complete, oracle_length_table, oracle_longest_path


def hg(n, r, *edges):
    return from_edge_lists(n, r, edges)


SINGLE = hg(3, 3, [0, 1, 2])
CHAIN2 = hg(5, 3, [0, 1, 2], [2, 3, 4])
CHAIN3 = hg(7, 3, [0, 1, 2], [2, 3, 4], [4, 5, 6])
K43 = complete(4, 3)
K53 = complete(5, 3)


def walked_paths(h, length):
    """The paths of ``length`` that ``_walk`` yields from every start
    vertex: one per group that shares all but its last edge."""
    a = analyze(h)
    for s in range(h.n):
        for vs, es in search_module._walk(a, s, length):
            yield BergePath(tuple(vs), tuple(es))


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
        # the least path is the first of its group, so the walk yields it
        best = min((p.vertices, p.edges) for p in walked_paths(K43, k))
        assert (w.vertices, w.edges) == best

    def test_render(self):
        _, w = longest_berge_path(CHAIN2)
        assert render_path(w) == "v0 -e0- v2 -e1- v3"


class TestValidatePath:
    # CHAIN2: e0 = {0, 1, 2}, e1 = {2, 3, 4}
    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ((0, 2), (), "path has 2 vertices for 0 edges"),
            ((0, 2, 0), (0, 1), "repeated vertex in path (0, 2, 0)"),
            ((0, 1, 2), (0, 0), "repeated edge in path (0, 0)"),
            ((0, 2, 5), (0, 1), "vertex 5 outside 0..4"),
            ((-1, 2), (0,), "vertex -1 outside 0..4"),
            ((0, 2, 3), (0, 2), "edge index 2 out of range"),
            ((0, 2), (-1,), "edge index -1 out of range"),
            ((0, 2, 3), (1, 0), "edge 1 does not contain both 0 and 2"),
        ],
    )
    def test_each_error_message(self, vertices, edges, message):
        with pytest.raises(SearchError) as tuple_err:
            validate_path(CHAIN2, BergePath(vertices, edges))
        assert str(tuple_err.value) == message
        # the walker's reused lists take the same body and give the same text
        with pytest.raises(SearchError) as list_err:
            _validate_seq(analyze(CHAIN2), list(vertices), list(edges))
        assert str(list_err.value) == message

    def test_an_absent_slot_is_refused(self):
        # slot 1 of the (5,3) pool, {0, 1, 3}, holds 0 and 1; slot 0,
        # {0, 1, 2}, does too but is not present in this instance
        a = Analysis(K53, 0b110)
        assert _validate_seq(a, [0, 1], [1]) == (0b11, 0b10)
        with pytest.raises(SearchError) as err:
            _validate_seq(a, [0, 1], [0])
        assert str(err.value) == "edge index 0 out of range"

    def test_valid_path_passes(self):
        validate_path(CHAIN2, BergePath((0, 2, 3), (0, 1)))
        _validate_seq(analyze(CHAIN2), [1], [])

    def test_a_pool_instance_is_read_by_rank(self):
        # slots 1 and 2 of the (5,3) pool, {0, 1, 3} and {0, 2, 3}, are
        # the instance's edges of rank 0 and 1
        a = Analysis(K53, 0b110)
        validate_path(a, BergePath((1, 3, 2), (0, 1)))
        with pytest.raises(SearchError, match="^edge 1 does not contain both 1 and 3$"):
            validate_path(a, BergePath((1, 3, 2), (1, 2)))

    def test_pool_instances_pass_their_own_witnesses(self):
        # a path witness names its edges by rank, which validate_path reads;
        # the cycle kernel validates its slot-indexed cycle under __debug__
        paths = cycles = 0
        for a in instances(SweepConfig(n=5, r=3, mode="exhaustive")):
            if a.m == 0:
                continue
            validate_path(a, longest_berge_path(a)[1])
            paths += 1
            cycles += _cycle_mask(a, a.k + 1) != 0
        assert (paths, cycles) == (1023, 613)

    # K43: e0 = {0, 1, 2}, e1 = {0, 1, 3}, e2 = {0, 2, 3}, e3 = {1, 2, 3}
    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ((0, 1), (0,), "cycle needs k >= 2 vertices and k edges, got 2/1"),
            ((-1, 0), (0, 1), "vertex -1 outside 0..3"),
            ((0, 4), (0, 1), "vertex 4 outside 0..3"),
            ((0, 9), (0, 1), "vertex 9 outside 0..3"),
            ((0, 1, 0), (0, 1, 2), "repeated vertex in path (0, 1, 0)"),
            ((0, 1), (0, 0), "repeated edge in cycle (0, 0)"),
            ((0, 1, 2), (0, 3, 0), "repeated edge in cycle (0, 3, 0)"),
            ((0, 1), (0, 4), "edge index 4 out of range"),
            ((0, 1, 2), (2, 3, 0), "edge 2 does not contain both 0 and 1"),
            ((0, 1, 3), (0, 2, 1), "edge 2 does not contain both 1 and 3"),
            ((0, 1, 3), (1, 3, 3), "edge 3 does not contain both 3 and 0"),
        ],
    )
    def test_each_cycle_error_message(self, vertices, edges, message):
        with pytest.raises(SearchError) as err:
            _validate_cycle(analyze(K43), vertices, edges)
        assert str(err.value) == message

    def test_valid_cycles_pass(self):
        _validate_cycle(analyze(K43), (0, 1), (0, 1))
        _validate_cycle(analyze(K43), (0, 1, 2, 3), (0, 3, 2, 1))

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ((0, 0), (), "path has 2 vertices for 0 edges"),
            ((0, 2, 0), (0, 5), "repeated vertex in path (0, 2, 0)"),
            ((0, 2, 0), (0, 0), "repeated vertex in path (0, 2, 0)"),
            ((7, 2, 7), (0, 1), "repeated vertex in path (7, 2, 7)"),
            ((0, 2, 9), (0, 0), "repeated edge in path (0, 0)"),
            ((0, -3, 2), (7, 7), "repeated edge in path (7, 7)"),
            ((0, 6, 5), (0, 1), "vertex 6 outside 0..4"),
            ((-1, 2), (1,), "vertex -1 outside 0..4"),
            ((0, 2, 3), (5, 0), "edge index 5 out of range"),
            ((0, 2, 3), (1, 5), "edge 1 does not contain both 0 and 2"),
            ((2, 0, 1), (1, 0), "edge 1 does not contain both 2 and 0"),
        ],
    )
    def test_first_of_two_defects_is_reported(self, vertices, edges, message):
        """With two defects the message is the one the checks give in
        order: counts, repeated vertex, repeated edge, vertex range, then
        the first bad edge."""
        for vs, es in ((vertices, edges), (list(vertices), list(edges))):
            with pytest.raises(SearchError) as err:
                _validate_seq(analyze(CHAIN2), vs, es)
            assert str(err.value) == message

    def test_returns_the_vertex_and_edge_masks(self):
        paths = 0
        for a in instances(SweepConfig(n=5, r=3, mode="exhaustive")):
            for s in range(a.hg.n):
                for vs, es in search_module._walk(a, s, a.k):
                    assert _validate_seq(a, vs, es) == (mask_of(vs), mask_of(es)), (vs, es)
                    paths += 1
        assert paths == 270_305  # one longest path per last-edge group of every (5,3) instance


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
        assert _cycle_mask(analyze(K43), 4) == 0b1111

    def test_chain_has_no_2cycle(self):
        assert _cycle_mask(analyze(CHAIN2), 2) == 0

    def test_two_edges_sharing_two_vertices_form_2cycle(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        assert _cycle_mask(analyze(h), 2) == 0b0110


class TestOracle:
    def test_single_edge(self):
        assert oracle_longest_path(SINGLE) == 1

    def test_k43_required_edge(self):
        assert oracle_longest_path(K43, required_edge=0) == 3

    def test_chain_of_three(self):
        assert oracle_longest_path(CHAIN3) == 3

    def test_cap(self):
        h = complete(5, 3)  # 10 edges
        with pytest.raises(OracleError):
            oracle_longest_path(h)

    def test_table_matches_per_query_results(self):
        for h in (SINGLE, CHAIN2, CHAIN3, K43):
            k, pvals = oracle_length_table(h)
            assert k == oracle_longest_path(h)
            for i in range(h.num_edges):
                assert pvals[i] == oracle_longest_path(h, required_edge=i)


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
        assert p_edge(h, i) == oracle_longest_path(h, required_edge=i)


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
    q = PathQuery(required_edge=data.draw(st.integers(min_value=0, max_value=h.num_edges - 1)))
    edge = q.required_edge
    assert longest_path_length(h, q) == p_edge(h, edge) == oracle_longest_path(h, edge)


@given(small_searchable(), st.integers(min_value=0))
@settings(max_examples=100)
def test_p_monotone_under_vertex_deletion(h, s):
    s &= h.vertex_mask
    sub, _ = induced(h, h.vertex_mask & ~s)
    kept = [i for i, e in enumerate(h.edges) if not e & s]
    for sub_idx, old_idx in enumerate(kept):
        assert p_edge(h, old_idx) >= p_edge(sub, sub_idx)


@given(small_searchable())
@settings(max_examples=100)
def test_subpath_closure(h):
    k = longest_path_length(h)
    for l in range(k + 1):
        assert next(walked_paths(h, l), None) is not None


@given(small_searchable())
@settings(max_examples=100)
def test_every_enumerated_longest_path_is_valid(h):
    k = longest_path_length(h)
    for p in walked_paths(h, k):
        validate_path(h, p)
        assert p.length == k


def test_exhaustive_oracle_equivalence_tiny():
    # every hypergraph on 4 vertices, r=3, up to all 4 edges
    for a in instances(SweepConfig(n=4, r=3, mode="exhaustive")):
        h = a.hg
        k, pvals = oracle_length_table(h)
        assert longest_path_length(h) == k
        assert analyze(h).p_values == pvals


def cover_instances():
    """Every (4,3), (5,3) and (5,4) instance, 300 sampled (6,3) ones, then
    every disjoint union of two (4,3) instances. No instance of the first
    three kinds has an edge with p < k; many of the unions do."""
    for n, r in ((4, 3), (5, 3), (5, 4)):
        yield from instances(SweepConfig(n=n, r=r, mode="exhaustive"))
    yield from instances(SweepConfig(n=6, r=3, mode="sample", sample_count=300, seed=9))
    k43s = [a.hg.edges for a in instances(SweepConfig(n=4, r=3, mode="exhaustive"))]
    for low in k43s:
        for high in k43s:
            yield analyze(Hypergraph(8, 3, low + tuple(e << 4 for e in high)))


def test_p_table_cover_paths_are_longest_paths_through_the_searched_edge(monkeypatch):
    # The p-table gives p = k without a search to each edge of a recorded
    # length-k path; each recorded edge mask must be the edge set of a real
    # length-k path holding the edge its search was anchored on. The (6,3)
    # samples have millions of longest paths between them, so the path is
    # looked for among the mask's own k edges: a length-k path there uses
    # every one of them, and is a path of the whole instance.
    recorded = []
    longest = search_module._max_len

    def recording(a, **query):
        length, path = longest(a, **query)
        recorded.append((query.get("required_edge"), length, path))
        return length, path

    monkeypatch.setattr(search_module, "_max_len", recording)
    checked = 0
    for a in cover_instances():
        recorded.clear()
        pvals, k = a.p_values, a.k
        cover = [(edge, path) for edge, length, path in recorded if length == k > 0]
        assert pvals == tuple(p_edge(Analysis(a.hg), i) for i in range(a.hg.num_edges))
        for edge, path in cover:
            sub = Hypergraph(a.n, a.r, tuple(a.slots[i] for i in bits(path)))
            assert path.bit_count() == k, (a.hg, edge, path)
            assert next(walked_paths(sub, k), None) is not None, (a.hg, edge, path)
            assert edge is None or path >> edge & 1, (a.hg, edge, path)
            checked += 1
    assert checked > 1000


def test_p_table_on_k63_skips_the_edges_of_found_longest_paths(monkeypatch):
    a = Analysis(complete(6, 3))
    calls = []
    longest = search_module._max_len

    def counting(a, **query):
        calls.append(query.get("required_edge"))
        return longest(a, **query)

    monkeypatch.setattr(search_module, "_max_len", counting)
    assert a.p_values == (5,) * 20
    # the search for k reaches n - 1, and every edge of K_6^3 meets its ends
    assert calls == [None]


def path_of(edges, path, segments):
    """The (vertices, edges) sequence of the length-k path with edge mask
    ``path`` over the indices of ``edges`` whose consecutive vertex pairs
    are ``segments``: the vertices chain from one end, and each pair takes
    its own edge of the mask."""
    ends = 0
    for q in segments:
        ends ^= q
    vs = [next(bits(ends))]
    left = list(segments)
    while left:
        q = next(q for q in left if q >> vs[-1] & 1)
        left.remove(q)
        vs.append(next(bits(q & ~(1 << vs[-1]))))

    def assign(j, free):
        if j == len(segments):
            return []
        q = 1 << vs[j] | 1 << vs[j + 1]
        for i in bits(free):
            if edges[i] & q == q and (rest := assign(j + 1, free & ~(1 << i))) is not None:
                return [i, *rest]
        return None

    return vs, assign(0, path)


def test_endpoint_rule_edges_have_a_rotated_witness(monkeypatch):
    # An edge e at an end v0 of a length-k path v0 e1 v1 ... ek vk holds some
    # v_j, j >= 1, and v_(j-1) ... v0 e v_j ... vk is a length-k path through
    # e. Each edge the p-table gives p = k this way and that lies on no cover
    # path gets that path built and validated, for every such j. The cover
    # paths and edges are slot indices, validated against the instance.
    covers = []
    at_k = search_module._at_k

    def recording(inc, path, segments):
        covers.append((path, list(segments)))
        return at_k(inc, path, segments)

    monkeypatch.setattr(search_module, "_at_k", recording)
    rotated = 0
    cases = (*cover_instances(), *instances(SweepConfig(n=6, r=4, mode="exhaustive")))
    for a in cases:
        h = a.hg
        covers.clear()
        pvals, k = a.p_values, a.k
        assert pvals == tuple(p_edge(a, i) for i in range(h.num_edges)), h
        on_paths = 0
        for path, _ in covers:
            on_paths |= path
        for path, segments in covers:
            if not segments:
                continue
            vs, es = path_of(a.slots, path, segments)
            _validate_seq(a, vs, es)
            for vs, es in ((vs, es), (vs[::-1], es[::-1])):
                for e in bits(a.incidence[vs[0]] & ~on_paths):
                    js = [j for j in range(1, k + 1) if a.slots[e] >> vs[j] & 1]
                    assert js and a.slots[e] & ~mask_of(vs) == 0, (h, e)
                    for j in js:
                        witness = BergePath(
                            tuple(vs[j - 1 :: -1] + vs[j:]),
                            tuple(es[: j - 1][::-1] + [e] + es[j:]),
                        )
                        _validate_seq(a, witness.vertices, witness.edges)
                        assert witness.length == k and e in witness.edges
                        assert pvals[a.ranks((e,))[0]] == k
                        rotated += 1
    assert rotated > 300_000


def assert_segments_chain_the_path(edges, segments, length, path):
    # `length` segments, each a pair inside its own edge of the path mask
    # over the indices of `edges`, that join into one path on length + 1
    # distinct vertices
    assert len(segments) == length and path.bit_count() == length
    assert all(q.bit_count() == 2 for q in segments)
    edges = [edges[i] for i in bits(path)]
    assert any(
        all(q & e == q for q, e in zip(segments, order)) for order in permutations(edges)
    )
    vertices = 0
    for q in segments:
        vertices |= q
    assert vertices.bit_count() == length + 1
    assert all(sum(q >> v & 1 for q in segments) <= 2 for v in bits(vertices))
    reached = segments[0]
    for _ in segments:  # length edges on length + 1 vertices: connected means a tree
        for q in segments:
            if q & reached:
                reached |= q
    assert reached == vertices


# Connected (7,3) instances with an edge of p < k that meets a segment of a
# length-k path found by an anchored search in one vertex, not two. A swap
# test that accepted one shared vertex would give that edge p = k. No cover
# instance has such an edge: its only edges of p < k lie in the unions, in
# another component than every length-k path.
SHORT_EDGE_BESIDE_A_SEGMENT = (
    hg(7, 3, [0, 1, 2], [0, 1, 4], [1, 2, 4], [1, 3, 4], [0, 1, 5], [0, 1, 6], [0, 4, 6]),
    hg(7, 3, [1, 4, 5], [2, 4, 6], [3, 4, 6], [0, 5, 6], [1, 5, 6], [3, 5, 6], [4, 5, 6]),
)


def test_capped_searches_hand_back_the_segments_of_their_path():
    # A search that reaches its cap leaves the segments of its path, one
    # inside each edge; one that stops short leaves none. The p-table gives
    # p = k without a search to an edge holding both vertices of a segment,
    # so it must still equal the anchored search on every edge. The anchored
    # searches run on the instance, by slot index; the p-table is rebuilt
    # from its Hypergraph, in rank order.
    checked = 0
    for a in (*cover_instances(), *map(analyze, SHORT_EDGE_BESIDE_A_SEGMENT)):
        h = a.hg
        segments = []
        k, path = search_module._max_len(Analysis(h), segments=segments)
        if k == min(h.num_edges, h.n - 1) > 0:
            assert_segments_chain_the_path(h.edges, segments, k, path)
            checked += 1
        else:
            assert segments == []
        pvals = Analysis(h).p_values
        for rank, i in enumerate(bits(a.present)):
            segments = []
            p, path = search_module._max_len(a, required_edge=i, stop_at=k, segments=segments)
            assert p == pvals[rank], (h, i)
            if p == k:
                assert path >> i & 1
                assert_segments_chain_the_path(a.slots, segments, k, path)
                checked += 1
            else:
                assert segments == []
    assert checked > 10_000
