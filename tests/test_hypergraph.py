import pytest
from hypothesis import given, strategies as st

from bergepaths.hypergraph import (
    Hypergraph,
    HypergraphError,
    bits,
    complete_hypergraph,
    components,
    delete_vertices,
    from_edge_lists,
    hypergraph_from_subset,
    is_connected,
    mask_of,
    neighborhood,
    parse_hypergraph,
    possible_edges,
    serialize_hypergraph,
)


def hg(n, r, *edges):
    return from_edge_lists(n, r, edges)


class TestParse:
    def test_two_triples(self):
        h = parse_hypergraph("4 3\n0 1 2\n1 2 3")
        assert h.n == 4 and h.r == 3
        assert [tuple(bits(e)) for e in h.edges] == [(0, 1, 2), (1, 2, 3)]

    def test_single_edge(self):
        h = parse_hypergraph("3 3\n0 1 2")
        assert h.n == 3 and h.num_edges == 1

    def test_duplicate_vertex_within_edge(self):
        with pytest.raises(HypergraphError, match="duplicate vertex"):
            parse_hypergraph("4 3\n0 1 1")

    def test_wrong_arity(self):
        with pytest.raises(HypergraphError, match="expected 3"):
            parse_hypergraph("4 3\n0 1")

    def test_duplicate_edge(self):
        with pytest.raises(HypergraphError, match="duplicate edge"):
            parse_hypergraph("4 3\n0 1 2\n2 1 0")

    def test_vertex_out_of_range(self):
        with pytest.raises(HypergraphError, match="outside"):
            parse_hypergraph("3 3\n0 1 5")

    def test_malformed_header(self):
        with pytest.raises(HypergraphError, match="header"):
            parse_hypergraph("3\n0 1 2")
        with pytest.raises(HypergraphError, match="header"):
            parse_hypergraph("x y\n0 1 2")

    def test_n_too_large(self):
        with pytest.raises(HypergraphError):
            parse_hypergraph("65 3\n0 1 2")

    def test_comments_and_blank_lines(self):
        h = parse_hypergraph("# header comment\n4 3\n\n0 1 2\n# trailing\n")
        assert h.num_edges == 1

    def test_canonical_order_not_input_order(self):
        h = parse_hypergraph("4 3\n1 2 3\n0 1 2")
        assert h.edges == tuple(sorted(h.edges))

    def test_sorted_edges_enforced_on_direct_construction(self):
        with pytest.raises(HypergraphError):
            Hypergraph(4, 3, (mask_of([1, 2, 3]), mask_of([0, 1, 2])))


class TestNeighborhood:
    def test_single_vertex(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        assert neighborhood(h, None, mask_of([0])) == {0}
        assert neighborhood(h, None, mask_of([1])) == {0, 1}

    def test_empty_set(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        assert neighborhood(h, None, 0) == frozenset()

    def test_restricted_edge_family(self):
        h = hg(5, 3, [0, 1, 2], [1, 2, 3], [2, 3, 4])
        assert neighborhood(h, [1, 2], mask_of([0])) == frozenset()
        assert neighborhood(h, [1, 2], mask_of([4])) == {2}


class TestDelete:
    def test_drop_one_vertex(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        sub, relabel = delete_vertices(h, mask_of([3]))
        assert sub.n == 3 and sub.num_edges == 1
        assert relabel == {0: 0, 1: 1, 2: 2}

    def test_full_deletion(self):
        h = hg(3, 3, [0, 1, 2])
        sub, relabel = delete_vertices(h, mask_of([0, 1, 2]))
        assert sub.n == 0 and sub.num_edges == 0 and relabel == {}

    def test_relabeling_is_order_preserving(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        sub, relabel = delete_vertices(h, mask_of([0, 3]))
        assert sub.n == 2 and sub.num_edges == 0
        assert relabel == {1: 0, 2: 1}


class TestComponents:
    def test_connected_pair(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        assert len(components(h)) == 1 and is_connected(h)

    def test_isolated_vertex_is_its_own_component(self):
        h = hg(4, 3, [0, 1, 2])
        comps = components(h)
        assert len(comps) == 2
        sizes = sorted((c.n, c.num_edges) for c, _ in comps)
        assert sizes == [(1, 0), (3, 1)]

    def test_two_disjoint_edges(self):
        h = hg(6, 3, [0, 1, 2], [3, 4, 5])
        assert len(components(h)) == 2 and not is_connected(h)


class TestConstructions:
    @pytest.mark.parametrize("n,r,count", [(4, 3, 4), (5, 3, 10), (3, 3, 1)])
    def test_complete_edge_counts(self, n, r, count):
        assert complete_hypergraph(n, r).num_edges == count

    def test_complete_requires_n_ge_r(self):
        with pytest.raises(HypergraphError):
            complete_hypergraph(2, 3)

    @pytest.mark.parametrize("n,r,count", [(3, 3, 2), (4, 3, 16), (5, 3, 1024)])
    def test_enumeration_counts(self, n, r, count):
        # each subset mask of the possible edges builds a distinct labeled instance
        slots = possible_edges(n, r)
        built = {hypergraph_from_subset(n, r, slots, s) for s in range(1 << len(slots))}
        assert len(built) == count

    def test_enumeration_connected_only(self):
        slots = possible_edges(4, 3)
        built = [hypergraph_from_subset(4, 3, slots, s) for s in range(1 << len(slots))]
        # needs all 4 vertices covered: at least 2 of the 4 triples
        assert sum(is_connected(h) for h in built) == 11  # C(4,2)+C(4,3)+1


def small_hypergraphs(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        r = draw(st.integers(min_value=2, max_value=4))
        slots = possible_edges(n, r)
        if not slots:
            return Hypergraph(n, r, ())
        picked = draw(st.sets(st.sampled_from(slots)))
        return Hypergraph(n, r, tuple(sorted(picked)))

    return build()


@given(small_hypergraphs())
def test_roundtrip_parse_serialize(h):
    assert parse_hypergraph(serialize_hypergraph(h)) == h


@given(small_hypergraphs(), st.integers(min_value=0), st.integers(min_value=0))
def test_neighborhood_distributes_over_union(h, a, b):
    sa = a & h.vertex_mask
    sb = b & h.vertex_mask
    assert neighborhood(h, None, sa | sb) == neighborhood(h, None, sa) | neighborhood(
        h, None, sb
    )


@given(small_hypergraphs(), st.integers(min_value=0))
def test_edge_partition_under_deletion(h, s):
    s &= h.vertex_mask
    sub, _ = delete_vertices(h, s)
    assert len(neighborhood(h, None, s)) + sub.num_edges == h.num_edges


@given(small_hypergraphs())
def test_components_partition_vertices_and_edges(h):
    comps = components(h)
    seen = set()
    for _, relabel in comps:
        verts = set(relabel)
        assert not verts & seen
        seen |= verts
    assert seen == set(range(h.n))
    assert sum(c.num_edges for c, _ in comps) == h.num_edges
    # every edge sits inside exactly one component's vertex set
    for e in h.edges:
        homes = [1 for _, relabel in comps if all(v in relabel for v in bits(e))]
        assert len(homes) == 1
