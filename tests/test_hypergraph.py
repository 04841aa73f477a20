from math import comb

import pytest
from hypothesis import given, strategies as st

from bergepaths.hypergraph import (
    Hypergraph,
    HypergraphError,
    bits,
    component_masks,
    from_edge_lists,
    from_masks,
    induced,
    is_connected,
    mask_of,
    parse_hypergraph,
    possible_edges,
    serialize_hypergraph,
)
from bergepaths.search import Analysis
from bergepaths.verify import SweepConfig, instances
from bergepaths.weights import CASE_I, CASE_II, NOT_EXTREMAL, classify_structure
from reference import complete


def hg(n, r, *edges):
    return from_edge_lists(n, r, edges)


def delete(h, s):
    """H - S, the one way the library forms it."""
    return induced(h, h.vertex_mask & ~s)


def components(h):
    """Each component rebuilt on 0..|C|-1, with its old-to-new vertex map."""
    return [induced(h, group) for group in component_masks(h)]


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


class TestDelete:
    def test_drop_one_vertex(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        sub, relabel = delete(h, mask_of([3]))
        assert sub.n == 3 and sub.num_edges == 1
        assert relabel == {0: 0, 1: 1, 2: 2}

    def test_full_deletion(self):
        h = hg(3, 3, [0, 1, 2])
        sub, relabel = delete(h, mask_of([0, 1, 2]))
        assert sub.n == 0 and sub.num_edges == 0 and relabel == {}

    def test_relabeling_is_order_preserving(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        sub, relabel = delete(h, mask_of([0, 3]))
        assert sub.n == 2 and sub.num_edges == 0
        assert relabel == {1: 0, 2: 1}

    def test_ids_past_n_refused(self):
        h = hg(4, 3, [0, 1, 2], [1, 2, 3])
        for keep in (1 << 4, h.vertex_mask | 1 << 9):
            with pytest.raises(HypergraphError, match="^vertex set contains ids >= n$"):
                induced(h, keep)


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
        assert complete(n, r).num_edges == count

    def test_complete_requires_n_ge_r(self):
        with pytest.raises(HypergraphError):
            complete(2, 3)

    def test_slots_refused_past_64_vertices(self):
        # C(65, 3) slots would fit; the vertex cap is what refuses them
        with pytest.raises(HypergraphError, match=r"^vertex count 65 outside 0\.\.64$"):
            possible_edges(65, 3)

    @pytest.mark.parametrize("n,r,count", [(3, 3, 2), (4, 3, 16), (5, 3, 1024)])
    def test_enumeration_counts(self, n, r, count):
        # each subset mask of the possible edges builds a distinct labeled instance
        built = {a.hg for a in instances(SweepConfig(n=n, r=r, mode="exhaustive"))}
        assert len(built) == count

    def test_enumeration_connected_only(self):
        built = [a.hg for a in instances(SweepConfig(n=4, r=3, mode="exhaustive"))]
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


@given(small_hypergraphs(), st.integers(min_value=0))
def test_edge_partition_under_deletion(h, s):
    s &= h.vertex_mask
    sub, _ = delete(h, s)
    assert sum(1 for e in h.edges if e & s) + sub.num_edges == h.num_edges


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


def relabelled_components(h):
    """``components`` by another route, kept as a reference: merge the
    vertex groups that an edge meets, then rebuild each group on
    0..|group|-1."""
    groups = [1 << v for v in range(h.n)]
    for e in h.edges:
        merged = e
        for g in groups:
            if g & e:
                merged |= g
        groups = [g for g in groups if not g & e] + [merged]
    out = []
    for g in sorted(groups, key=lambda g: g & -g):
        relabel = {v: i for i, v in enumerate(bits(g))}
        masks = [mask_of(relabel[v] for v in bits(e)) for e in h.edges if e & g == e]
        out.append((from_masks(len(relabel), h.r, masks), relabel))
    return out


def test_components_of_connected_instances_equal_the_general_relabelling():
    connected = 0
    for a in instances(SweepConfig(n=5, r=3, mode="exhaustive")):
        got = components(a.hg)
        assert got == relabelled_components(a.hg), a.hg
        connected += len(got) == 1
    assert connected > 0


def reference_induced(h, keep):
    """The sub-hypergraph on the vertex set ``keep``, relabelled in order."""
    relabel = {v: i for i, v in enumerate(v for v in range(h.n) if keep >> v & 1)}
    inside = ([relabel[v] for v in bits(e)] for e in h.edges if set(bits(e)) <= set(relabel))
    return from_edge_lists(len(relabel), h.r, inside), relabel


def classified_by_rebuilt_components(h):
    """The equality class read off each component rebuilt as a hypergraph."""
    kinds = set()
    for c, _ in relabelled_components(h):
        if c.n == h.r and c.num_edges == 1 or c.n >= h.r + 2 and c.num_edges == comb(c.n, h.r):
            kinds.add(CASE_II)
        elif c.n == h.r + 1 and (2 <= c.num_edges <= h.r - 1 or c.num_edges == h.r + 1):
            kinds.add(CASE_I)
        else:
            return NOT_EXTREMAL
    return CASE_I if CASE_I in kinds else CASE_II


def test_component_masks_and_induced_sub_hypergraphs_match_the_references():
    """Every (4,3) and (5,3) instance, and every disjoint union of two (4,3)
    instances on 8 vertices."""
    small = [a.hg for n in (4, 5) for a in instances(SweepConfig(n=n, r=3, mode="exhaustive"))]
    k43 = small[:16]
    unions = [
        Hypergraph(8, 3, g.edges + tuple(e << 4 for e in h.edges)) for g in k43 for h in k43
    ]
    assert len(small) == 16 + 1024 and len(unions) == 256
    classes = set()
    for h in small + unions:
        a = Analysis(h)
        reference = relabelled_components(h)
        assert a.components == tuple(mask_of(relabel) for _, relabel in reference), h
        assert components(h) == reference, h
        assert a.connected == (len(a.components) <= 1) == is_connected(h)
        classes.add(classify_structure(a))
        assert classify_structure(a) == classified_by_rebuilt_components(h), h
        for s in range(1 << h.n):
            assert delete(h, s) == reference_induced(h, h.vertex_mask & ~s), (h, s)
    assert classes == {CASE_I, CASE_II, NOT_EXTREMAL}
