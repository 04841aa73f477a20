import pytest

from bergepaths import goodsets
from bergepaths.goodsets import (
    GoodSetError,
    check_good_set_existence,
    check_spanning_cycle_property,
    enumerate_good_sets,
    find_good_set,
    is_good_set,
    rotation_closure,
)
from bergepaths.hypergraph import Hypergraph, complete_hypergraph, from_edge_lists, mask_of
from bergepaths.search import (
    BergeCycle,
    BergePath,
    SearchError,
    _walk,
    analyze,
    find_berge_cycle,
    longest_path_length,
)
from bergepaths.verify import SweepConfig, _check_instance, instances
from bergepaths.weights import f_r


def hg(n, r, *edges):
    return from_edge_lists(n, r, edges)


def walked_longest_paths(h):
    """The longest paths that ``_walk`` yields from every start vertex."""
    a = analyze(h)
    for s in range(h.n):
        for vs, es in _walk(a, s, a.k):
            yield BergePath(tuple(vs), tuple(es))


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

    def test_scan_refused_past_20_vertices(self):
        with pytest.raises(GoodSetError):
            enumerate_good_sets(hg(21, 3, [0, 1, 2]))


class TestRotationClosure:
    def test_loose_chain_no_rotation(self):
        h = hg(8, 3, [0, 1, 5], [1, 2, 6], [2, 3, 7])
        fam = rotation_closure(h, BergePath((0, 1, 2, 3), (0, 1, 2)))
        assert fam.terminals == mask_of([3])
        assert fam.bound_lhs == 1 and fam.bound_rhs == 1

    def test_single_edge_path(self):
        fam = rotation_closure(SINGLE, BergePath((0, 1), (0,)))
        assert fam.bound_lhs == 1 and fam.bound_rhs == 1

    def test_k43_grows_terminals_and_respects_bound(self):
        for path in walked_longest_paths(K43):
            fam = rotation_closure(K43, path)
            assert fam.bound_lhs <= fam.bound_rhs
            assert fam.bound_lhs <= len(path.edges)
            assert path.vertices[-1] in fam.witnesses

    def test_witnesses_preserve_vertex_and_edge_sets(self):
        for path in walked_longest_paths(K53):
            fam = rotation_closure(K53, path)
            for t, q in fam.witnesses.items():
                assert q.vertices[0] == path.vertices[0]
                assert q.vertices[-1] == t
                assert set(q.vertices) == set(path.vertices)
                assert set(q.edges) == set(path.edges)

    def test_path_is_validated_before_the_zero_edge_refusal(self):
        with pytest.raises(SearchError) as err:
            rotation_closure(K43, BergePath((9,), ()))
        assert str(err.value) == "vertex 9 outside 0..3"
        with pytest.raises(SearchError, match="no edges"):
            rotation_closure(K43, BergePath((0,), ()))


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
        assert find_berge_cycle(K43, 4) is not None
        assert check_spanning_cycle_property(K43) is None

    def test_chain_vacuous(self):
        assert find_berge_cycle(CHAIN2, 3) is None
        assert check_spanning_cycle_property(CHAIN2) is None

    def test_complete_k53(self):
        assert check_spanning_cycle_property(K53) is None


@pytest.mark.parametrize("n", [4, 5])
def test_good_set_existence_and_patterns_exhaustive(n):
    """Connected instances with 1 < k <= r admit a good set matching one of
    the four structural patterns; k = 1 and k > r also stay nonempty."""
    r = 3
    for a in instances(SweepConfig(n=n, r=r, mode="exhaustive", connected_only=True)):
        h = a.hg
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


def test_integer_size_test_agrees_with_the_fraction_bound():
    # every vertex set of every (4,3) and (5,3) instance with an edge
    tight = 0
    for n in (4, 5):
        for a in instances(SweepConfig(n=n, r=3, mode="exhaustive")):
            h = a.hg
            if not h.num_edges:
                continue
            bound = f_r(3, a.k)
            for s in range(1, 1 << n):
                ns = [i for i, e in enumerate(h.edges) if e & s]
                on_longest = all(a.p_values[i] == a.k for i in ns)
                fits = len(ns) <= bound * s.bit_count()
                cert = is_good_set(a, s)
                assert (cert is not None) == (on_longest and fits), (h, s)
                if cert is not None:
                    assert cert.NS == tuple(ns) and cert.bound == bound * s.bit_count()
                    tight += len(ns) == cert.bound
    assert tight > 0


def reference_good_sets(a):
    """The scan as one ``is_good_set`` call per subset, in increasing bitmask order."""
    return [c for c in (is_good_set(a, s) for s in range(1, 1 << a.hg.n)) if c is not None]


def test_table_scan_matches_the_per_subset_reference():
    # every (4,3), (5,3) and (5,4) instance with an edge, 300 (6,3) samples,
    # every disjoint union of two (4,3) instances (many with an edge of
    # p < k), and odd n, where the two tables have unequal widths
    cases = [
        a
        for n, r in ((4, 3), (5, 3), (5, 4))
        for a in instances(SweepConfig(n=n, r=r, mode="exhaustive"))
    ]
    cases += instances(SweepConfig(n=6, r=3, mode="sample", sample_count=300, seed=9))
    k43s = [a.hg.edges for a in instances(SweepConfig(n=4, r=3, mode="exhaustive"))]
    cases += [Hypergraph(8, 3, low + tuple(e << 4 for e in high)) for low in k43s for high in k43s]
    k43_and_chain = hg(9, 3, [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [4, 5, 6], [6, 7, 8])
    cases += [k43_and_chain, hg(11, 3, *([2 * i, 2 * i + 1, 2 * i + 2] for i in range(5)))]
    short = 0
    for case in cases:
        a = analyze(case)
        if a.hg.num_edges:
            assert list(enumerate_good_sets(a)) == reference_good_sets(a), a.hg
            short += a.max_p_mask != (1 << a.hg.num_edges) - 1
    assert short > 50


def test_scan_preconditions_raise_at_the_call():
    # the entry points share the r >= 3 check, then the edge check; the
    # scan's n > 20 refusal comes before both
    cases = [
        (hg(4, 2, [0, 1]), "good sets need r >= 3, got r=2"),
        (Hypergraph(4, 2, ()), "good sets need r >= 3, got r=2"),
        (Hypergraph(4, 3, ()), "good sets are undefined on edgeless hypergraphs"),
    ]
    for bad, message in cases:
        for call in (
            enumerate_good_sets,
            lambda h: goodsets._good_masks(analyze(h)),
            find_good_set,
            lambda h: is_good_set(h, 1),
        ):
            with pytest.raises(GoodSetError) as err:
                call(bad)
            assert str(err.value) == message
    for call in (enumerate_good_sets, lambda h: goodsets._good_masks(analyze(h))):
        with pytest.raises(GoodSetError, match=r"subset scan over 2\^21 sets refused"):
            call(Hypergraph(21, 2, ()))


def test_scan_fallback_runs_only_when_k_is_at_most_r(monkeypatch):
    """``find_good_set`` falls back to the subset scan only where k <= r and
    the m edges number k, so V(H) is good: on every connected (4,3), (5,3)
    and (5,4) instance with an edge, 6, 15 and 25 times, the scan counts of
    the route census, and on 300 sampled (6,3) and (6,4) instances."""
    fallbacks = []
    scan = goodsets.enumerate_good_sets

    def spy(a):
        whole_is_good = is_good_set(a, a.hg.vertex_mask) is not None
        fallbacks.append((a.k, a.hg.r, a.hg.num_edges, whole_is_good))
        return scan(a)

    monkeypatch.setattr(goodsets, "enumerate_good_sets", spy)
    configs = [
        SweepConfig(n=n, r=r, mode="exhaustive", connected_only=True)
        for n, r in ((4, 3), (5, 3), (5, 4))
    ]
    configs += [
        SweepConfig(n=6, r=r, mode="sample", connected_only=True, sample_count=300, seed=9)
        for r in (3, 4)
    ]
    counts = []
    for cfg in configs:
        fallbacks.clear()
        for a in instances(cfg):
            if a.hg.num_edges:
                find_good_set(a)
        # the longest path uses every edge, so V(H) is good as well
        assert all(k <= r and m == k and good for k, r, m, good in fallbacks), (cfg, fallbacks)
        counts.append(len(fallbacks))
    assert counts[:3] == [6, 15, 25]


def test_structural_failure_details_are_pinned(monkeypatch):
    """Each structural check's failure detail, faked into being, reads the
    same from the goodsets function and from the sweep's instance check;
    V(H) as the only good set fails only where k > r and n != k + 1."""
    chain3 = hg(7, 3, [0, 1, 2], [2, 3, 4], [4, 5, 6])  # k = 3 = r
    chain5 = hg(11, 3, *([2 * i, 2 * i + 1, 2 * i + 2] for i in range(5)))  # k = 5 > r
    whole_first = lambda a: iter([(a.hg.vertex_mask, (1 << a.hg.num_edges) - 1)])
    broken_cycle = lambda a, length: BergeCycle((0, 1, 2), (0, 1, 2))
    only_whole = "k=5 > r but the only good set is V(H) and n != k+1"
    cases = (
        ("good_set_existence", "_good_masks", lambda a: iter(()), K43, "no good set exists"),
        ("good_set_existence", "_good_masks", whole_first, chain5, only_whole),
        ("good_set_existence", "_good_masks", whole_first, chain3, None),
        ("good_set_existence", "_good_masks", whole_first, K53, None),  # k = 4, n = k + 1
        (
            "spanning_cycle",
            "find_berge_cycle",
            broken_cycle,
            K43,
            "cycle (0, 1, 2) spans=False all_p_equal_k=True",
        ),
    )
    checks = {
        "good_set_existence": check_good_set_existence,
        "spanning_cycle": check_spanning_cycle_property,
    }
    for name, attr, fake, h, detail in cases:
        assert checks[name](h) is None
        with monkeypatch.context() as m:
            m.setattr(goodsets, attr, fake)
            assert checks[name](analyze(h)) == detail
            _, failures = _check_instance(analyze(h), frozenset({name}))
            assert failures == ([] if detail is None else [(name, detail)])
