from fractions import Fraction

import pytest

from bergepaths import goodsets
from bergepaths.cli import main
from bergepaths.goodsets import (
    GoodSetError,
    check_good_set_existence,
    check_rotation_bound,
    check_spanning_cycle_property,
    find_good_set,
    is_good_set,
    rotation_closure,
)
from bergepaths.hypergraph import (
    Hypergraph,
    from_edge_lists,
    induced,
    mask_of,
    serialize_hypergraph,
)
from bergepaths.search import (
    BergePath,
    SearchError,
    _cycle_mask,
    _walk,
    analyze,
    longest_path_length,
)
from bergepaths.verify import SweepConfig, _check_instance, instances
from bergepaths.weights import f_r, weight_sum
from reference import complete, reference_good_sets


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
K43 = complete(4, 3)
K53 = complete(5, 3)
CHAIN5 = hg(11, 3, *([2 * i, 2 * i + 1, 2 * i + 2] for i in range(5)))  # k = 5 > r
# k = 6 and n = k + 1, but p({0, 1, 4}) = 5, so V(H) is not good
SHORT_EDGE = hg(7, 3, [0, 1, 2], [0, 1, 4], [1, 2, 4], [1, 3, 4], [0, 1, 5], [0, 1, 6], [0, 4, 6])


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
        assert _cycle_mask(analyze(K43), 4) == 0b1111
        assert check_spanning_cycle_property(K43) is None

    def test_chain_vacuous(self):
        assert _cycle_mask(analyze(CHAIN2), 3) == 0
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
        certs = list(reference_good_sets(a))
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


def test_scan_preconditions_raise_at_the_call():
    # the entry points share the r >= 3 check, then the edge check
    cases = [
        (hg(4, 2, [0, 1]), "good sets need r >= 3, got r=2"),
        (Hypergraph(4, 2, ()), "good sets need r >= 3, got r=2"),
        (Hypergraph(4, 3, ()), "good sets are undefined on edgeless hypergraphs"),
    ]
    for bad, message in cases:
        for call in (find_good_set, check_good_set_existence, lambda h: is_good_set(h, 1)):
            with pytest.raises(GoodSetError) as err:
                call(bad)
            assert str(err.value) == message


def test_find_good_set_route_census(monkeypatch):
    """``find_good_set`` returns a set that ``is_good_set`` accepts, and
    falls back to V(H) only where the longest path uses all m = k <= r
    edges. The (cycle, rotation, V(H)) route counts over every
    connected (4,3), (5,3), (5,4) and (6,4) instance with an edge are
    pinned; the (6,4) ones are ROADMAP item 2's table."""
    terminal_sets = goodsets._good_terminal_sets
    firsts = []

    def spy(a):
        firsts.append(None)
        for cert in terminal_sets(a):
            firsts[-1] = cert
            yield cert

    monkeypatch.setattr(goodsets, "_good_terminal_sets", spy)
    census = {}
    for n, r in ((4, 3), (5, 3), (5, 4), (6, 4)):
        counts = [0, 0, 0]
        for a in instances(SweepConfig(n=n, r=r, mode="exhaustive", connected_only=True)):
            if not a.m:
                continue
            firsts.clear()
            cert = find_good_set(a)
            assert is_good_set(a, cert.S) == cert, a.hg
            if not firsts:
                assert cert.S == a.hg.vertex_mask, a.hg
                counts[0] += 1
            elif firsts[0] is not None:
                assert cert == firsts[0], a.hg
                counts[1] += 1
            else:
                # the longest path uses every edge, so V(H) is good
                assert cert.S == a.hg.vertex_mask and a.m == a.k <= r, a.hg
                counts[2] += 1
        census[n, r] = tuple(counts)
    assert census == {
        (4, 3): (1, 4, 6),
        (5, 3): (608, 335, 15),
        (5, 4): (1, 0, 25),
        (6, 4): (27_764, 4_287, 545),
    }


def test_find_good_set_refuses_when_no_route_answers(monkeypatch, tmp_path, capsys):
    # SHORT_EDGE has no 7-cycle and p({0, 1, 4}) = 5 < k = 6, so V(H) is not
    # good; with no terminal set good either, the route finds nothing
    assert find_good_set(SHORT_EDGE).S == 1 << 5
    monkeypatch.setattr(goodsets, "_good_terminal_sets", lambda a: iter(()))
    message = "no good set: V(H) is not good and no rotation terminal set is"
    with pytest.raises(GoodSetError) as err:
        find_good_set(SHORT_EDGE)
    assert str(err.value) == message
    path = tmp_path / "short_edge.hg"
    path.write_text(serialize_hypergraph(SHORT_EDGE))
    assert main(["goodset", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def old_good_set_existence(a):
    """``check_good_set_existence`` as it read before its V(H) shortcut and
    the rotation route: both conditions applied to the first set of the
    subset scan."""
    first = next(reference_good_sets(a), None)
    if first is None:
        return "no good set exists"
    n, r, k = a.hg.n, a.hg.r, a.k
    if k > r and first.S == a.hg.vertex_mask and n != k + 1:
        return f"k={k} > r but the only good set is V(H) and n != k+1"
    return None


def test_good_vertex_set_shortcut_gives_the_scan_answer():
    # every connected (4,3), (5,3), (5,4) and (6,4) instance with an edge,
    # 300 sampled (6,3) ones, and instances where the shortcut cannot be
    # taken: an edge of p < k with n = k + 1, and k > r with n != k + 1
    configs = [
        SweepConfig(n=n, r=r, mode="exhaustive", connected_only=True)
        for n, r in ((4, 3), (5, 3), (5, 4), (6, 4))
    ]
    configs.append(
        SweepConfig(n=6, r=3, mode="sample", connected_only=True, sample_count=300, seed=9)
    )
    cases = [a for cfg in configs for a in instances(cfg) if a.hg.num_edges]
    cases += [analyze(SHORT_EDGE), analyze(CHAIN5)]
    whole = 0
    for a in cases:
        assert check_good_set_existence(a) == old_good_set_existence(a), a.hg
        whole += is_good_set(a, a.hg.vertex_mask) is not None
    assert len(cases) > 20_000 and whole > 10_000


def test_good_set_existence_runs_the_route_and_never_scans():
    """The check answers every connected (5,3) instance with an edge, the
    300 seed-9 (6,3) samples, ``SHORT_EDGE`` and ``CHAIN5``. The route's
    sets are the distinct good terminal sets of the closures in walk
    order, and no terminal set holds its path's first vertex, so none is
    V(H): checked wherever V(H) does not answer, and on every connected
    (4,3) and (5,4) instance."""

    def connected(n, r, **sample):
        mode = "sample" if sample else "exhaustive"
        cfg = SweepConfig(n=n, r=r, mode=mode, connected_only=True, **sample)
        return [a for a in instances(cfg) if a.hg.num_edges]

    cases = connected(5, 3) + connected(6, 3, sample_count=300, seed=9)
    cases += [analyze(SHORT_EDGE), analyze(CHAIN5)]
    routed = []
    for a in cases:
        assert check_good_set_existence(a) is None, a.hg
        n, r, k = a.hg.n, a.hg.r, a.k
        if not ((k <= r or n == k + 1) and is_good_set(a, a.hg.vertex_mask) is not None):
            routed.append(a)
    assert len(routed) == 3  # one (6,3) sample, SHORT_EDGE and CHAIN5
    for a in routed + connected(4, 3) + connected(5, 4):
        taus = {}
        for vs, _, tau, _ in goodsets._closures(a):
            assert not tau >> vs[0] & 1, (a.hg, vs)
            taus[tau] = None
        good = [tau for tau in taus if is_good_set(a, tau) is not None]
        assert [c.S for c in goodsets._good_terminal_sets(a)] == good, a.hg
        assert good or a not in routed, a.hg


def test_deleting_a_good_set_is_the_induction_step():
    """The paper's induction step on every connected (4,3), (5,3) and (5,4)
    instance with an edge and the 300 seed-9 (6,3) samples: with S from
    ``find_good_set`` and H - S from ``induced``, no edge avoiding S gets a
    longer path in H - S, and N(S) adds at most |S| to the weight sum, in
    exact rationals, with equality wherever the sum equals n."""
    configs = [
        SweepConfig(n=n, r=r, mode="exhaustive", connected_only=True)
        for n, r in ((4, 3), (5, 3), (5, 4))
    ]
    configs.append(
        SweepConfig(n=6, r=3, mode="sample", connected_only=True, sample_count=300, seed=9)
    )
    cases = [a for cfg in configs for a in instances(cfg) if a.m]
    tight = 0
    for a in cases:
        h, s = a.hg, find_good_set(a).S
        sub, _ = induced(h, h.vertex_mask & ~s)
        kept = [p for e, p in zip(h.edges, a.p_values) if not e & s]
        assert all(q <= p for q, p in zip(analyze(sub).p_values, kept, strict=True)), (h, s)
        total, rest = Fraction(*weight_sum(a)), Fraction(*weight_sum(sub))
        assert total - rest <= s.bit_count(), (h, s)
        if total == h.n:
            assert total - rest == s.bit_count(), (h, s)
            tight += 1
    assert len(cases) == 11 + 958 + 26 + 300 and tight == 29


def test_good_set_existence_refuses_a_disconnected_hypergraph():
    two = hg(6, 3, [0, 1, 2], [3, 4, 5])
    with pytest.raises(GoodSetError) as err:
        check_good_set_existence(two)
    assert str(err.value) == "good-set existence applies to connected hypergraphs"


def close_after_one_repair(a, vs, es):
    """``_close`` cut after its first repair: the lowest segment whose edge
    holds the far end v_k and whose flanks avoid it makes its inner flank
    a terminal, as the first rotation does, and the loop stops there."""
    edges, terminals = a.slots, 1 << vs[-1]
    for j, e in enumerate(es):
        if edges[e] & terminals and not (terminals >> vs[j] | terminals >> vs[j + 1]) & 1:
            terminals |= 1 << vs[j + 1]
            break
    return terminals, None, sum(1 for e in es if edges[e] & terminals)


def test_rotation_bound_flags_a_closure_that_stops_after_one_repair(monkeypatch):
    # the count holds wherever the loop exits; cut short, it breaks. The
    # detail names the path's edges in rank order, so the sweep's instance,
    # indexed by slot, gives the text of its rank-order rebuild.
    cases = list(instances(SweepConfig(n=5, r=3, mode="exhaustive")))
    monkeypatch.setattr(goodsets, "_close", close_after_one_repair)
    flagged = [(a, detail) for a in cases if (detail := check_rotation_bound(a)) is not None]
    assert len(flagged) == 843
    for a, detail in flagged:
        assert detail == check_rotation_bound(analyze(a.hg)), a.hg


def test_structural_failure_details_are_pinned(monkeypatch):
    """Each structural check's failure detail, faked into being, reads the
    same from the goodsets function and from the sweep's instance check.
    With no good rotation terminal set, the existence check fails where
    V(H) is not good, or where k > r and n != k + 1."""
    chain3 = hg(7, 3, [0, 1, 2], [2, 3, 4], [4, 5, 6])  # k = 3 = r
    no_route = lambda a: iter(())
    broken_cycle = lambda a, length: 0b111
    not_whole = "no good set: V(H) is not good and no rotation terminal set is"
    past_r = "k=5 > r, n != k+1, and no rotation terminal set is good"
    assert analyze(SHORT_EDGE).max_p_mask != (1 << SHORT_EDGE.num_edges) - 1
    cases = (
        ("good_set_existence", "_good_terminal_sets", no_route, SHORT_EDGE, not_whole),
        ("good_set_existence", "_good_terminal_sets", no_route, CHAIN5, past_r),
        ("good_set_existence", "_good_terminal_sets", no_route, chain3, None),
        ("good_set_existence", "_good_terminal_sets", no_route, K53, None),  # k = 4, n = k + 1
        (
            "spanning_cycle",
            "_cycle_mask",
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
