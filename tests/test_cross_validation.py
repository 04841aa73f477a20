"""Independent brute-force cross-checks for the cycle kernel and the
rotation closure fixpoint, on exhaustively enumerated small instances."""

import itertools

from hypothesis import given, settings, strategies as st

from bergepaths.goodsets import rotation_closure
from bergepaths.hypergraph import Hypergraph, bits, hypergraph_from_subset, possible_edges
from bergepaths.search import (
    has_berge_cycle,
    find_berge_cycle,
    iter_longest_paths,
    validate_cycle,
)


def brute_force_cycle_exists(hg, length):
    """Permutation-and-assignment cycle search, no shared code with the engine."""
    edge_verts = [tuple(bits(e)) for e in hg.edges]
    if length > hg.num_edges or length > hg.n:
        return False
    for seq in itertools.permutations(range(hg.num_edges), length):

        def place(pos, chosen):
            if pos == length:
                return True
            prev_e = seq[pos - 1] if pos else seq[-1]
            cands = [
                v
                for v in edge_verts[seq[pos]]
                if v in edge_verts[prev_e] and v not in chosen
            ]
            # vertex v_pos must sit in both its flanking edges (wrapping)
            for v in cands:
                if place(pos + 1, chosen + (v,)):
                    return True
            return False

        if place(0, ()):
            return True
    return False


def test_cycle_kernel_matches_brute_force_exhaustively():
    slots = possible_edges(5, 3)
    for size in range(0, 5):
        for combo in itertools.combinations(range(len(slots)), size):
            hg = Hypergraph(5, 3, tuple(slots[i] for i in combo))
            for length in range(2, size + 1):
                expected = brute_force_cycle_exists(hg, length)
                assert has_berge_cycle(hg, length) == expected, (hg, length)
                witness = find_berge_cycle(hg, length)
                assert (witness is not None) == expected
                if witness is not None:
                    validate_cycle(hg, witness)


def brute_force_least_cycle(hg, length):
    """Least (vertex seq, edge seq) of a Berge cycle over every sequence of
    distinct vertices and every choice of distinct edges, or None."""
    # permutations of range(n) and products of ascending lists come out in
    # lexicographic order, so the first cycle found is the least
    for vs in itertools.permutations(range(hg.n), length):
        flanks = [(1 << vs[j]) | (1 << vs[(j + 1) % length]) for j in range(length)]
        cands = [[i for i, e in enumerate(hg.edges) if e & f == f] for f in flanks]
        for es in itertools.product(*cands):
            if len(set(es)) == length:
                return vs, es
    return None


def test_cycle_witness_is_the_least_over_all_sequences():
    cases = [(4, 3, 1), (5, 4, 1), (5, 3, 3)]
    for n, r, stride in cases:
        slots = possible_edges(n, r)
        for subset in range(0, 1 << len(slots), stride):
            hg = hypergraph_from_subset(n, r, slots, subset)
            for length in range(2, n + 1):
                witness = find_berge_cycle(hg, length)
                got = None if witness is None else (witness.vertices, witness.edges)
                assert got == brute_force_least_cycle(hg, length), (hg, length)


def small_instances():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=3, max_value=6))
        r = draw(st.integers(min_value=3, max_value=min(4, n)))
        slots = possible_edges(n, r)
        picked = draw(st.sets(st.sampled_from(slots), min_size=1, max_size=6))
        return Hypergraph(n, r, tuple(sorted(picked)))

    return build()


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_rotation_closure_reaches_a_true_fixpoint(h):
    """At the fixpoint, no base segment with both flanks outside tau may
    have its edge meet tau, and the neighborhood bound follows."""
    for path in iter_longest_paths(h):
        fam = rotation_closure(h, path, path.vertices[0])
        vs, es = fam.base.vertices, fam.base.edges
        tau = fam.terminals
        for j, e in enumerate(es):
            a, b = vs[j], vs[j + 1]
            if not (tau >> a & 1) and not (tau >> b & 1):
                assert not h.edges[e] & tau, (path, j)
        assert fam.bound_lhs <= fam.bound_rhs
        # every witness is a genuine rearrangement pinned at the fixed end
        for t, q in fam.witnesses.items():
            assert q.vertices[0] == fam.fixed_end and q.vertices[-1] == t
            assert sorted(q.vertices) == sorted(vs)
            assert sorted(q.edges) == sorted(es)
