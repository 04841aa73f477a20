"""Independent brute-force cross-checks for the search kernels, the exact
Turan numbers, the rotation closure fixpoint, the integer weight sum and
the sweep's verdicts, on exhaustively enumerated or sampled small instances."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bergepaths import goodsets, verify, weights
from bergepaths.goodsets import _close, check_rotation_bound, rotation_closure
from bergepaths.hypergraph import (
    Hypergraph,
    bits,
    hypergraph_from_subset,
    mask_of,
    possible_edges,
)
from bergepaths.search import (
    BergePath,
    PathQuery,
    SearchError,
    _cycle_mask,
    _max_len,
    _walk,
    analyze,
    longest_berge_path,
    longest_path_length,
    p_edge,
    validate_path,
)
from bergepaths.verify import SweepConfig, _check_instance, instances
from bergepaths.weights import turan_exact
from reference import (
    ORACLE_MAX_EDGES,
    OracleError,
    _assignable,
    complete,
    oracle_length_table,
    oracle_longest_path,
    reference_good_sets,
)


def every_instance(n, r):
    return (a.hg for a in instances(SweepConfig(n=n, r=r, mode="exhaustive")))


def test_anchored_p_table_matches_vertex_start_search():
    """The p-table, grown outward from each edge, equals the reference
    search from every start vertex that counts only the paths using the
    edge."""
    sample = SweepConfig(n=6, r=3, mode="sample", sample_count=300, seed=11)
    sampled = (a.hg for a in instances(sample))
    cases = itertools.chain(
        every_instance(4, 3), every_instance(5, 3), every_instance(5, 4), sampled
    )
    for hg in cases:
        a = analyze(hg)
        expected = tuple(
            max(
                reference_max_len(a, required_edge=i, required_endpoint=v, stop_at=a.k)[0]
                for v in range(hg.n)
            )
            for i in range(hg.num_edges)
        )
        assert a.p_values == expected, hg


def reference_adjacency(hg):
    """(edges incident to each vertex, vertices of each edge), both ascending."""
    at = [[] for _ in range(hg.n)]
    verts = []
    for i, e in enumerate(hg.edges):
        vs = tuple(bits(e))
        verts.append(vs)
        for v in vs:
            at[v].append(i)
    return tuple(tuple(a) for a in at), tuple(verts)


class _ReferenceDone(Exception):
    pass


def reference_max_len(
    a, required_edge=None, required_endpoint=None, stop_at=None, floor=0, excluded_edges=0
):
    """The maximizer in its earlier form, kept as a slow reference: a
    bound d + min(unused edges, unused vertices) tested at every node, and
    each vertex's incident edges scanned in a list, skipping used ones. It
    also still takes a start vertex (``required_endpoint``) and a length to
    beat (``floor``), which the production kernel dropped."""
    n, m = a.hg.n, a.hg.num_edges
    cap = min(m - excluded_edges.bit_count(), n - 1)
    if stop_at is not None:
        cap = min(cap, stop_at)
    if cap <= 0:
        return 0, 0
    edges_at, verts_of = reference_adjacency(a.hg)
    need = 0 if required_edge is None else 1 << required_edge
    best = floor
    best_e = excluded_edges

    def extend(v, other, used_v, used_e, depth):
        # other >= 0: the far end of the seed edge, not yet grown from
        nonlocal best, best_e
        if depth > best and used_e & need == need:
            best = depth
            best_e = used_e
            if best >= cap:
                raise _ReferenceDone
        potential = m - used_e.bit_count()
        rem_v = n - used_v.bit_count()
        if rem_v < potential:
            potential = rem_v
        if depth + potential <= best:
            return
        for i in edges_at[v]:
            if used_e >> i & 1:
                continue
            nxt_e = used_e | (1 << i)
            for u in verts_of[i]:
                if used_v >> u & 1:
                    continue
                extend(u, other, used_v | (1 << u), nxt_e, depth + 1)
        if other >= 0:
            extend(other, -1, used_v, used_e, depth)

    try:
        if need and required_endpoint is None:
            vs = verts_of[required_edge]
            for j, x in enumerate(vs):
                for y in vs[j + 1 :]:
                    extend(y, x, (1 << x) | (1 << y), excluded_edges | need, 1)
        else:
            starts = range(n) if required_endpoint is None else (required_endpoint,)
            for s in starts:
                extend(s, -1, 1 << s, excluded_edges, 0)
    except _ReferenceDone:
        pass
    return min(best, cap), best_e & ~excluded_edges


def reference_walk(a, start, length):
    """The exact-length walker in its earlier form, with the same bound and
    incident-edge lists as ``reference_max_len``."""
    n, m = a.hg.n, a.hg.num_edges
    edges_at, verts_of = reference_adjacency(a.hg)
    path_v = [start] + [0] * length
    path_e = [0] * length

    def extend(v, used_v, used_e, depth):
        if depth == length:
            yield path_v, path_e
            return
        potential = m - used_e.bit_count()
        rem_v = n - used_v.bit_count()
        if rem_v < potential:
            potential = rem_v
        if depth + potential < length:
            return
        for i in edges_at[v]:
            if used_e >> i & 1:
                continue
            for u in verts_of[i]:
                if used_v >> u & 1:
                    continue
                path_e[depth] = i
                path_v[depth + 1] = u
                yield from extend(u, used_v | (1 << u), used_e | (1 << i), depth + 1)

    return extend(start, 1 << start, 0, 0)


def every_longest_path(hg):
    """Every longest path of ``hg``, both orientations, from
    ``reference_walk`` in walk order."""
    a = analyze(hg)
    for s in range(a.hg.n):
        for vs, es in reference_walk(a, s, a.k):
            yield BergePath(tuple(vs), tuple(es))


def test_search_core_matches_the_reference_kernels():
    """On every (4,3), (5,3), (5,4) and (6,5) instance the kernels give the
    reference's (length, path mask) for k and for each anchored query of
    the p-table, and at every length up to k + 1 the walk gives exactly
    the first path of each group of the reference's that shares all but
    its last edge, in the reference's order. The (6,5) edges are the
    widest, where a step skips the most used vertices."""
    walked = dropped = 0
    cases = itertools.chain(
        every_instance(4, 3), every_instance(5, 3), every_instance(5, 4), every_instance(6, 5)
    )
    for hg in cases:
        a = analyze(hg)
        queries = [{}]
        queries += [{"required_edge": i, "stop_at": a.k} for i in range(hg.num_edges)]
        for q in queries:
            assert _max_len(a, **q) == reference_max_len(a, **q), (hg, q)
        for s in range(hg.n):
            for length in range(a.k + 2):
                expected = [(tuple(vs), tuple(es)) for vs, es in reference_walk(a, s, length)]
                firsts = {}
                for vs, es in expected:
                    firsts.setdefault((vs, es[:-1]), (vs, es))
                got = [(tuple(vs), tuple(es)) for vs, es in _walk(a, s, length)]
                assert got == list(firsts.values()), (hg, s, length)
                walked += len(expected)
                dropped += len(expected) - len(got)
    assert walked > 1_400_000
    assert dropped > 400_000  # many groups hold more than one path


# the nine cells of the turan benchmark workload, (6,3,5) and (7,5,6)
TURAN_QUERY_CELLS = (
    (5, 3, 3), (5, 3, 4), (6, 3, 3), (6, 3, 4), (6, 4, 3),
    (6, 4, 4), (6, 4, 5), (7, 5, 4), (7, 5, 5), (6, 3, 5), (7, 5, 6),
)


def test_turan_benchmark_cells_make_262_searches(monkeypatch):
    """The searches a turan benchmark round makes, pinned so that a change
    to the pruning shows."""
    calls = []

    def counting(a, **query):
        calls.append(query)
        return _max_len(a, **query)

    monkeypatch.setattr(weights, "_max_len", counting)
    for cell in TURAN_QUERY_CELLS[:9]:
        turan_exact(*cell)
    assert len(calls) == 262


def test_turan_existence_queries_match_the_reference_kernel(monkeypatch):
    """Every existence query that turan_exact makes, with its cap and
    excluded edges, gets the reference's answer."""
    calls = []

    def recording(a, **query):
        got = _max_len(a, **query)
        calls.append((a, query, got))
        return got

    monkeypatch.setattr(weights, "_max_len", recording)
    for cell in TURAN_QUERY_CELLS:
        turan_exact(*cell)
    # 1,156 searches: free answers the queries whose reach is below k itself,
    # and the sets a search has already shown free
    assert len(calls) >= 1156
    for a, query, got in calls:
        assert got == reference_max_len(a, **query), (a.hg.n, a.hg.r, query)


def test_a_set_covering_at_most_k_vertices_has_no_length_k_path():
    """The bound by which turan_exact's free answers with no search: a path
    of length k has k + 1 vertices, so edges covering at most k vertices
    hold none, on every (5,3) instance and every k."""
    checked = 0
    for hg in every_instance(5, 3):
        covered = 0
        for e in hg.edges:
            covered |= e
        a = analyze(hg)
        for k in range(max(covered.bit_count(), 1), hg.n + 1):
            assert reference_max_len(a, stop_at=k)[0] < k, (hg, k)
            checked += 1
    assert checked == 1 * 5 + 10 * 3 + 55 * 2 + 958  # instances covering 0, 3, 4, 5 vertices


def test_anchored_queries_match_oracle_exhaustively():
    for hg in every_instance(4, 3):
        for i in range(hg.num_edges):
            q = PathQuery(required_edge=i)
            oracle = oracle_longest_path(hg, q.required_edge)
            assert p_edge(hg, i) == longest_path_length(hg, q) == oracle, hg


def test_oracle_and_search_refuse_the_same_out_of_range_edge():
    hg = complete(4, 3)
    for edge in (-1, hg.num_edges):
        message = f"^edge index {edge} out of range$"
        with pytest.raises(SearchError, match=message):
            longest_path_length(hg, PathQuery(required_edge=edge))
        with pytest.raises(OracleError, match=message):
            oracle_longest_path(hg, edge)


def test_fixed_endpoint_paths_match_brute_force():
    """On every n = r+1 instance with 1 <= |E| < r, r = 3..6, the start
    and pair failures of the (r+1)-vertex path claim, by vertex, equal
    those read from the oracle's vertex assignment over every order of
    the edges, with the terminals fixed."""
    checked = 0
    for r in range(3, 7):
        for hg in every_instance(r + 1, r):
            m = hg.num_edges
            if not 1 <= m < r:
                continue
            edge_verts = [tuple(bits(e)) for e in hg.edges]
            seqs = list(itertools.permutations(range(m)))

            def joined(u, w):
                return any(_assignable(edge_verts, seq, u, w) for seq in seqs)

            failures = []
            for v in range(hg.n):
                expected = m >= 2 or v in edge_verts[0]
                got = joined(v, None)
                if got != expected:
                    failures.append(
                        f"length-{m} path starting at v{v}: expected {expected}, got {got}"
                    )
                if r >= 4 and m >= 2:
                    failures += [
                        f"no length-{m} path joins v{v} and v{w}"
                        for w in range(v + 1, hg.n)
                        if not joined(v, w)
                    ]
            assert verify._coro_path(analyze(hg)) == failures, hg
            checked += 1
    assert checked == 10 + 25 + 56 + 119


def brute_force_turan_table(n, r):
    """ex_r(n, BP_k) for k = 2..n: the largest edge subset whose longest
    path, by the factorial oracle, is shorter than k."""
    slots = possible_edges(n, r)
    longest = {}
    for subset in sorted(range(1 << len(slots)), key=int.bit_count):
        if subset.bit_count() <= ORACLE_MAX_EDGES:
            longest[subset] = oracle_longest_path(hypergraph_from_subset(n, r, slots, subset))
        else:
            # a path has at most n - 1 < |subset| edges, so it misses some edge
            longest[subset] = max(longest[subset & ~(1 << i)] for i in bits(subset))
    return {
        k: max(s.bit_count() for s, length in longest.items() if length < k)
        for k in range(2, n + 1)
    }


def test_turan_exact_matches_subset_brute_force():
    for n, r in ((4, 3), (5, 3), (5, 4)):
        for k, expected in brute_force_turan_table(n, r).items():
            res = turan_exact(n, r, k)
            assert res.exact == expected, (n, r, k)
            assert res.witness.num_edges == expected
            assert longest_path_length(res.witness) < k


def reference_turan_exact(n, r, k):
    """ex_r(n, BP_k) and its witness edges by the plain branch and bound
    over every labelled edge subset, kept as a slow reference: slots in
    order, each included before it is excluded, keeping the first set
    larger than all before it."""
    slots = possible_edges(n, r)
    m = len(slots)
    full = (1 << m) - 1
    pool = analyze(Hypergraph(n, r, slots))
    best_count, best_subset = -1, 0

    def dfs(idx, chosen, count):
        nonlocal best_count, best_subset
        if count > best_count:
            best_count, best_subset = count, chosen
        if idx == m or count + (m - idx) <= best_count:
            return
        with_idx = chosen | (1 << idx)
        if _max_len(pool, stop_at=k, excluded_edges=full & ~with_idx)[0] < k:
            dfs(idx + 1, with_idx, count + 1)
        dfs(idx + 1, chosen, count)

    dfs(0, 0, 0)
    return best_count, [slots[i] for i in bits(best_subset)]


def turan_reference_cells():
    """Every cell with r >= 3, n <= 7, C(n, r) <= 21 and k = 2..n+1.
    (6,3,5) and (7,5,6), where the orbit pruning of the first pass cuts
    the most, are also the slowest in the reference, at about 0.95 s and
    0.75 s. (6,3,2) is the one whose optimum, two disjoint edges, holds no
    pair meeting in t > 0 vertices. (2,3,2) and (0,3,2) have no slots at
    all."""
    for r in range(3, 8):
        for n in range(r, 8):
            if len(possible_edges(n, r)) <= 21:
                yield from ((n, r, k) for k in range(2, n + 2))
    yield from ((2, 3, 2), (0, 3, 2))


def test_turan_cell_swaps_pass_every_orbit_minimum():
    """At each level of turan_exact's first pass, with A = slot 0 and
    B = c_t, every cell swap is the slot map of a vertex permutation fixing
    A and B setwise, its mask holds exactly the slots it maps lower, and
    every available set of at most three extra slots that is the least of
    its orbit under all n! such permutations passes _least. On single
    slots _least is exactly the orbit-minimum rule. Value checks alone
    pass rules that split orbits by |e&A|, or by (|e&A|, |e&B|), too
    coarsely."""

    def image(e, perm):
        return sum(1 << perm[v] for v in bits(e))

    levels = sets = 0
    for r in range(3, 8):
        for n in range(r, 8):
            slots = possible_edges(n, r)
            m = len(slots)
            if m > 30:
                continue
            index = {e: i for i, e in enumerate(slots)}
            inc = analyze(Hypergraph(n, r, slots)).incidence
            perms = list(itertools.permutations(range(n)))
            for t in range(r - 1, -1, -1):
                c_t = next((i for i in range(m) if (slots[i] & slots[0]).bit_count() == t), None)
                if c_t is None:
                    continue
                a, b = slots[0], slots[c_t]
                maps = {
                    tuple(index[image(e, p)] for e in slots)
                    for p in perms
                    if image(a, p) == a and image(b, p) == b
                }
                swaps = weights._cell_swaps(slots, inc, a, b)
                cells = (a & b, a & ~b, b & ~a, ((1 << n) - 1) & ~(a | b))
                assert len(swaps) == sum(comb(c.bit_count(), 2) for c in cells), (n, r, t)
                for slot_map, down in swaps:
                    assert slot_map in maps, (n, r, t)
                    assert down == sum(1 << i for i, j in enumerate(slot_map) if j < i), (n, r, t)
                conflicts = [
                    sum(1 << j for j, f in enumerate(slots) if (e & f).bit_count() > t)
                    for e in slots
                ]
                pair = 1 | 1 << c_t
                avail = ((1 << m) - 1) & ~pair & ~conflicts[0] & ~conflicts[c_t]

                def least_in_orbit(chosen):
                    return min(tuple(sorted(f[i] for i in chosen)) for f in maps) == chosen

                for size in (1, 2, 3):
                    for chosen in itertools.combinations(bits(avail), size):
                        if least_in_orbit(chosen):
                            assert weights._least(pair | mask_of(chosen), swaps), (n, r, t, chosen)
                            sets += 1
                minima = {min(f[i] for f in maps) for i in bits(avail)}
                passing = {i for i in bits(avail) if weights._least(pair | 1 << i, swaps)}
                assert passing == minima, (n, r, t)
                levels += 1
    assert levels == 13
    assert sets == 561


def test_turan_exact_matches_the_reference():
    """The symmetry-reduced search gives the reference's value and the
    reference's witness, edge for edge."""
    for n, r, k in turan_reference_cells():
        res = turan_exact(n, r, k)
        assert (res.exact, list(res.witness.edges)) == reference_turan_exact(n, r, k), (n, r, k)


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
    """At every length on the (5,3) instances with at most 4 edges, and at
    k + 1 on every 29th (6,4) instance, the kernel finds a cycle exactly
    when the brute force does, on as many vertices as the cycle has edges."""
    cases = [(hg, length) for hg in every_instance(5, 3) if hg.num_edges <= 4
             for length in range(2, hg.num_edges + 1)]
    for hg in itertools.islice(every_instance(6, 4), None, None, 29):
        k = longest_path_length(hg)
        cases += [(hg, k + 1)] if k else []
    assert len(cases) == 915 + 1129  # the (5,3) pairs, the (6,4) instances with an edge
    for hg, length in cases:
        mask = _cycle_mask(analyze(hg), length)
        assert (mask != 0) == brute_force_cycle_exists(hg, length), (hg, length)
        assert mask.bit_count() in (0, length), (hg, length)


def brute_force_least_sequence(hg, num_vertices, length):
    """Least (vertex seq, edge seq) with ``num_vertices`` distinct vertices
    and ``length`` distinct edges, edge j holding vertices j and j + 1
    (wrapping), over every sequence and every edge choice, or None. A path
    has one vertex more than edges, a cycle as many."""
    # permutations of range(n) and products of ascending lists come out in
    # lexicographic order, so the first sequence found is the least
    for vs in itertools.permutations(range(hg.n), num_vertices):
        flanks = [(1 << vs[j]) | (1 << vs[(j + 1) % num_vertices]) for j in range(length)]
        cands = [[i for i, e in enumerate(hg.edges) if e & f == f] for f in flanks]
        for es in itertools.product(*cands):
            if len(set(es)) == length:
                return vs, es
    return None


def test_cycle_kernel_matches_the_sequence_brute_force():
    """The kernel finds a cycle exactly when the vertex-sequence brute
    force does, at every length, and it spans V(H) exactly when that one
    does."""
    cases = [(4, 3, 1), (5, 4, 1), (5, 3, 3)]
    for n, r, stride in cases:
        for hg in itertools.islice(every_instance(n, r), None, None, stride):
            for length in range(2, n + 1):
                mask = _cycle_mask(analyze(hg), length)
                expected = brute_force_least_sequence(hg, length, length)
                assert (mask != 0) == (expected is not None), (hg, length)
                if expected is not None:
                    spans = mask == hg.vertex_mask
                    assert spans == (mask_of(expected[0]) == hg.vertex_mask), (hg, length)


def brute_force_least_path(hg, length):
    """Least (v0, e1, v1, ..., ek, vk) of a Berge path with ``length``
    edges, over every vertex sequence and every edge choice, or None."""
    best = None
    for vs in itertools.permutations(range(hg.n), length + 1):
        flanks = [(1 << vs[j]) | (1 << vs[j + 1]) for j in range(length)]
        cands = [[i for i, e in enumerate(hg.edges) if e & f == f] for f in flanks]
        for es in itertools.product(*cands):
            if len(set(es)) == length:
                seq = (vs[0], *itertools.chain.from_iterable(zip(es, vs[1:])))
                best = seq if best is None else min(best, seq)
    return best


def test_path_witness_is_the_least_in_path_order():
    cases = [(4, 3, 1), (5, 4, 1), (5, 3, 3)]
    for n, r, stride in cases:
        for hg in itertools.islice(every_instance(n, r), None, None, stride):
            if hg.num_edges <= ORACLE_MAX_EDGES:
                k = oracle_longest_path(hg)
            else:
                # past the oracle's cap (K_5^3 here): no path is longer than
                # n - 1, and the brute force below shows one that long
                k = n - 1
            got_k, witness = longest_berge_path(hg)
            expected = brute_force_least_path(hg, k)
            assert expected is not None and got_k == k, hg
            order = zip(witness.edges, witness.vertices[1:])
            assert (witness.vertices[0], *itertools.chain.from_iterable(order)) == expected, hg


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
    for path in every_longest_path(h):
        fam = rotation_closure(h, path)
        vs, es = fam.base.vertices, fam.base.edges
        tau = fam.terminals
        for j, e in enumerate(es):
            a, b = vs[j], vs[j + 1]
            if not (tau >> a & 1) and not (tau >> b & 1):
                assert not h.edges[e] & tau, (path, j)
        assert fam.bound_lhs <= fam.bound_rhs
        # every witness is a genuine rearrangement pinned at the fixed end
        for t, q in fam.witnesses.items():
            assert q.vertices[0] == path.vertices[0] and q.vertices[-1] == t
            assert sorted(q.vertices) == sorted(vs)
            assert sorted(q.edges) == sorted(es)


def reference_rotation_closure(hg, path):
    """The rotation closure of ``path`` pinned at its first vertex, kept
    in its first, object-per-path form as a slow reference: BergePath
    witnesses, a rescan from segment 0 after each repair and a full
    validate_path of every rotated witness, with or without -O.

    Returns (terminals, {terminal: witness}, |N_E(P)(tau)|)."""
    validate_path(hg, path)
    vs, es = path.vertices, path.edges
    witnesses = {vs[-1]: path}
    terminals = 1 << vs[-1]
    while True:
        repaired = False
        for j in range(len(es)):
            a, b = vs[j], vs[j + 1]
            ej = es[j]
            if terminals >> a & 1 or terminals >> b & 1:
                continue
            edge_mask = hg.edges[ej]
            if not edge_mask & terminals:
                continue
            t = next(v for v in bits(edge_mask) if terminals >> v & 1)
            q = witnesses[t]
            pos = q.edges.index(ej)
            x, y = q.vertices[pos], q.vertices[pos + 1]
            assert {x, y} == {a, b}
            rotated = BergePath(
                q.vertices[: pos + 1] + tuple(reversed(q.vertices[pos + 1 :])),
                q.edges[:pos] + (ej,) + tuple(reversed(q.edges[pos + 1 :])),
            )
            validate_path(hg, rotated)
            if set(rotated.vertices) != set(vs) or set(rotated.edges) != set(es):
                raise AssertionError(f"witness {rotated} left the base path {path}")
            if rotated.vertices[0] != vs[0]:
                raise AssertionError(f"witness {rotated} moved the fixed end")
            witnesses[y] = rotated
            terminals |= 1 << y
            repaired = True
            break
        if not repaired:
            return terminals, witnesses, sum(1 for e in es if hg.edges[e] & terminals)


def rotation_reference_instances():
    """Every (4,3) and (5,4) instance and every 5th (5,3) instance. At r = 3
    a segment's edge meets tau in at most one vertex besides its flanks; the
    (5,4) instances pin which terminal's witness a repair splits."""
    yield from every_instance(4, 3)
    yield from every_instance(5, 4)
    yield from itertools.islice(every_instance(5, 3), None, None, 5)


def test_rotation_core_matches_the_reference():
    """For every longest path, the core reaches the reference's terminal
    set with the same witness for every terminal and the same count of
    base edges meeting it; check_rotation_bound passes exactly when the
    reference finds no path over 2|tau| - 1.

    A path that differs from an earlier one only in its last edge (a
    sibling of the group's first, its representative) reaches the
    representative's terminal set and count, with the same witnesses once
    the representative's last edge is relabelled as the sibling's."""
    paths = siblings = 0
    for h in rotation_reference_instances():
        over = False
        firsts = {}
        for path in every_longest_path(h):
            tau, witnesses, lhs = reference_rotation_closure(h, path)
            got_tau, got_witnesses, got_lhs = _close(analyze(h), path.vertices, path.edges)
            assert (got_tau, got_lhs) == (tau, lhs), (h, path)
            assert {t: BergePath(*q) for t, q in got_witnesses.items()} == witnesses, (h, path)
            over = over or lhs > 2 * tau.bit_count() - 1
            paths += 1
            rep = firsts.setdefault((path.vertices, path.edges[:-1]), (path, tau, lhs, witnesses))
            if rep[0] != path:
                siblings += 1
                rep_path, rep_tau, rep_lhs, rep_witnesses = rep
                assert (tau, lhs) == (rep_tau, rep_lhs), (h, path)
                relabel = {rep_path.edges[-1]: path.edges[-1]}
                assert witnesses == {
                    t: BergePath(q.vertices, tuple(relabel.get(e, e) for e in q.edges))
                    for t, q in rep_witnesses.items()
                }, (h, path)
        assert (check_rotation_bound(h) is None) == (not over), h
    assert paths > 80_000  # the comparison really ran over the dense instances
    assert siblings > 30_000


def reference_find_good_set(a, closures):
    """``find_good_set`` with its rotation route read from ``closures``, a
    list of (terminals, lhs) for every longest path in walk order: the
    first good terminal set, else V(H)."""
    if a.k == 1 or _cycle_mask(a, a.k + 1):
        return goodsets.is_good_set(a, a.hg.vertex_mask)
    certs = filter(None, (goodsets.is_good_set(a, tau) for tau, _ in closures))
    return next(certs, None) or goodsets.is_good_set(a, a.hg.vertex_mask)


def test_closing_one_path_per_last_edge_group_loses_nothing():
    """On every (4,3), (5,3) and (5,4) instance, closing every longest path
    gives check_rotation_bound's detail (the first path over the bound, or
    None) and find_good_set's certificate, though the library closes only
    the first path of each group that differs in its last edge alone."""
    routed = 0
    for hg in itertools.chain(every_instance(4, 3), every_instance(5, 3), every_instance(5, 4)):
        a = analyze(hg)
        closures, detail = [], None
        for path in every_longest_path(a):
            tau, _, lhs = _close(a, path.vertices, path.edges)
            closures.append((tau, lhs))
            rhs = 2 * tau.bit_count() - 1
            if detail is None and lhs > rhs:
                detail = f"path {path.vertices}/{path.edges}: |N_E(P)(tau)|={lhs} > 2|tau|-1={rhs}"
        assert check_rotation_bound(a) == detail, hg
        if a.connected and hg.num_edges:
            assert goodsets.find_good_set(a) == reference_find_good_set(a, closures), hg
            routed += a.k > 1 and not _cycle_mask(a, a.k + 1)
    assert routed > 300  # the rotation route really ran


def test_rotation_bound_violation_is_reported(monkeypatch):
    """A closure over the bound on one path gives exactly one
    rotation_bound failure, naming that path. K_4^3's longest path #4 is
    the first of its group; #5 shares all but its last edge and is not
    closed."""
    h = hypergraph_from_subset(4, 3, possible_edges(4, 3), 0b1111)  # K_4^3
    a = analyze(h)
    paths = list(every_longest_path(a))
    target = paths[4]
    assert (target.vertices, target.edges) == ((0, 2, 3, 1), (0, 2, 1))
    assert paths[5].vertices == target.vertices and paths[5].edges[:-1] == target.edges[:-1]
    real_close = goodsets._close

    def close_over_bound(hg, vs, es):
        terminals, witnesses, lhs = real_close(hg, vs, es)
        if (tuple(vs), tuple(es)) == (target.vertices, target.edges):
            lhs = 2 * terminals.bit_count()
        return terminals, witnesses, lhs

    monkeypatch.setattr(goodsets, "_close", close_over_bound)
    tau = rotation_closure(h, target).terminals.bit_count()
    _, failures = _check_instance(a, frozenset({"rotation_bound", "spanning_cycle"}))
    assert failures == [
        (
            "rotation_bound",
            f"path {target.vertices}/{target.edges}: |N_E(P)(tau)|={2 * tau}"
            f" > 2|tau|-1={2 * tau - 1}",
        )
    ]


def k43_unions():
    """(low, high, union) for every disjoint union of two (4,3) instances on
    8 vertices, the second shifted to vertices 4..7; many have an edge of p < k."""
    k43s = list(every_instance(4, 3))
    for low in k43s:
        for high in k43s:
            yield low, high, Hypergraph(8, 3, low.edges + tuple(e << 4 for e in high.edges))


def sum_cover_instances():
    """Every (4,3), (5,3) and (5,4) instance, 300 sampled (6,3) ones, then
    every disjoint union of two (4,3) instances."""
    for n, r in ((4, 3), (5, 3), (5, 4)):
        yield from instances(SweepConfig(n=n, r=r, mode="exhaustive"))
    yield from instances(SweepConfig(n=6, r=3, mode="sample", sample_count=300, seed=9))
    yield from (analyze(union) for _, _, union in k43_unions())


def test_weight_sum_matches_the_sum_over_the_oracle_p_table():
    """weight_sum, over integers, equals the Fraction sum of 1/f_r(p) over
    p from the factorial oracle, or from the reference kernel's anchored
    searches above the oracle's edge cap; r = 2, where f(x) = x/2, included.
    A path stays inside one component, so a union's p-table is its two
    parts' oracle tables."""
    def slow_p_table(a):
        if a.hg.num_edges <= ORACLE_MAX_EDGES:
            return oracle_length_table(a.hg)[1]
        return tuple(reference_max_len(a, required_edge=i)[0] for i in range(a.hg.num_edges))

    cases = [
        (a, slow_p_table(a))
        for n, r in ((4, 3), (5, 3), (5, 4), (4, 2), (5, 2))
        for a in instances(SweepConfig(n=n, r=r, mode="exhaustive"))
    ]
    sampled = SweepConfig(n=6, r=3, mode="sample", sample_count=300, seed=9)
    cases += [(a, slow_p_table(a)) for a in instances(sampled)]
    part = {hg.edges: oracle_length_table(hg)[1] for hg in every_instance(4, 3)}
    cases += [(analyze(u), part[low.edges] + part[high.edges]) for low, high, u in k43_unions()]
    for a, pvals in cases:
        r = a.hg.r
        inv = [Fraction(2, p) if r == 2 else 1 / weights.f_r(r, p) for p in pvals]
        num, den = weights.weight_sum(a)
        assert den > 0 and Fraction(num, den) == sum(inv, Fraction(0)), a.hg
    assert sum(a.hg.num_edges > ORACLE_MAX_EDGES for a, _ in cases) > 200
    assert sum(min(p) < max(p) for _, p in cases if p) > 50  # some edge has p < k


def reference_check_instance(a, checks):
    """``verify._check_instance`` in its earlier form, kept as a slow
    reference: the sum and its equality read from a whole ``weight_report``,
    the good set from the first certificate of ``reference_good_sets``."""
    hg = a.hg
    failures = []
    connected = a.connected

    if "inequality" in checks or "equality_classifier" in checks:
        rep = weights.weight_report(a)
        cls = rep.classification
        if "inequality" in checks and rep.total > hg.n:
            failures.append(
                ("inequality", f"weight sum {weights.format_fraction(rep.total)} exceeds n={hg.n}")
            )
        if "equality_classifier" in checks and rep.is_equality != (cls != weights.NOT_EXTREMAL):
            failures.append(
                (
                    "equality_classifier",
                    f"exact sum {weights.format_fraction(rep.total)} vs n={hg.n} disagrees with"
                    f" structural class {cls}",
                )
            )
    else:
        cls = weights.classify_structure(a)

    if "good_set_existence" in checks and connected and hg.num_edges:
        first = next(reference_good_sets(a), None)
        if first is None:
            failures.append(("good_set_existence", "no good set exists"))
        else:
            k = a.k
            if k > hg.r and first.S == hg.vertex_mask and hg.n != k + 1:
                failures.append(
                    (
                        "good_set_existence",
                        f"k={k} > r but the only good set is V(H) and n != k+1",
                    )
                )

    if "rotation_bound" in checks:
        detail = check_rotation_bound(a)
        if detail is not None:
            failures.append(("rotation_bound", detail))

    if "spanning_cycle" in checks and connected:
        detail = goodsets.check_spanning_cycle_property(a)
        if detail is not None:
            failures.append(("spanning_cycle", detail))

    if "coro_path" in checks:
        failures.extend(("coro_path", detail) for detail in verify._coro_path(a))

    return cls, failures


# every check but rotation_bound, whose body the integer route leaves alone
# and which costs seconds per dense (6,3) instance
CHEAP_CHECKS = frozenset(verify.CHECK_NAMES) - {"rotation_bound"}


def test_sweep_verdicts_match_the_fraction_route():
    """The sweep's integer tests give the class and failures of the
    ``weight_report`` route, with every cheap check and with each of the
    weight checks alone, where the class comes from the other branch."""
    check_sets = (CHEAP_CHECKS, frozenset({"inequality"}), frozenset({"good_set_existence"}))
    classes = set()
    for a in sum_cover_instances():
        for checks in check_sets:
            got = _check_instance(a, checks)
            assert got == reference_check_instance(analyze(a.hg), checks), (a.hg, checks)
            classes.add(got[0])
    assert classes == {"case_i", "case_ii", "not_extremal"}


def with_p_values(hg, pvals):
    """An Analysis of ``hg`` whose p-table reads ``pvals``."""
    a = analyze(hg)
    a.__dict__["p_values"] = tuple(pvals)
    return a


def test_weight_violation_messages_show_the_reduced_sum():
    """A p-table that pushes the sum over n, and one that pulls an equality
    instance under it, give the messages of the Fraction route byte for
    byte; the integers leave both sums unreduced (16/2 and 12/6)."""
    k43 = hypergraph_from_subset(4, 3, possible_edges(4, 3), 0b1111)  # case_i, sum 4 = n
    both = frozenset({"inequality", "equality_classifier"})
    cases = (
        (
            (2, 2, 2, 2),  # 4 * 1/f_3(2) = 4 * 4/2
            (16, 2),
            [
                ("inequality", "weight sum 8/1 exceeds n=4"),
                (
                    "equality_classifier",
                    "exact sum 8/1 vs n=4 disagrees with structural class case_i",
                ),
            ],
        ),
        (
            (4, 4, 4, 4),  # 4 * 1/f_3(4) = 4 * 3/6
            (12, 6),
            [
                (
                    "equality_classifier",
                    "exact sum 2/1 vs n=4 disagrees with structural class case_i",
                )
            ],
        ),
    )
    for pvals, parts, failures in cases:
        assert weights.weight_sum(with_p_values(k43, pvals)) == parts
        assert _check_instance(with_p_values(k43, pvals), both) == ("case_i", failures)
        assert reference_check_instance(with_p_values(k43, pvals), both) == ("case_i", failures)
    # a not_extremal instance whose faked sum lands on n exactly: 2 + 2 + 1 = 5
    chain = hypergraph_from_subset(5, 3, possible_edges(5, 3), 0b111)
    a = with_p_values(chain, (2, 2, 3))
    assert weights.classify_structure(a) == weights.NOT_EXTREMAL
    assert Fraction(*weights.weight_sum(a)) == 5
    message = "exact sum 5/1 vs n=5 disagrees with structural class not_extremal"
    expected = ("not_extremal", [("equality_classifier", message)])
    assert _check_instance(a, both) == expected
    assert reference_check_instance(with_p_values(chain, (2, 2, 3)), both) == expected
