"""Slow references that the tests compare the package against.

The longest-path oracle enumerates every ordered sequence of distinct
edges and every compatible vertex assignment, with no bounding and no
code shared with the backtracking engine in :mod:`bergepaths.search`.
It is factorial in the edge count, so instances are capped at 8 edges.
``reference_good_sets`` scans every vertex subset with one
``is_good_set`` call each.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from bergepaths.goodsets import GoodSetCertificate, is_good_set
from bergepaths.hypergraph import Hypergraph, HypergraphError, bits, possible_edges

ORACLE_MAX_EDGES = 8


class OracleError(ValueError):
    pass


def complete(n: int, r: int) -> Hypergraph:
    """K_n^r: all C(n, r) possible edges."""
    if n < r:
        raise HypergraphError(f"complete hypergraph needs n >= r, got n={n}, r={r}")
    return Hypergraph(n, r, possible_edges(n, r))


def reference_good_sets(a) -> Iterator[GoodSetCertificate]:
    """Every good set in increasing bitmask order, lazily, one ``is_good_set`` call per subset."""
    return (c for c in (is_good_set(a, s) for s in range(1, 1 << a.hg.n)) if c is not None)


def _assignable(edge_verts, seq, v0_fixed, vk_fixed) -> bool:
    """Can distinct vertices v0..vL be chosen with v_{i-1}, v_i in seq[i-1]?"""
    length = len(seq)

    def place(pos: int, chosen: tuple[int, ...]) -> bool:
        if pos > length:
            return True
        if pos == 0:
            cands = edge_verts[seq[0]]
            if v0_fixed is not None:
                cands = [v0_fixed] if v0_fixed in cands else []
        elif pos == length:
            cands = [v for v in edge_verts[seq[-1]] if v not in chosen]
            if vk_fixed is not None:
                cands = [v for v in cands if v == vk_fixed]
        else:
            left, right = edge_verts[seq[pos - 1]], edge_verts[seq[pos]]
            cands = [v for v in left if v in right and v not in chosen]
        for v in cands:
            if place(pos + 1, chosen + (v,)):
                return True
        return False

    return place(0, ())


def oracle_longest_path(hg: Hypergraph, required_edge: int | None = None) -> int:
    """Maximum Berge path length, through ``required_edge`` if given, by
    full enumeration.

    Returns 0 when no qualifying path with an edge exists; with a required
    edge, that edge's p(e).
    """
    m = hg.num_edges
    if required_edge is not None and not 0 <= required_edge < m:
        raise OracleError(f"edge index {required_edge} out of range")
    if m > ORACLE_MAX_EDGES:
        raise OracleError(f"{m} edges exceed the oracle cap of {ORACLE_MAX_EDGES}")
    edge_verts = [tuple(bits(e)) for e in hg.edges]
    hi = min(m, hg.n - 1) if hg.n else 0
    for length in range(hi, 0, -1):
        for seq in permutations(range(m), length):
            if required_edge is not None and required_edge not in seq:
                continue
            if _assignable(edge_verts, seq, None, None):
                return length
    return 0


def oracle_length_table(hg: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """(longest length, p(e) for every edge) from one enumeration pass.

    Same factorial enumeration as :func:`oracle_longest_path`: whenever an
    edge sequence admits a vertex assignment, every edge of the sequence
    lies on a path of that length. Lengths are scanned downward until all
    edges are settled.
    """
    m = hg.num_edges
    if m > ORACLE_MAX_EDGES:
        raise OracleError(f"{m} edges exceed the oracle cap of {ORACLE_MAX_EDGES}")
    edge_verts = [tuple(bits(e)) for e in hg.edges]
    p = [0] * m
    overall = 0
    hi = min(m, hg.n - 1) if hg.n else 0
    for length in range(hi, 0, -1):
        if all(x > 0 for x in p) and overall > 0:
            break
        for seq in permutations(range(m), length):
            if all(p[i] for i in seq):
                continue
            if _assignable(edge_verts, seq, None, None):
                overall = max(overall, length)
                for i in seq:
                    if p[i] == 0:
                        p[i] = length
    return overall, tuple(p)
