"""Brute-force longest-path oracle for cross-validating the main search.

Enumerates every ordered sequence of distinct edges and every compatible
vertex assignment, with no bounding and no code shared with the
backtracking engine in :mod:`bergepaths.search`. Factorial in the edge
count, so instances are capped at 8 edges.
"""

from __future__ import annotations

from itertools import permutations

from .hypergraph import Hypergraph, bits
from .search import PathQuery, SearchError

ORACLE_MAX_EDGES = 8


class OracleError(ValueError):
    pass


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


def oracle_longest_path(hg: Hypergraph, query: PathQuery | None = None) -> int:
    """Maximum Berge path length satisfying ``query``, by full enumeration.

    Returns 0 when no qualifying path with an edge exists; with a required
    edge, that edge's p(e).
    """
    if query is None:
        query = PathQuery()
    m = hg.num_edges
    if query.required_edge is not None and not 0 <= query.required_edge < m:
        raise SearchError(f"edge index {query.required_edge} out of range")
    if m > ORACLE_MAX_EDGES:
        raise OracleError(f"{m} edges exceed the oracle cap of {ORACLE_MAX_EDGES}")
    edge_verts = [tuple(bits(e)) for e in hg.edges]
    hi = min(m, hg.n - 1) if hg.n else 0
    for length in range(hi, 0, -1):
        for seq in permutations(range(m), length):
            if query.required_edge is not None and query.required_edge not in seq:
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
