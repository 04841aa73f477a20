"""Exact longest Berge path and Berge cycle search.

A Berge path of length k alternates k+1 distinct vertices with k distinct
edges, v0 e1 v1 ... ek vk, where each edge contains its two flanking
vertices. Only the defining vertices belong to the path; an edge may also
contain vertices outside it.

The search is depth-first backtracking over (endpoint, used-vertex mask,
used-edge mask) states with an admissible bound: a partial path of length
d can reach at most d + min(unused edges, unused vertices). No
transposition table; the bound prune dominates at this scale.

Per-instance values live on an :class:`Analysis`. Every function that
reads them takes a Hypergraph or an Analysis, so a caller holding one
passes it along and each value is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .hypergraph import Hypergraph, bits, components as _components

__all__ = [
    "Analysis",
    "analyze",
    "BergePath",
    "BergeCycle",
    "PathQuery",
    "SearchError",
    "longest_berge_path",
    "longest_path_length",
    "p_edge",
    "find_berge_cycle",
    "has_berge_cycle",
    "iter_paths_of_length",
    "iter_longest_paths",
    "has_path_with_endpoints",
    "validate_path",
    "validate_cycle",
    "render_path",
]


class SearchError(ValueError):
    """Invalid query or witness handed to the search layer."""


@dataclass(frozen=True)
class BergePath:
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BergeCycle:
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PathQuery:
    """Constraints for one search: force an edge, fix a terminal, or stop early.

    ``target_length`` is an early-exit threshold: the search may stop once a
    qualifying path of that length is found, so the result is
    min(true maximum, target_length).
    """

    required_edge: int | None = None
    required_endpoint: int | None = None
    target_length: int | None = None


def validate_path(hg: Hypergraph, path: BergePath) -> None:
    vs, es = path.vertices, path.edges
    if len(vs) != len(es) + 1:
        raise SearchError(f"path has {len(vs)} vertices for {len(es)} edges")
    if len(set(vs)) != len(vs):
        raise SearchError(f"repeated vertex in path {vs}")
    if len(set(es)) != len(es):
        raise SearchError(f"repeated edge in path {es}")
    for v in vs:
        if not 0 <= v < hg.n:
            raise SearchError(f"vertex {v} outside 0..{hg.n - 1}")
    for i, e in enumerate(es):
        if not 0 <= e < hg.num_edges:
            raise SearchError(f"edge index {e} out of range")
        need = (1 << vs[i]) | (1 << vs[i + 1])
        if hg.edges[e] & need != need:
            raise SearchError(f"edge {e} does not contain both {vs[i]} and {vs[i + 1]}")


def validate_cycle(hg: Hypergraph, cycle: BergeCycle) -> None:
    vs, es = cycle.vertices, cycle.edges
    if len(vs) != len(es) or len(vs) < 2:
        raise SearchError(f"cycle needs k >= 2 vertices and k edges, got {len(vs)}/{len(es)}")
    if len(set(vs)) != len(vs) or len(set(es)) != len(es):
        raise SearchError("repeated vertex or edge in cycle")
    k = len(vs)
    for i, e in enumerate(es):
        if not 0 <= e < hg.num_edges:
            raise SearchError(f"edge index {e} out of range")
        need = (1 << vs[i]) | (1 << vs[(i + 1) % k])
        if hg.edges[e] & need != need:
            raise SearchError(
                f"edge {e} does not contain both {vs[i]} and {vs[(i + 1) % k]}"
            )


def render_path(path: BergePath) -> str:
    if not path.vertices:
        return "(empty)"
    out = [f"v{path.vertices[0]}"]
    for e, v in zip(path.edges, path.vertices[1:]):
        out.append(f"-e{e}- v{v}")
    return " ".join(out)


@dataclass(frozen=True)
class Analysis:
    """Per-instance values of one hypergraph, each computed once, on first use."""

    hg: Hypergraph

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(edges incident to each vertex, vertices of each edge), both ascending."""
        at = [[] for _ in range(self.hg.n)]
        verts = []
        for i, e in enumerate(self.hg.edges):
            vs = tuple(bits(e))
            verts.append(vs)
            for v in vs:
                at[v].append(i)
        return tuple(tuple(a) for a in at), tuple(verts)

    @cached_property
    def components(self) -> tuple[tuple[Hypergraph, dict[int, int]], ...]:
        """Connected components with their old-to-new vertex maps."""
        return tuple(_components(self.hg))

    @cached_property
    def connected(self) -> bool:
        return self.hg.n <= 1 or len(self.components) == 1

    @cached_property
    def k(self) -> int:
        """Longest Berge path length."""
        return _max_len(self)

    @cached_property
    def p_values(self) -> tuple[int, ...]:
        """p(e) for every edge; p never exceeds k."""
        k = self.k
        return tuple(_max_len(self, required_edge=i, stop_at=k) for i in range(self.hg.num_edges))

    @cached_property
    def max_p_mask(self) -> int:
        """Bitmask over edge indices with p(e) = k."""
        return sum(1 << i for i, p in enumerate(self.p_values) if p == self.k)


def analyze(hg: Hypergraph | Analysis) -> Analysis:
    """``hg`` itself when it is already an Analysis, else a fresh one for it."""
    return hg if isinstance(hg, Analysis) else Analysis(hg)


class _Done(Exception):
    pass


def _max_len(
    a: Analysis,
    required_edge: int | None = None,
    required_endpoint: int | None = None,
    stop_at: int | None = None,
    floor: int = 0,
    excluded_edges: int = 0,
) -> int:
    """Maximum qualifying path length, or min(maximum, stop_at) if stop_at is set.

    ``floor`` additionally prunes branches that cannot exceed it; when
    floor > 0 the return value is only meaningful compared against floor
    (used for pure existence queries). ``excluded_edges`` masks out edge
    indices entirely, letting callers search sub-hypergraphs in place.
    """
    n, m = a.hg.n, a.hg.num_edges
    if n == 0:
        return 0
    avail = m - excluded_edges.bit_count()
    cap = min(avail, n - 1)
    if stop_at is not None:
        cap = min(cap, stop_at)
    if avail == 0 or cap <= 0:
        return 0
    edges_at, verts_of = a.adjacency
    best = 0
    req = required_edge

    def extend(v: int, used_v: int, used_e: int, depth: int, has_req: bool) -> None:
        nonlocal best
        if has_req and depth > best:
            best = depth
            if best >= cap:
                raise _Done
        potential = m - used_e.bit_count()
        rem_v = n - used_v.bit_count()
        if rem_v < potential:
            potential = rem_v
        limit = best if best > floor else floor
        if depth + potential <= limit:
            return
        for i in edges_at[v]:
            if used_e >> i & 1:
                continue
            nxt_e = used_e | (1 << i)
            hr = has_req or i == req
            for u in verts_of[i]:
                if used_v >> u & 1:
                    continue
                extend(u, used_v | (1 << u), nxt_e, depth + 1, hr)

    starts = range(n) if required_endpoint is None else (required_endpoint,)
    try:
        for s in starts:
            extend(s, 1 << s, excluded_edges, 0, req is None)
    except _Done:
        pass
    return best


def longest_path_length(hg: Hypergraph | Analysis, query: PathQuery | None = None) -> int:
    """Maximum Berge path length subject to an optional query.

    Returns 0 when no qualifying path with at least one edge exists (a
    single vertex is a length-0 path). A path "satisfies" a required
    endpoint when either terminal equals it.
    """
    a = analyze(hg)
    if query is None:
        return a.k
    if query.required_edge is not None and not 0 <= query.required_edge < a.hg.num_edges:
        raise SearchError(f"edge index {query.required_edge} out of range")
    if query.required_endpoint is not None and not 0 <= query.required_endpoint < a.hg.n:
        raise SearchError(f"vertex {query.required_endpoint} out of range")
    return _max_len(
        a,
        required_edge=query.required_edge,
        required_endpoint=query.required_endpoint,
        stop_at=query.target_length,
    )


def p_edge(hg: Hypergraph | Analysis, edge: int) -> int:
    """Maximum length of a Berge path whose defining edges include ``edge``."""
    a = analyze(hg)
    if not 0 <= edge < a.hg.num_edges:
        raise SearchError(f"edge index {edge} out of range")
    return _max_len(a, required_edge=edge, stop_at=a.k)


def iter_paths_of_length(hg: Hypergraph | Analysis, k: int) -> Iterator[BergePath]:
    """Every Berge path of length exactly k, in depth-first order.

    Both orientations of each path are produced (a reversed path is a
    distinct alternating sequence).
    """
    a = analyze(hg)
    n, m = a.hg.n, a.hg.num_edges
    if k == 0:
        for v in range(n):
            yield BergePath((v,), ())
        return
    if n == 0 or k > min(m, n - 1):
        return
    edges_at, verts_of = a.adjacency
    path_v = [0] * (k + 1)
    path_e = [0] * k

    def extend(v: int, used_v: int, used_e: int, depth: int):
        if depth == k:
            yield BergePath(tuple(path_v), tuple(path_e))
            return
        potential = m - used_e.bit_count()
        rem_v = n - used_v.bit_count()
        if rem_v < potential:
            potential = rem_v
        if depth + potential < k:
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

    for s in range(n):
        path_v[0] = s
        yield from extend(s, 1 << s, 0, 0)


def iter_longest_paths(hg: Hypergraph | Analysis) -> Iterator[BergePath]:
    """Every maximum-length Berge path."""
    a = analyze(hg)
    return iter_paths_of_length(a, a.k)


def longest_berge_path(hg: Hypergraph | Analysis) -> tuple[int, BergePath]:
    """Length of the longest Berge path plus one deterministic witness.

    Among maximum-length paths the lexicographically least witness is
    returned, ordered by vertex sequence then edge-index sequence.
    Raises for a hypergraph with no vertices, which has no paths at all.
    """
    a = analyze(hg)
    if a.hg.n == 0:
        raise SearchError("hypergraph has no vertices, hence no paths")
    vs, es = min((p.vertices, p.edges) for p in iter_paths_of_length(a, a.k))
    witness = BergePath(vs, es)
    if __debug__:
        validate_path(a.hg, witness)
    return a.k, witness


def _iter_cycle_seqs(a: Analysis, k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Berge cycles of length k as (vertex seq, edge seq), each starting at
    its minimum vertex, in both directions and with every edge choice."""
    n, m = a.hg.n, a.hg.num_edges
    if k < 2 or k > m or k > n:
        return
    edges_at, verts_of = a.adjacency
    masks = a.hg.edges
    path_v = [0] * k
    path_e = [0] * k

    def extend(v0: int, v: int, used_v: int, used_e: int, depth: int):
        if depth == k - 1:
            close = (1 << v) | (1 << v0)
            for i in edges_at[v0]:
                if used_e >> i & 1:
                    continue
                if masks[i] & close == close:
                    path_e[depth] = i
                    yield tuple(path_v), tuple(path_e)
            return
        rem_e = m - used_e.bit_count()
        rem_v = n - used_v.bit_count()
        if rem_e < k - depth or rem_v < k - 1 - depth:
            return
        for i in edges_at[v]:
            if used_e >> i & 1:
                continue
            for u in verts_of[i]:
                if used_v >> u & 1 or u < v0:
                    continue
                path_e[depth] = i
                path_v[depth + 1] = u
                yield from extend(v0, u, used_v | (1 << u), used_e | (1 << i), depth + 1)

    for s in range(n):
        path_v[0] = s
        yield from extend(s, s, 1 << s, 0, 0)


def has_berge_cycle(hg: Hypergraph | Analysis, length: int) -> bool:
    """True when a Berge cycle of exactly ``length`` exists."""
    if length < 2:
        raise SearchError(f"cycle length {length} < 2")
    return next(_iter_cycle_seqs(analyze(hg), length), None) is not None


def find_berge_cycle(hg: Hypergraph | Analysis, length: int) -> BergeCycle | None:
    """A Berge cycle of exactly ``length``, or None.

    Witness selection matches longest_berge_path: lexicographically least
    (vertex sequence, edge sequence) over all rotations and reflections.
    That least form starts at the cycle's minimum vertex, so the minimum
    over the sequences starting there is the same witness.
    """
    if length < 2:
        raise SearchError(f"cycle length {length} < 2")
    a = analyze(hg)
    best = min(_iter_cycle_seqs(a, length), default=None)
    if best is None:
        return None
    cycle = BergeCycle(*best)
    if __debug__:
        validate_cycle(a.hg, cycle)
    return cycle


def has_path_with_endpoints(hg: Hypergraph | Analysis, u: int, w: int, length: int) -> bool:
    """True when a Berge path of exactly ``length`` has terminals u and w."""
    a = analyze(hg)
    for v in (u, w):
        if not 0 <= v < a.hg.n:
            raise SearchError(f"vertex {v} out of range")
    if u == w:
        return length == 0
    if length == 0:
        return False
    n, m = a.hg.n, a.hg.num_edges
    if length > min(m, n - 1):
        return False
    edges_at, verts_of = a.adjacency

    def extend(v: int, used_v: int, used_e: int, depth: int) -> bool:
        if depth == length:
            return v == w
        rem_e = m - used_e.bit_count()
        rem_v = n - used_v.bit_count()
        if rem_e < length - depth or rem_v < length - depth:
            return False
        for i in edges_at[v]:
            if used_e >> i & 1:
                continue
            for x in verts_of[i]:
                if used_v >> x & 1:
                    continue
                if depth + 1 == length and x != w:
                    continue
                if extend(x, used_v | (1 << x), used_e | (1 << i), depth + 1):
                    return True
        return False

    return extend(u, 1 << u, 0, 0)
