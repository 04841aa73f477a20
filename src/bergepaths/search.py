"""Exact longest Berge path and Berge cycle search over a pool of edge slots.

A Berge path of length k alternates k+1 distinct vertices with k distinct
edges, v0 e1 v1 ... ek vk, where each edge contains its two flanking
vertices. Only the defining vertices belong to the path; an edge may also
contain vertices outside it.

An instance is an :class:`Analysis`, a pool (a Hypergraph whose edges are
the slots) and a present mask. The searches read n, r, the slots, the mask
and incidence masks ANDed with it, never a Hypergraph of the instance, and
an edge index is a slot index, so a sweep instance is a mask over one pool
of all C(n, r) slots. ``Analysis(hg)`` is the pool of ``hg``'s own edges,
all present, where a slot index is the rank index, the edge index of
``hg``. Results leave in rank order (``Analysis.ranks``), an index passed
in is mapped to its slot (``_slot``), and ``validate_path`` reads ranks.

Three depth-first searches answer the checks and pick the printed
witness. ``_max_len`` maximizes over (endpoint, used-vertex mask,
used-edge mask) states for k, the p-table over a cover of longest paths
(``Analysis._p_table``), ``p_edge``, every ``longest_path_length``
query and ``turan_exact``'s existence queries.

``_walk`` lazily yields the paths of an exact length from one start
vertex, in the same order, but only the first path of each group that
differs in its last edge alone. The rotation closure of ``goodsets`` and
the far ends that the (r+1)-vertex path claim of ``verify`` reads never
use that edge, and ``longest_berge_path`` prints the first path it
yields, the least read in the order v0 e1 v1 ... ek vk. Maximizing and
walking stay two searches: a merged kernel would branch on its caller,
and the walk must stay lazy, since a (6,3) instance can have tens of
thousands of longest paths.

``_cycle_mask`` finds a cycle of an exact length, the (k+1)-cycle
behind a good set, pinned at its least vertex, and returns its vertex
mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .hypergraph import Hypergraph, bits, component_masks, hypergraph_from_subset, incidence_masks


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
class PathQuery:
    """Constraints for one search: an edge the path must use, or none."""

    required_edge: int | None = None


def validate_path(hg: Hypergraph | Analysis, path: BergePath) -> None:
    """Refuse ``path`` unless it is a Berge path of ``hg``, its edges by rank."""
    _validate_seq(_by_rank(hg), path.vertices, path.edges)


def _by_rank(hg: Hypergraph | Analysis) -> Analysis:
    """``hg`` as an Analysis whose slot indices are its rank indices."""
    a = analyze(hg)
    return Analysis(a.hg) if a.present & (a.present + 1) else a


def _validate_seq(a: Analysis, vs, es) -> tuple[int, int]:
    """``validate_path`` in one pass on vertex and edge sequences (tuples or
    lists) of slot indices, returning their (vertex mask, edge mask). Of
    several defects it reports the first of: counts, repeated vertex,
    repeated edge, vertex range, the first edge out of range or missing a
    flanking vertex, then an absent slot."""
    if len(vs) != len(es) + 1:
        raise SearchError(f"path has {len(vs)} vertices for {len(es)} edges")
    n, edges, m = a.n, a.slots, len(a.slots)
    v = vs[0]
    prev = vmask = 1 << v if 0 <= v < n else 0
    emask = 0
    fault = None  # the first edge fault; moot when a vertex is out of range
    for j, e in enumerate(es):
        v = vs[j + 1]
        bit = 1 << v if 0 <= v < n else 0
        vmask |= bit
        if 0 <= e < m:
            emask |= 1 << e
            need = prev | bit
            if edges[e] & need != need and fault is None:
                fault = f"edge {e} does not contain both {vs[j]} and {v}"
        elif fault is None:
            fault = f"edge index {e} out of range"
        prev = bit
    # distinct in-range ids fill one bit each; any shortfall is a repeat or a stray id
    if vmask.bit_count() != len(vs) and len(set(vs)) != len(vs):
        raise SearchError(f"repeated vertex in path {tuple(vs)}")
    if emask.bit_count() != len(es) and len(set(es)) != len(es):
        raise SearchError(f"repeated edge in path {tuple(es)}")
    if vmask.bit_count() != len(vs):
        v = next(v for v in vs if not 0 <= v < n)
        raise SearchError(f"vertex {v} outside 0..{n - 1}")
    if fault is not None or emask & ~a.present:
        raise SearchError(fault or f"edge index {next(bits(emask & ~a.present))} out of range")
    return vmask, emask


def _validate_cycle(a: Analysis, vs, es) -> None:
    """The open path v0 ... v(k-1), then its closing edge, by ``_validate_seq``."""
    if len(vs) != len(es) or len(vs) < 2:
        raise SearchError(f"cycle needs k >= 2 vertices and k edges, got {len(vs)}/{len(es)}")
    _validate_seq(a, vs, es[:-1])
    _validate_seq(a, (vs[-1], vs[0]), es[-1:])
    if es[-1] in es[:-1]:
        raise SearchError(f"repeated edge in cycle {tuple(es)}")


def render_path(path: BergePath) -> str:
    if not path.vertices:
        return "(empty)"
    out = [f"v{path.vertices[0]}"]
    for e, v in zip(path.edges, path.vertices[1:]):
        out.append(f"-e{e}- v{v}")
    return " ".join(out)


class cached_property:
    """``functools.cached_property`` without the lock that Python < 3.12 takes
    on each first read; the value goes into the instance dict, as there."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Analysis:
    """One instance, the slots of ``pool`` that ``present`` sets (default: all),
    and its values, each computed once, on first use; ``hg``, the instance
    as a Hypergraph in rank order, is built only when read."""

    def __init__(self, pool: Hypergraph, present: int | None = None, slot_incidence=None):
        self._pool, self.n, self.r, self.slots = pool, pool.n, pool.r, pool.edges
        present = (1 << len(pool.edges)) - 1 if present is None else present
        self.present, self.m, self._slot_incidence = present, present.bit_count(), slot_incidence

    @cached_property
    def hg(self) -> Hypergraph:
        return hypergraph_from_subset(self.n, self.r, self.slots, self.present)

    def ranks(self, indices) -> tuple[int, ...]:
        """The rank index of each slot index: its place among the present slots."""
        present = self.present
        if not present & (present + 1):  # slots 0..m-1: a slot is its rank
            return tuple(indices)
        return tuple((present & ((1 << i) - 1)).bit_count() for i in indices)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Bitmask over slot indices of the present edges holding each vertex."""
        inc = self._slot_incidence or incidence_masks(self._pool)
        return tuple(inc if self.m == len(self.slots) else map(self.present.__and__, inc))

    @cached_property
    def components(self) -> tuple[int, ...]:
        """The vertex mask of each connected component, by least vertex."""
        return component_masks(self._pool, self.incidence)

    @cached_property
    def connected(self) -> bool:
        return len(self.components) <= 1

    @cached_property
    def _k_path(self) -> tuple[int, int, list[int]]:
        """(k, edge mask of a longest path, its segments if the search hit its cap)."""
        segments = []
        return *_max_len(self, segments=segments), segments

    @cached_property
    def k(self) -> int:
        """Longest Berge path length."""
        return self._k_path[0]

    @cached_property
    def _p_table(self) -> tuple[tuple[int, ...], int]:
        """(p(e) for every edge, the final cover); p never exceeds k.

        Edges are taken in index order over a cover, the edges that the
        length-k paths found so far prove to have p = k, seeded with the
        path found for k (``_at_k``). An edge of the cover has p = k with
        no search. Any other edge runs the anchored search with cap k, and
        when that reaches k, its path joins the cover.

        Endpoint rule: an edge e at an end v0 of a length-k path
        P = v0 e1 v1 ... ek vk has p(e) = k. If e is not on P, it holds no
        vertex off P, or P would extend to length k + 1; so it holds some
        v_j with j >= 1, and v_(j-1) ... v0 e v_j ... v_k has length k.
        """
        k, path, segments = self._k_path
        inc = self.incidence
        cover = _at_k(inc, path, segments)
        out = []
        for i in bits(self.present):
            if cover >> i & 1:
                out.append(k)
                continue
            segments = []
            p, path = _max_len(self, required_edge=i, stop_at=k, segments=segments)
            if p == k:
                cover |= _at_k(inc, path, segments)
            out.append(p)
        return tuple(out), cover

    @cached_property
    def p_values(self) -> tuple[int, ...]:
        """p(e) for every edge, in rank order."""
        return self._p_table[0]

    @cached_property
    def max_p_mask(self) -> int:
        """Bitmask over slot indices with p(e) = k: the final cover."""
        return self._p_table[1]


def _at_k(inc: tuple[int, ...], path: int, segments: list[int]) -> int:
    """The edges a longest path proves to have p = k: its own (``path``)
    and, from its handed-back ``segments``, each edge holding both
    vertices of a segment and each edge at either end. Every other path
    vertex lies in two segments, so the ends are their XOR."""
    ends = 0
    for q in segments:
        ends ^= q
        low = q & -q
        path |= inc[low.bit_length() - 1] & inc[(q ^ low).bit_length() - 1]
    for v in bits(ends):
        path |= inc[v]
    return path


def analyze(hg: Hypergraph | Analysis) -> Analysis:
    """``hg`` itself when it is already an Analysis, else a fresh one for it."""
    return hg if isinstance(hg, Analysis) else Analysis(hg)


def _max_len(
    a: Analysis,
    required_edge: int | None = None,
    stop_at: int | None = None,
    excluded_edges: int = 0,
    segments: list[int] | None = None,
) -> tuple[int, int]:
    """(length, path): the maximum qualifying path length, or
    min(maximum, stop_at) if stop_at is set, and the edge mask of a
    qualifying path of that length (0 when there is none).

    With a required edge every qualifying path reads P1 x edge y P2: the
    search seeds the path with the edge on each pair {x, y} of its
    vertices, grows P2 from y and, at any node, switches once to growing
    P1 from x. Otherwise it grows paths from every start vertex.

    A path that reaches the cap ends the search by return value, and on
    the way back each call appends its segment (the 2-bit mask of its two
    path vertices) to ``segments``; a search that stops short adds none.

    No path is longer than min(m - excluded, n - 1); a per-node bound
    could prune only at the root. ``excluded_edges`` masks out slot
    indices entirely, letting callers search sub-hypergraphs in place.
    """
    n = a.n
    cap = min(a.m - excluded_edges.bit_count(), n - 1)
    if stop_at is not None:
        cap = min(cap, stop_at)
    if cap <= 0:
        return 0, 0
    inc, edges = a.incidence, a.slots
    best = 0
    best_e = excluded_edges
    if segments is None:
        segments = []

    def extend(v: int, other: int, used_v: int, used_e: int, depth: int) -> bool:
        # other >= 0: the far end of the seed edge, not yet grown from
        nonlocal best, best_e
        if depth > best:
            best = depth
            best_e = used_e
            if best >= cap:
                return True
        free = inc[v] & ~used_e
        while free:
            low = free & -free
            free ^= low
            nxt_e = used_e | low
            nxt_v = edges[low.bit_length() - 1] & ~used_v
            while nxt_v:
                b = nxt_v & -nxt_v
                nxt_v ^= b
                if extend(b.bit_length() - 1, other, used_v | b, nxt_e, depth + 1):
                    segments.append(1 << v | b)
                    return True
        return other >= 0 and extend(other, -1, used_v, used_e, depth)

    if required_edge is not None:
        for x, y in combinations(bits(edges[required_edge]), 2):
            seed = 1 << x | 1 << y
            if extend(y, x, seed, excluded_edges | 1 << required_edge, 1):
                segments.append(seed)
                break
    else:
        for s in range(n):
            if extend(s, -1, 1 << s, excluded_edges, 0):
                break
    return best, best_e & ~excluded_edges


def longest_path_length(hg: Hypergraph | Analysis, query: PathQuery | None = None) -> int:
    """Maximum Berge path length subject to an optional query: k, or with a
    required edge its p(e), as ``p_edge``. Returns 0 when no qualifying path
    with at least one edge exists (a single vertex is a length-0 path).
    """
    if query is None or query.required_edge is None:
        return analyze(hg).k
    return p_edge(hg, query.required_edge)


def p_edge(hg: Hypergraph | Analysis, edge: int) -> int:
    """Maximum length of a Berge path whose defining edges include ``edge``."""
    a = analyze(hg)
    return _max_len(a, required_edge=_slot(a, edge), stop_at=a.k)[0]


def _slot(a: Analysis, edge: int) -> int:
    """The slot index of the edge of rank ``edge``, refused when out of range."""
    if not 0 <= edge < a.m:
        raise SearchError(f"edge index {edge} out of range")
    return [*bits(a.present)][edge]


def _walk(a: Analysis, start: int, length: int) -> Iterator[tuple[list[int], list[int]]]:
    """The paths of exactly ``length`` edges from ``start``, in depth-first
    order, one per group that shares all but its last edge.

    Yields (vertex list, edge list). The two lists are reused from one
    yield to the next, so copy them to keep them. No path is longer than
    min(m, n - 1), so a longer ``length`` yields nothing without a search.

    The path yielded for a group is its first, the one whose last edge is
    the lowest free edge holding its far end: the last step marks each
    edge's new vertices used, so a later edge skips the far ends already
    reached, and each far end of a shared prefix is reached once.
    """
    if min(a.m, a.n - 1) < length:
        return iter(())
    inc, edges = a.incidence, a.slots
    path_v = [start] + [0] * length
    path_e = [0] * length
    last = length - 1

    def extend(v: int, used_v: int, used_e: int, depth: int):
        if depth == length:
            yield path_v, path_e
            return
        free = inc[v] & ~used_e
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            nxt_v = edges[i] & ~used_v
            if depth == last:
                used_v |= nxt_v
            while nxt_v:
                b = nxt_v & -nxt_v
                nxt_v ^= b
                path_e[depth] = i
                path_v[depth + 1] = u = b.bit_length() - 1
                yield from extend(u, used_v | b, used_e | low, depth + 1)

    return extend(start, 1 << start, 0, 0)


def longest_berge_path(hg: Hypergraph | Analysis) -> tuple[int, BergePath]:
    """Length of the longest Berge path plus one deterministic witness.

    The witness is the first path of length k that ``_walk`` yields,
    trying start vertices in increasing order: the least path read in its
    own order v0 e1 v1 ... ek vk, as the walk tries each step's edges,
    then each edge's new vertices, in increasing order. Raises for a
    hypergraph with no vertices, which has no paths at all.
    """
    a = analyze(hg)
    if a.n == 0:
        raise SearchError("hypergraph has no vertices, hence no paths")
    vs, es = map(tuple, next(p for s in range(a.n) for p in _walk(a, s, a.k)))
    if __debug__:
        _validate_seq(a, vs, es)
    return a.k, BergePath(vs, a.ranks(es))


def _cycle_mask(a: Analysis, length: int) -> int:
    """The vertex mask of a Berge cycle of exactly ``length`` >= 2 edges,
    or 0. Pinned at the cycle's least vertex s, it marks the vertices
    below s used, grows paths of ``length - 1`` edges from s, and accepts
    one when an unused edge holds its far end and s. The cycle fills
    reused lists, as in ``_walk``, and is validated under ``__debug__``."""
    n = a.n
    if length > min(a.m, n):
        return 0
    inc, edges = a.incidence, a.slots
    last = length - 1
    path_v = [0] * length
    path_e = [0] * length

    def extend(v: int, used_v: int, used_e: int, depth: int) -> int:
        if depth == last:
            close = inc[v] & inc[path_v[0]] & ~used_e
            path_e[last] = (close & -close).bit_length() - 1
            return used_v if close else 0
        free = inc[v] & ~used_e
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            nxt_v = edges[i] & ~used_v
            while nxt_v:
                b = nxt_v & -nxt_v
                nxt_v ^= b
                path_e[depth] = i
                path_v[depth + 1] = u = b.bit_length() - 1
                if found := extend(u, used_v | b, used_e | low, depth + 1):
                    return found
        return 0

    for s in range(n - length + 1):
        path_v[0] = s
        if found := extend(s, (2 << s) - 1, 0, 0):
            if __debug__:
                _validate_cycle(a, path_v, path_e)
            return found >> s << s
    return 0
