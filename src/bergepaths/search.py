"""Exact longest Berge path and Berge cycle search.

A Berge path of length k alternates k+1 distinct vertices with k distinct
edges, v0 e1 v1 ... ek vk, where each edge contains its two flanking
vertices. Only the defining vertices belong to the path; an edge may also
contain vertices outside it.

Three depth-first searches do all the work.

``_max_len`` is a maximizer over (endpoint, used-vertex mask, used-edge
mask) states. It extends a path at its end v along the free edges at v,
the set bits of ``incidence[v] & ~used_e``, and along edge i to its next
vertices, the set bits of ``edges[i] & ~used_v``, each lowest first. It
has no per-node bound: along a path of d edges, d + min(unused edges,
unused vertices) is min(m - excluded, n - 1) at every node, so one root
check does all the pruning such a bound could. A path that reaches the cap
stops the search by return value, and each call hands back its segment
(its two path vertices) as it returns. Besides the length it returns
the edge mask of a path of that length. It gives k, p(e) (the p-table,
``p_edge``), every ``longest_path_length`` query and the existence
queries of ``turan_exact`` (with excluded edges).

The p-table is built over a longest-path cover. p(e) <= k always, and a
length-k path is a witness that p(e) = k for each of its edges. So the
edges of the path found for k, and of every anchored search that reaches
k, get p = k with no search of their own. So does an edge holding both
vertices of a segment that a search reaching its cap handed back: it can
replace the path's edge on that segment.

``_walk`` lazily yields the paths of an exact length from one start
vertex, in the same order, but only the first path of each group that
differs in its last edge alone. Its two callers never read that edge:
the rotation closure of ``goodsets`` and the far ends that the
(r+1)-vertex path claim of ``verify`` reads. Maximizing and walking stay
two searches: a merged kernel would branch on its caller, and the walk
must stay lazy, since a (6,3) instance can have tens of thousands of
longest paths.

``_least_seq`` finds the lexicographically least witness without
walking every path: it tries vertex sequences in order and keeps a
prefix only while its consecutive pairs can take distinct edges, a
bipartite matching (``_matchable``). It gives ``longest_berge_path`` and
the cycles of ``find_berge_cycle``, among them the (k+1)-cycles behind
good sets.

Per-instance values live on an :class:`Analysis`. Every function that
reads them takes a Hypergraph or an Analysis, so a caller holding one
passes it along and each value is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .hypergraph import Hypergraph, bits, component_masks

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
    """Constraints for one search: force an edge onto the path, or stop early.

    ``target_length`` is an early-exit threshold: the search may stop once a
    qualifying path of that length is found, so the result is
    min(true maximum, target_length). A negative one is refused.
    """

    required_edge: int | None = None
    target_length: int | None = None

    def __post_init__(self) -> None:
        if self.target_length is not None and self.target_length < 0:
            raise SearchError(f"target length {self.target_length} < 0")


def validate_path(hg: Hypergraph, path: BergePath) -> None:
    _validate_seq(hg, path.vertices, path.edges)


def _validate_seq(hg: Hypergraph, vs, es) -> tuple[int, int]:
    """``validate_path`` in one pass on vertex and edge sequences (tuples or
    lists), returning their (vertex mask, edge mask). Of several defects it
    reports the first of: counts, repeated vertex, repeated edge, vertex
    range, then the first edge out of range or missing a flanking vertex."""
    if len(vs) != len(es) + 1:
        raise SearchError(f"path has {len(vs)} vertices for {len(es)} edges")
    n, edges = hg.n, hg.edges
    m = len(edges)
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
    if fault is not None:
        raise SearchError(fault)
    return vmask, emask


def validate_cycle(hg: Hypergraph, cycle: BergeCycle) -> None:
    """The open path v0 ... v(k-1), then its closing edge, by ``_validate_seq``."""
    vs, es = cycle.vertices, cycle.edges
    if len(vs) != len(es) or len(vs) < 2:
        raise SearchError(f"cycle needs k >= 2 vertices and k edges, got {len(vs)}/{len(es)}")
    _validate_seq(hg, vs, es[:-1])
    _validate_seq(hg, (vs[-1], vs[0]), es[-1:])
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


@dataclass(frozen=True)
class Analysis:
    """Per-instance values of one hypergraph, each computed once, on first use."""

    hg: Hypergraph

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Bitmask over edge indices of the edges holding each vertex."""
        inc = [0] * self.hg.n
        for i, e in enumerate(self.hg.edges):
            while e:
                low = e & -e
                inc[low.bit_length() - 1] |= 1 << i
                e ^= low
        return tuple(inc)

    @cached_property
    def components(self) -> tuple[int, ...]:
        """The vertex mask of each connected component, by least vertex."""
        return component_masks(self.hg)

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
    def p_values(self) -> tuple[int, ...]:
        """p(e) for every edge; p never exceeds k.

        Edges are taken in index order over a cover, the length-k paths
        found so far, seeded with the path found for k. An edge of the
        cover has p = k with no search, and so has an edge holding both
        vertices of a segment a search handed back. Any other edge runs
        the anchored search with cap k, and when that reaches k, its path
        and segments join the cover.
        """
        k, cover, segments = self._k_path
        segments = list(segments)
        out = []
        for i, e in enumerate(self.hg.edges):
            if cover >> i & 1 or any(e & q == q for q in segments):
                out.append(k)
                continue
            p, path = _max_len(self, required_edge=i, stop_at=k, segments=segments)
            if p == k:
                cover |= path
            out.append(p)
        return tuple(out)

    @cached_property
    def max_p_mask(self) -> int:
        """Bitmask over edge indices with p(e) = k."""
        return sum(1 << i for i, p in enumerate(self.p_values) if p == self.k)


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

    No path is longer than min(m - excluded, n - 1). ``excluded_edges``
    masks out edge indices entirely, letting callers search
    sub-hypergraphs in place.
    """
    n = a.hg.n
    cap = min(a.hg.num_edges - excluded_edges.bit_count(), n - 1)
    if stop_at is not None:
        cap = min(cap, stop_at)
    if cap <= 0:
        return 0, 0
    inc, edges = a.incidence, a.hg.edges
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
    """Maximum Berge path length subject to an optional query.

    Returns 0 when no qualifying path with at least one edge exists (a
    single vertex is a length-0 path).
    """
    a = analyze(hg)
    if query is None:
        return a.k
    if query.required_edge is not None and not 0 <= query.required_edge < a.hg.num_edges:
        raise SearchError(f"edge index {query.required_edge} out of range")
    return _max_len(a, required_edge=query.required_edge, stop_at=query.target_length)[0]


def p_edge(hg: Hypergraph | Analysis, edge: int) -> int:
    """Maximum length of a Berge path whose defining edges include ``edge``."""
    a = analyze(hg)
    if not 0 <= edge < a.hg.num_edges:
        raise SearchError(f"edge index {edge} out of range")
    return _max_len(a, required_edge=edge, stop_at=a.k)[0]


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
    if min(a.hg.num_edges, a.hg.n - 1) < length:
        return iter(())
    inc, edges = a.incidence, a.hg.edges
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


def _matchable(cands: list[int], taken: int) -> bool:
    """True when every edge mask in ``cands`` can give its own edge outside
    ``taken`` (a system of distinct representatives), by Kuhn's
    augmenting paths."""
    owner: dict[int, int] = {}  # edge bit -> index of the mask holding it
    seen = taken

    def augment(j: int) -> bool:
        nonlocal seen
        while free := cands[j] & ~seen:
            bit = free & -free
            seen |= bit
            if bit not in owner or augment(owner[bit]):
                owner[bit] = j
                return True
        return False

    for j in range(len(cands)):
        seen = taken
        if not augment(j):
            return False
    return True


def _least_seq(
    a: Analysis, length: int, cycle: bool
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The lexicographically least (vertex sequence, edge sequence) of a
    Berge path with ``length`` edges, or of a Berge cycle of ``length``
    when ``cycle`` is set; None when there is none.

    Vertex sequences are tried in lexicographic order, and a prefix
    survives only while its consecutive pairs can take distinct edges
    (Hall's condition, checked by ``_matchable``), so the first complete
    sequence is the least. Each pair then takes its least edge that
    leaves the later pairs matchable. A least cycle starts at its minimum
    vertex, so the other vertices of a cycle exceed the first.
    """
    n = a.hg.n
    inc = a.incidence
    seq: list[int] = []
    cands: list[int] = []  # cands[j]: the edges holding seq[j] and seq[j + 1]
    open_pairs = length - 1 if cycle else length

    def extend() -> bool:
        v = seq[-1]
        if len(cands) == open_pairs:
            return not cycle or _matchable(cands + [inc[v] & inc[seq[0]]], 0)
        for u in range(seq[0] + 1 if cycle else 0, n):
            c = inc[v] & inc[u]
            if not c or u in seq:
                continue
            cands.append(c)
            if _matchable(cands, 0):
                seq.append(u)
                if extend():
                    return True
                seq.pop()
            cands.pop()
        return False

    for s in range(n):
        seq[:] = [s]
        if extend():
            break
    else:
        return None
    if cycle:
        cands.append(inc[seq[-1]] & inc[seq[0]])
    es, taken = [], 0
    for j, c in enumerate(cands):
        i = next(i for i in bits(c & ~taken) if _matchable(cands[j + 1 :], taken | 1 << i))
        taken |= 1 << i
        es.append(i)
    return tuple(seq), tuple(es)


def longest_berge_path(hg: Hypergraph | Analysis) -> tuple[int, BergePath]:
    """Length of the longest Berge path plus one deterministic witness.

    Among maximum-length paths the lexicographically least witness is
    returned, ordered by vertex sequence then edge-index sequence.
    Raises for a hypergraph with no vertices, which has no paths at all.
    """
    a = analyze(hg)
    if a.hg.n == 0:
        raise SearchError("hypergraph has no vertices, hence no paths")
    witness = BergePath(*_least_seq(a, a.k, cycle=False))
    if __debug__:
        validate_path(a.hg, witness)
    return a.k, witness


def find_berge_cycle(hg: Hypergraph | Analysis, length: int) -> BergeCycle | None:
    """A Berge cycle of exactly ``length``, or None.

    Witness selection matches longest_berge_path: lexicographically least
    (vertex sequence, edge sequence) over all rotations and reflections.
    """
    if length < 2:
        raise SearchError(f"cycle length {length} < 2")
    a = analyze(hg)
    if length > a.hg.num_edges or length > a.hg.n:
        return None
    best = _least_seq(a, length, cycle=True)
    if best is None:
        return None
    cycle = BergeCycle(*best)
    if __debug__:
        validate_cycle(a.hg, cycle)
    return cycle

