"""Uniform hypergraphs over bitmask vertex sets.

Vertices are 0-based ids below a hard cap of 64 so that every vertex set
fits in a single machine word. Edges are stored as sorted bitmask values,
which fixes a canonical order used for deterministic reports everywhere
downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

MAX_VERTICES = 64

# Caps on the C(n, r) edge slots that an exhaustive sweep or turan_exact walks
# subsets of; the lower one is for sweeps running good-set or rotation checks.
MAX_EDGE_SLOTS = 30
MAX_SEARCH_EDGE_SLOTS = 20


class HypergraphError(ValueError):
    """Malformed hypergraph data or an operation precondition violation."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bitmask of an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertices 0..n-1.

    ``edges`` holds one bitmask per edge, strictly increasing (canonical
    storage order). Construction validates all invariants; use
    :func:`from_edge_lists` or :func:`from_masks` to build from unsorted
    input.
    """

    n: int
    r: int
    edges: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise HypergraphError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if self.r < 2:
            raise HypergraphError(f"uniformity {self.r} < 2")
        full = (1 << self.n) - 1
        prev = -1
        for e in self.edges:
            if e <= prev:
                raise HypergraphError("edges not in strictly increasing bitmask order")
            if e & ~full:
                raise HypergraphError(f"edge {e:#x} uses vertices >= n={self.n}")
            if e.bit_count() != self.r:
                raise HypergraphError(
                    f"edge {sorted(bits(e))} has {e.bit_count()} vertices, expected {self.r}"
                )
            prev = e

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def from_masks(n: int, r: int, masks) -> Hypergraph:
    """Build a hypergraph from edge bitmasks in any order, rejecting duplicates."""
    edges = sorted(masks)
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise HypergraphError(f"duplicate edge {sorted(bits(a))}")
    return Hypergraph(n, r, tuple(edges))


def from_edge_lists(n: int, r: int, edge_lists) -> Hypergraph:
    """Build a hypergraph from edges given as vertex-id iterables."""
    masks = []
    for verts in edge_lists:
        verts = list(verts)
        m = 0
        for v in verts:
            if not 0 <= v < n:
                raise HypergraphError(f"vertex id {v} outside 0..{n - 1}")
            if m >> v & 1:
                raise HypergraphError(f"duplicate vertex {v} within edge {verts}")
            m |= 1 << v
        if len(verts) != r:
            raise HypergraphError(f"edge {verts} has {len(verts)} vertices, expected {r}")
        masks.append(m)
    return from_masks(n, r, masks)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the line-oriented ``.hg`` format.

    Line 1 is ``"n r"``; each following non-empty line gives one edge as r
    space-separated vertex ids. Lines starting with ``#`` are comments.
    Edges are re-sorted into canonical order; input order is not kept.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise HypergraphError("empty input, expected a 'n r' header line")
    header = lines[0].split()
    if len(header) != 2:
        raise HypergraphError(f"malformed header {lines[0]!r}, expected 'n r'")
    try:
        n, r = int(header[0]), int(header[1])
    except ValueError:
        raise HypergraphError(f"malformed header {lines[0]!r}, expected two integers") from None
    edge_lists = []
    for ln in lines[1:]:
        try:
            edge_lists.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise HypergraphError(f"malformed edge line {ln!r}") from None
    return from_edge_lists(n, r, edge_lists)


def serialize_hypergraph(hg: Hypergraph) -> str:
    """Canonical ``.hg`` text: header plus one sorted vertex list per edge, LF endings."""
    out = [f"{hg.n} {hg.r}"]
    for e in hg.edges:
        out.append(" ".join(str(v) for v in bits(e)))
    return "\n".join(out) + "\n"


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def neighborhood(hg: Hypergraph, edge_refs, vertex_set: int) -> frozenset[int]:
    """Edge indices among ``edge_refs`` whose edge meets ``vertex_set``.

    ``edge_refs`` may be None for all edges. Empty vertex sets give the
    empty result; the operation distributes over unions of vertex sets.
    """
    if vertex_set & ~hg.vertex_mask:
        raise HypergraphError("vertex set contains ids >= n")
    refs = range(hg.num_edges) if edge_refs is None else edge_refs
    return frozenset(i for i in refs if hg.edges[i] & vertex_set)


def delete_vertices(hg: Hypergraph, vertex_set: int) -> tuple[Hypergraph, dict[int, int]]:
    """Remove ``vertex_set`` and every edge meeting it.

    Remaining vertices are relabeled to 0..n-|S|-1 preserving order; the
    old-to-new map is returned alongside. Together with
    :func:`neighborhood`, the kept and dropped edges partition E(H).
    """
    if vertex_set & ~hg.vertex_mask:
        raise HypergraphError("vertex set contains ids >= n")
    relabel = {}
    new_id = 0
    for v in range(hg.n):
        if not vertex_set >> v & 1:
            relabel[v] = new_id
            new_id += 1
    masks = [
        mask_of(relabel[v] for v in bits(e)) for e in hg.edges if not e & vertex_set
    ]
    return from_masks(new_id, hg.r, masks), relabel


def components(hg: Hypergraph) -> list[tuple[Hypergraph, dict[int, int]]]:
    """Connected components with their old-to-new vertex maps.

    Two vertices are in one component when a chain of pairwise-meeting
    edges joins them; this coincides with reachability by Berge paths.
    Isolated vertices form their own edgeless components.
    """
    parent = list(range(hg.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in hg.edges:
        vs = list(bits(e))
        root = find(vs[0])
        for v in vs[1:]:
            parent[find(v)] = root

    groups: dict[int, list[int]] = {}
    for v in range(hg.n):
        groups.setdefault(find(v), []).append(v)

    out = []
    for verts in sorted(groups.values()):
        relabel = {v: i for i, v in enumerate(verts)}
        group_mask = mask_of(verts)
        masks = [
            mask_of(relabel[v] for v in bits(e)) for e in hg.edges if e & group_mask == e
        ]
        out.append((from_masks(len(verts), hg.r, masks), relabel))
    return out


def is_connected(hg: Hypergraph) -> bool:
    """True when a single component contains all n vertices."""
    return hg.n <= 1 or len(components(hg)) == 1


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    """All C(n, r) possible edges."""
    if n < r:
        raise HypergraphError(f"complete hypergraph needs n >= r, got n={n}, r={r}")
    return from_masks(n, r, (mask_of(c) for c in itertools.combinations(range(n), r)))


def possible_edges(n: int, r: int) -> tuple[int, ...]:
    """All r-subset bitmasks on n vertices in increasing order."""
    return tuple(sorted(mask_of(c) for c in itertools.combinations(range(n), r)))


def hypergraph_from_subset(n: int, r: int, slots: tuple[int, ...], subset_mask: int) -> Hypergraph:
    """The hypergraph whose edges are the ``slots`` entries selected by ``subset_mask``."""
    return Hypergraph(n, r, tuple(slots[i] for i in bits(subset_mask)))

