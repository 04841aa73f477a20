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


def induced(hg: Hypergraph, keep: int) -> tuple[Hypergraph, dict[int, int]]:
    """The edges inside ``keep`` on its vertices relabelled 0..|keep|-1 in
    order, and the old-to-new map. H - S is ``induced(hg, hg.vertex_mask & ~S)``;
    a component is ``induced(hg, mask)`` for a mask of :func:`component_masks`."""
    if keep & ~hg.vertex_mask:
        raise HypergraphError("vertex set contains ids >= n")
    relabel = {v: i for i, v in enumerate(bits(keep))}
    masks = [mask_of(relabel[v] for v in bits(e)) for e in hg.edges if e & keep == e]
    return from_masks(len(relabel), hg.r, masks), relabel


def incidence_masks(hg: Hypergraph) -> list[int]:
    """Bitmask over edge indices of the edges holding each vertex."""
    inc = [0] * hg.n
    for i, e in enumerate(hg.edges):
        while e:
            low = e & -e
            inc[low.bit_length() - 1] |= 1 << i
            e ^= low
    return inc


def component_masks(hg: Hypergraph, incidence=None) -> tuple[int, ...]:
    """The vertex mask of each connected component, ordered by least vertex,
    by a flood over ``incidence`` (default: every edge's). A chain of
    pairwise-meeting edges, or a Berge path, joins any two vertices of one
    component; an isolated vertex is a component of its own."""
    inc, edges = incidence_masks(hg) if incidence is None else incidence, hg.edges
    groups, rest = [], hg.vertex_mask
    while rest:
        group = new = rest & -rest  # flood from the least vertex left
        while new:
            es = 0
            while new:
                low = new & -new
                es |= inc[low.bit_length() - 1]
                new ^= low
            while es:
                low = es & -es
                new |= edges[low.bit_length() - 1]
                es ^= low
            new &= ~group
            group |= new
        groups.append(group)
        rest &= ~group
    return tuple(groups)


def is_connected(hg: Hypergraph) -> bool:
    """True when a single component contains all n vertices."""
    return len(component_masks(hg)) <= 1


def possible_edges(n: int, r: int) -> tuple[int, ...]:
    """All r-subset bitmasks on n vertices in increasing order; n is checked first."""
    if not 0 <= n <= MAX_VERTICES:
        raise HypergraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    return tuple(sorted(mask_of(c) for c in itertools.combinations(range(n), r)))


def hypergraph_from_subset(n: int, r: int, slots: tuple[int, ...], subset_mask: int) -> Hypergraph:
    """The hypergraph whose edges are the ``slots`` entries selected by ``subset_mask``."""
    return Hypergraph(n, r, tuple(slots[i] for i in bits(subset_mask)))

