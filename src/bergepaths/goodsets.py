"""Good sets and the path-rotation closure.

A nonempty vertex set S is good when every edge meeting S lies on some
maximum-length Berge path (p(e) = k for all e in N(S)) and
|N(S)| <= f_r(k) |S|. Good sets are what make the weight-sum induction
go through: deleting one costs at most |S| of the bound. The subset scan
reads each N(S) from two incidence tables, one per half of the vertices.

The rotation closure realizes the constructive core of the terminal-set
argument: starting from a path P with a pinned terminal v0, repeatedly
rearrange the same defining vertices and edges to expose new far
terminals, until no segment of P both avoids the terminal set and meets
it through its edge. At that fixpoint the edges of P meeting the
terminal set tau number at most 2|tau| - 1.

The sweeps certify three structural claims through ``check_*``
functions, each returning the detail of a violation or None.

One private core, ``_close``, computes that fixpoint on plain vertex and
edge sequences and bitmasks, with no object per path, always pinned at
the path's first vertex. Three callers read from it:
``rotation_closure`` wraps one given path into a ``RotationFamily``
with ``BergePath`` witnesses (``hg rotate``); ``find_good_set``'s
rotation route takes only the terminal sets; and
``check_rotation_bound`` closes longest paths straight from the
walker's reused lists, building a path tuple only for a violation.
Every closed base path is validated, once, by ``_close``; under
``__debug__`` so is every rotated witness.

The closure never reads a path's last edge e_k. The terminal set starts
as {v_k} and only grows, so the last segment always has a flank in it:
it is never repaired, and e_k always counts once in |N_E(P)(tau)|. A
repair at an earlier segment looks up that segment's own edge in a
witness, and every rotation keeps the segment {v_(k-1), v_k} on e_k.
So longest paths that differ only in e_k reach the same terminal set
and count, with the same witnesses up to the label of e_k, and each
such e_k holds v_(k-1) and v_k. ``search._walk`` yields one path of
each such group, its first in walk order, and ``_closures`` closes it;
the first violating path in walk order is always such a representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .hypergraph import Hypergraph, bits, mask_of
from .search import (
    Analysis,
    BergePath,
    SearchError,
    _validate_seq,
    _walk,
    analyze,
    find_berge_cycle,
)
from .weights import _f_parts

MAX_SCAN_VERTICES = 20  # a subset scan visits all 2^n vertex sets


class GoodSetError(ValueError):
    pass


@dataclass(frozen=True)
class GoodSetCertificate:
    """A verified good set: S, its edge neighborhood, and the exact bound."""

    S: int
    k: int
    NS: tuple[int, ...]
    bound: Fraction

    @property
    def size(self) -> int:
        return self.S.bit_count()


def _check_domain(hg: Hypergraph) -> None:
    """Reject what good sets are undefined on: r < 3, then no edges."""
    if hg.r < 3:
        raise GoodSetError(f"good sets need r >= 3, got r={hg.r}")
    if hg.num_edges == 0:
        raise GoodSetError("good sets are undefined on edgeless hypergraphs")


def is_good_set(hg: Hypergraph | Analysis, vertex_set: int) -> GoodSetCertificate | None:
    """Certificate if ``vertex_set`` is good in ``hg``, else None.

    Requires r >= 3 and at least one edge (so the longest-path length k
    is at least 1). The empty set is rejected outright.
    """
    a = analyze(hg)
    hg = a.hg
    _check_domain(hg)
    if vertex_set == 0:
        raise GoodSetError("the empty set is never good")
    if vertex_set & ~hg.vertex_mask:
        raise GoodSetError("vertex set contains ids >= n")
    k = a.k
    inc = a.incidence
    ns = 0
    for v in bits(vertex_set):
        ns |= inc[v]
    if ns & ~a.max_p_mask:
        return None
    num, den = _f_parts(hg.r, k)
    if ns.bit_count() * den > num * vertex_set.bit_count():
        return None
    return _certificate(vertex_set, k, ns, num, den)


def _certificate(s: int, k: int, ns: int, num: int, den: int) -> GoodSetCertificate:
    bound = Fraction(num * s.bit_count(), den)
    return GoodSetCertificate(S=s, k=k, NS=tuple(bits(ns)), bound=bound)


def _good_masks(a: Analysis) -> Iterator[tuple[int, int]]:
    """(S, N(S)) of every good set in increasing bitmask order, as masks.

    Refuses n > MAX_SCAN_VERTICES, then r < 3, then no edges, at the call;
    the scan itself is lazy. It reads N(S) = hi[S >> h] | lo[S & low mask]
    from two tables, the edges at each subset of the low h = n // 2
    vertices and of the high n - h, and keeps a set that passes both tests
    of ``is_good_set``: no edge of N(S) has p < k, and |N(S)| <= f_r(k) |S|.
    """
    hg = a.hg
    if hg.n > MAX_SCAN_VERTICES:
        raise GoodSetError(f"subset scan over 2^{hg.n} sets refused (n > {MAX_SCAN_VERTICES})")
    _check_domain(hg)

    def scan() -> Iterator[tuple[int, int]]:
        h, below_k = hg.n // 2, ~a.max_p_mask
        lo, hi = [0], [0]
        for v, inc in enumerate(a.incidence):
            table = lo if v < h else hi
            table += [t | inc for t in table]
        low = (1 << h) - 1
        num, den = _f_parts(hg.r, a.k)
        for s in range(1, 1 << hg.n):
            ns = hi[s >> h] | lo[s & low]
            if not ns & below_k and ns.bit_count() * den <= num * s.bit_count():
                yield s, ns

    return scan()


def check_good_set_existence(hg: Hypergraph | Analysis) -> str | None:
    """A connected hypergraph with an edge has a good set, and one other
    than V(H) when k > r, unless n = k + 1: the detail of a failure read
    from the first set of the subset scan, or None."""
    a = analyze(hg)
    first = next(_good_masks(a), None)
    if first is None:
        return "no good set exists"
    n, r, k = a.hg.n, a.hg.r, a.k
    if k > r and first[0] == a.hg.vertex_mask and n != k + 1:
        return f"k={k} > r but the only good set is V(H) and n != k+1"
    return None


def enumerate_good_sets(hg: Hypergraph | Analysis) -> Iterator[GoodSetCertificate]:
    """All good sets in increasing bitmask order by full subset scan: a
    certificate for each set ``_good_masks`` yields, refused at the call
    as it refuses."""
    a = analyze(hg)
    masks = _good_masks(a)
    return (_certificate(s, a.k, ns, *_f_parts(a.hg.r, a.k)) for s, ns in masks)


@dataclass(frozen=True)
class RotationFamily:
    """Terminal set reached by rotations of one base path, with witnesses.

    Every witness uses exactly the defining vertices and edges of
    ``base`` and starts at its first vertex, the pinned end;
    ``witnesses`` maps each reachable far terminal to one realizing
    path. ``bound_lhs`` is the number of base-path edges meeting the
    terminal set and is at most ``bound_rhs`` = 2 |terminals| - 1.
    """

    base: BergePath
    terminals: int
    witnesses: dict[int, BergePath]
    bound_lhs: int
    bound_rhs: int


def _close(hg: Hypergraph, vs, es) -> tuple[int, dict, int]:
    """The fixpoint of :func:`rotation_closure` for the path ``vs``/``es``
    pinned at ``vs[0]``, on plain sequences.

    Returns (terminal mask, far terminal -> (vertices, edges) witness,
    number of the path's edges meeting the terminal set). ``vs`` and
    ``es`` may be tuples or lists; the witnesses are slices of the same
    type, and the base path itself is the witness of ``vs[-1]``. The
    base path is validated first.
    """
    masks = _validate_seq(hg, vs, es)
    edges = hg.edges
    length = len(es)
    terminals = 1 << vs[-1]
    witnesses = {vs[-1]: (vs, es)}
    j = 0
    while j < length:
        a, b = vs[j], vs[j + 1]
        hit = edges[es[j]] & terminals
        if not hit or (terminals >> a | terminals >> b) & 1:
            j += 1
            continue
        qv, qe = witnesses[(hit & -hit).bit_length() - 1]
        pos = qe.index(es[j])
        x, y = qv[pos], qv[pos + 1]
        if (1 << x | 1 << y) != (1 << a | 1 << b):
            raise AssertionError("rotation invariant broken: segment drifted off its edge")
        # qe[pos] is e_j: keep both prefixes through pos, reverse the tails
        nv = qv[: pos + 1] + qv[:pos:-1]
        ne = qe[: pos + 1] + qe[:pos:-1]
        assert _validate_seq(hg, nv, ne) == masks and nv[0] == vs[0]
        witnesses[y] = (nv, ne)
        terminals |= 1 << y
        j = 0
    lhs = 0
    for e in es:
        if edges[e] & terminals:
            lhs += 1
    return terminals, witnesses, lhs


def _closures(a: Analysis) -> Iterator[tuple[list[int], list[int], int, int]]:
    """(vertices, edges, terminals, lhs) of ``_close`` for each longest
    path that ``_walk`` yields, the first in walk order of each group that
    differs only in its last edge; the rest of a group close alike. The
    two lists are the walk's own, reused from one path to the next."""
    hg = a.hg
    for s in range(hg.n):
        for vs, es in _walk(a, s, a.k):
            terminals, _, lhs = _close(hg, vs, es)
            yield vs, es, terminals, lhs


def rotation_closure(hg: Hypergraph, path: BergePath) -> RotationFamily:
    """Grow the terminal set of ``path``, pinned at its first vertex, to
    its rotation fixpoint.

    Repair step: take the lowest segment index j whose flanking vertices
    v_{j-1}, v_j both lie outside the current terminal set but whose edge
    e_j contains a terminal t; split t's witness at that segment and
    reattach the tail reversed through e_j, which makes the inner
    flanking vertex a new terminal. Violations are processed in
    increasing (segment index, terminal id) order for determinism;
    terminals grow strictly, so this stops after at most length(P) steps.
    The path is validated first; then a path with no edges is refused,
    as its pinned end would be its own far terminal.
    """
    terminals, witnesses, lhs = _close(hg, path.vertices, path.edges)
    if not path.edges:
        raise SearchError("a path with no edges has nothing to rotate")
    return RotationFamily(
        base=path,
        terminals=terminals,
        witnesses={t: BergePath(vs, es) for t, (vs, es) in witnesses.items()},
        bound_lhs=lhs,
        bound_rhs=2 * terminals.bit_count() - 1,
    )


def check_rotation_bound(hg: Hypergraph | Analysis) -> str | None:
    """Close the longest paths at their first vertex, by ``_closures``; the
    detail of the first path in walk order whose closure breaks
    |N_E(P)(tau)| <= 2|tau| - 1, or None. A group closes alike, so its
    first path is the first of it to break the bound."""
    for vs, es, terminals, lhs in _closures(analyze(hg)):
        rhs = 2 * terminals.bit_count() - 1
        if lhs > rhs:
            return f"path {tuple(vs)}/{tuple(es)}: |N_E(P)(tau)|={lhs} > 2|tau|-1={rhs}"
    return None


def find_good_set(hg: Hypergraph | Analysis) -> GoodSetCertificate:
    """A good set of a connected hypergraph with r >= 3 and an edge.

    Attempts, in order: the whole vertex set when k = 1 (connected, that
    is one edge on n = r vertices) or a (k+1)-cycle exists;
    rotation-closure terminal sets over maximum-length paths, preferring
    the smallest accepted set (ties by bitmask); an exhaustive subset
    scan as a last resort.

    In every sweep measured, the scan runs only where the longest path
    uses all m = k <= r edges, and there V(H) is good too: every
    p(e) = k, and m = k <= f_r(k) n, as f_r(k) = k/(r+1) and n >= r + 1
    for 2 <= k <= r - 1, and f_r(r) = 1 and n >= r. The scan still
    returns its first good set, which need not be V(H).
    """
    a = analyze(hg)
    hg = a.hg
    _check_domain(hg)
    if not a.connected:
        raise GoodSetError("find_good_set expects a connected hypergraph; split into components first")

    k = a.k
    if k == 1 or find_berge_cycle(a, k + 1) is not None:
        cert = is_good_set(a, hg.vertex_mask)
        assert cert is not None, "a lone edge or a spanning (k+1)-cycle makes V(H) good"
        return cert

    candidates = []
    seen = set()
    for _, _, tau, _ in _closures(a):
        if tau in seen:
            continue
        seen.add(tau)
        cert = is_good_set(a, tau)
        if cert is not None:
            candidates.append(cert)
    if candidates:
        return min(candidates, key=lambda c: (c.size, c.S))

    for cert in enumerate_good_sets(a):
        return cert
    raise AssertionError("no good set found; contradicts the existence theorems")


def check_spanning_cycle_property(hg: Hypergraph | Analysis) -> str | None:
    """A (k+1)-cycle of a connected hypergraph spans V(H) and forces
    p(e) = k on every edge: the detail of a cycle that breaks either, or
    None, also when there is no such cycle. A failure would indicate a
    search bug, not a mathematical gap."""
    a = analyze(hg)
    if not a.connected:
        raise GoodSetError("spanning-cycle property applies to connected hypergraphs")
    cycle = find_berge_cycle(a, a.k + 1) if a.k else None
    if cycle is None:
        return None
    spans = mask_of(cycle.vertices) == a.hg.vertex_mask
    all_max = a.max_p_mask == (1 << a.hg.num_edges) - 1
    if spans and all_max:
        return None
    return f"cycle {cycle.vertices} spans={spans} all_p_equal_k={all_max}"
