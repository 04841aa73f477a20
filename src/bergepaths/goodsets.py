"""Good sets and the path-rotation closure.

A nonempty vertex set S is good when every edge meeting S lies on some
maximum-length Berge path (p(e) = k for all e in N(S)) and
|N(S)| <= f_r(k) |S|. Good sets are what make the weight-sum induction
go through: deleting one costs at most |S| of the bound. The sweeps
certify three structural claims through ``check_*`` functions, each
returning the detail of a violation or None. They find a good set as
the paper does, from a longest path: V(H), or a rotation terminal set;
no code scans the 2^n vertex subsets.

The rotation closure realizes the constructive core of the terminal-set
argument: starting from a path P with a pinned terminal v0, repeatedly
rearrange the same defining vertices and edges to expose new far
terminals, until no segment of P both avoids the terminal set and meets
it through its edge. At that fixpoint the edges of P meeting the
terminal set tau number at most 2|tau| - 1.

One private core, ``_close``, computes that fixpoint on plain sequences
of vertices and slot indices, with no object per path, always pinned at
the path's first vertex; it validates the base path once, and every
rotated witness under ``__debug__``. ``rotation_closure`` wraps one given
path (``hg rotate``), ``check_rotation_bound`` closes the walker's reused
lists, and ``_good_terminal_sets`` keeps the terminal sets for the route
that ``find_good_set`` and ``check_good_set_existence`` share. A
certificate's ``NS`` and a violation detail name edges in rank order.

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

from .hypergraph import Hypergraph, bits
from .search import (
    Analysis,
    BergePath,
    SearchError,
    _cycle_mask,
    _validate_seq,
    _walk,
    analyze,
)
from .weights import _f_parts


class GoodSetError(ValueError):
    pass


@dataclass(frozen=True)
class GoodSetCertificate:
    """A verified good set: S, the edges N(S) meeting it in rank order, and the exact bound."""

    S: int
    k: int
    NS: tuple[int, ...]
    bound: Fraction

    @property
    def size(self) -> int:
        return self.S.bit_count()


def _check_domain(a: Analysis) -> None:
    """Reject what good sets are undefined on: r < 3, then no edges."""
    if a.r < 3:
        raise GoodSetError(f"good sets need r >= 3, got r={a.r}")
    if a.m == 0:
        raise GoodSetError("good sets are undefined on edgeless hypergraphs")


def is_good_set(hg: Hypergraph | Analysis, vertex_set: int) -> GoodSetCertificate | None:
    """Certificate if ``vertex_set`` is good in ``hg``, else None.

    Requires r >= 3 and at least one edge (so the longest-path length k
    is at least 1). The empty set is rejected outright.
    """
    a = analyze(hg)
    _check_domain(a)
    if vertex_set == 0:
        raise GoodSetError("the empty set is never good")
    if vertex_set >> a.n:
        raise GoodSetError("vertex set contains ids >= n")
    k = a.k
    inc = a.incidence
    ns = 0
    for v in bits(vertex_set):
        ns |= inc[v]
    if ns & ~a.max_p_mask:
        return None
    num, den = _f_parts(a.r, k)
    if ns.bit_count() * den > num * vertex_set.bit_count():
        return None
    bound = Fraction(num * vertex_set.bit_count(), den)
    return GoodSetCertificate(S=vertex_set, k=k, NS=a.ranks(bits(ns)), bound=bound)


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


def _close(a: Analysis, vs, es) -> tuple[int, dict, int]:
    """The fixpoint of :func:`rotation_closure` for the path ``vs``/``es``
    of slot indices pinned at ``vs[0]``, on plain sequences.

    Returns (terminal mask, far terminal -> (vertices, edges) witness,
    number of the path's edges meeting the terminal set). ``vs`` and
    ``es`` may be tuples or lists; the witnesses are slices of the same
    type, and the base path itself is the witness of ``vs[-1]``. The
    base path is validated first.
    """
    masks = _validate_seq(a, vs, es)
    edges = a.slots
    length = len(es)
    terminals = 1 << vs[-1]
    witnesses = {vs[-1]: (vs, es)}
    j = 0
    while j < length:
        u, w = vs[j], vs[j + 1]
        hit = edges[es[j]] & terminals
        if not hit or (terminals >> u | terminals >> w) & 1:
            j += 1
            continue
        qv, qe = witnesses[(hit & -hit).bit_length() - 1]
        pos = qe.index(es[j])
        x, y = qv[pos], qv[pos + 1]
        if (1 << x | 1 << y) != (1 << u | 1 << w):
            raise AssertionError("rotation invariant broken: segment drifted off its edge")
        # qe[pos] is e_j: keep both prefixes through pos, reverse the tails
        nv = qv[: pos + 1] + qv[:pos:-1]
        ne = qe[: pos + 1] + qe[:pos:-1]
        assert _validate_seq(a, nv, ne) == masks and nv[0] == vs[0]
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
    for s in range(a.n):
        for vs, es in _walk(a, s, a.k):
            terminals, _, lhs = _close(a, vs, es)
            yield vs, es, terminals, lhs


def _good_terminal_sets(a: Analysis) -> Iterator[GoodSetCertificate]:
    """Certificates of the distinct good terminal sets of ``_closures``, in walk order."""
    seen = set()
    for _, _, tau, _ in _closures(a):
        if tau not in seen:
            seen.add(tau)
            cert = is_good_set(a, tau)
            if cert is not None:
                yield cert


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
    terminals, witnesses, lhs = _close(analyze(hg), path.vertices, path.edges)
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
    |N_E(P)(tau)| <= 2|tau| - 1, with its edges in rank order, or None. A
    group closes alike, so its first path is the first of it to break the
    bound."""
    a = analyze(hg)
    for vs, es, terminals, lhs in _closures(a):
        rhs = 2 * terminals.bit_count() - 1
        if lhs > rhs:
            return f"path {tuple(vs)}/{a.ranks(es)}: |N_E(P)(tau)|={lhs} > 2|tau|-1={rhs}"
    return None


def find_good_set(hg: Hypergraph | Analysis) -> GoodSetCertificate:
    """A good set of a connected hypergraph with r >= 3 and an edge, by
    the route ``check_good_set_existence`` certifies; no subset scan runs.

    The route: the whole vertex set when k = 1 (connected, that is one
    edge on n = r vertices) or a (k+1)-cycle exists; else the first set
    of ``_good_terminal_sets``, in walk order; else V(H) if it is good.

    In every sweep measured, that last step runs only where the longest
    path uses all m = k <= r edges, and there V(H) is good: every
    p(e) = k, and m = k <= f_r(k) n, as f_r(k) = k/(r+1) and n >= r + 1
    for 2 <= k <= r - 1, and f_r(r) = 1 and n >= r. A route that finds
    nothing raises GoodSetError.
    """
    a = analyze(hg)
    _check_domain(a)
    if not a.connected:
        raise GoodSetError("find_good_set expects a connected hypergraph; split into components first")
    whole = (1 << a.n) - 1
    if a.k == 1 or _cycle_mask(a, a.k + 1):
        cert = is_good_set(a, whole)
        assert cert is not None, "a lone edge or a spanning (k+1)-cycle makes V(H) good"
        return cert
    cert = next(_good_terminal_sets(a), None) or is_good_set(a, whole)
    if cert is None:
        raise GoodSetError("no good set: V(H) is not good and no rotation terminal set is")
    return cert


def check_good_set_existence(hg: Hypergraph | Analysis) -> str | None:
    """A connected hypergraph with an edge has a good set, and one other
    than V(H) when k > r, unless n = k + 1: the detail of a failure, or
    None; a disconnected one is refused. No subset scan runs. Where only
    existence is asked (k <= r or n = k + 1), a good V(H), every edge at
    p = k and m <= f_r(k) n read from masks, settles it. Otherwise the
    first set of ``_good_terminal_sets`` does: a terminal set never holds
    the path's first vertex, so it is a good set other than V(H)."""
    a = analyze(hg)
    _check_domain(a)
    if not a.connected:
        raise GoodSetError("good-set existence applies to connected hypergraphs")
    n, r, k, m = a.n, a.r, a.k, a.m
    num, den = _f_parts(r, k)
    exists_only = k <= r or n == k + 1
    if exists_only and a.max_p_mask == a.present and m * den <= num * n:
        return None
    if next(_good_terminal_sets(a), None) is not None:
        return None
    if exists_only:
        return "no good set: V(H) is not good and no rotation terminal set is"
    return f"k={k} > r, n != k+1, and no rotation terminal set is good"


def check_spanning_cycle_property(hg: Hypergraph | Analysis) -> str | None:
    """A (k+1)-cycle of a connected hypergraph spans V(H) and forces
    p(e) = k on every edge: the detail of a cycle that breaks either, or
    None, also when there is no such cycle. A failure would indicate a
    search bug, not a mathematical gap."""
    a = analyze(hg)
    if not a.connected:
        raise GoodSetError("spanning-cycle property applies to connected hypergraphs")
    cycle = _cycle_mask(a, a.k + 1) if a.k else 0
    if not cycle:
        return None
    spans = cycle == (1 << a.n) - 1
    all_max = a.max_p_mask == a.present
    if spans and all_max:
        return None
    return f"cycle {tuple(bits(cycle))} spans={spans} all_p_equal_k={all_max}"
