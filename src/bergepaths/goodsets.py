"""Good sets and the path-rotation closure.

A nonempty vertex set S is good when every edge meeting S lies on some
maximum-length Berge path (p(e) = k for all e in N(S)) and
|N(S)| <= f_r(k) |S|. Good sets are what make the weight-sum induction
go through: deleting one costs at most |S| of the bound.

The rotation closure realizes the constructive core of the terminal-set
argument: starting from a path P with a pinned terminal v0, repeatedly
rearrange the same defining vertices and edges to expose new far
terminals, until no segment of P both avoids the terminal set and meets
it through its edge. At that fixpoint the edges of P meeting the
terminal set tau number at most 2|tau| - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .hypergraph import Hypergraph, bits, mask_of, neighborhood
from .search import (
    Analysis,
    BergePath,
    SearchError,
    analyze,
    find_berge_cycle,
    iter_longest_paths,
    validate_path,
)
from .weights import _f_any


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


def is_good_set(hg: Hypergraph | Analysis, vertex_set: int) -> GoodSetCertificate | None:
    """Certificate if ``vertex_set`` is good in ``hg``, else None.

    Requires r >= 3 and at least one edge (so the longest-path length k
    is at least 1). The empty set is rejected outright.
    """
    a = analyze(hg)
    hg = a.hg
    if hg.r < 3:
        raise GoodSetError(f"good sets need r >= 3, got r={hg.r}")
    if hg.num_edges == 0:
        raise GoodSetError("good sets are undefined on edgeless hypergraphs")
    if vertex_set == 0:
        raise GoodSetError("the empty set is never good")
    if vertex_set & ~hg.vertex_mask:
        raise GoodSetError("vertex set contains ids >= n")
    k = a.k
    ns = 0
    for i, e in enumerate(hg.edges):
        if e & vertex_set:
            ns |= 1 << i
    if ns & ~a.max_p_mask:
        return None
    bound = _f_any(hg.r, k) * vertex_set.bit_count()
    if ns.bit_count() > bound:
        return None
    return GoodSetCertificate(
        S=vertex_set,
        k=k,
        NS=tuple(bits(ns)),
        bound=bound,
    )


def enumerate_good_sets(hg: Hypergraph | Analysis) -> Iterator[GoodSetCertificate]:
    """All good sets in increasing bitmask order by full subset scan.

    Preconditions are validated eagerly; the scan itself is lazy.
    """
    a = analyze(hg)
    hg = a.hg
    if hg.n > 20:
        raise GoodSetError(f"subset scan over 2^{hg.n} sets refused (n > 20)")
    if hg.r < 3:
        raise GoodSetError(f"good sets need r >= 3, got r={hg.r}")
    if hg.num_edges == 0:
        raise GoodSetError("good sets are undefined on edgeless hypergraphs")

    def scan() -> Iterator[GoodSetCertificate]:
        for s in range(1, 1 << hg.n):
            cert = is_good_set(a, s)
            if cert is not None:
                yield cert

    return scan()


@dataclass(frozen=True)
class RotationFamily:
    """Terminal set reached by rotations of one base path, with witnesses.

    Every witness uses exactly the defining vertices and edges of
    ``base`` and keeps ``fixed_end`` as one terminal; ``witnesses`` maps
    each reachable far terminal to one realizing path. ``bound_lhs`` is
    the number of base-path edges meeting the terminal set and is at most
    ``bound_rhs`` = 2 |terminals| - 1.
    """

    base: BergePath
    fixed_end: int
    terminals: int
    witnesses: dict[int, BergePath]
    bound_lhs: int
    bound_rhs: int


def rotation_closure(hg: Hypergraph, path: BergePath, fixed_end: int) -> RotationFamily:
    """Grow the terminal set of ``path`` to its rotation fixpoint.

    Repair step: take the lowest segment index j whose flanking vertices
    v_{j-1}, v_j both lie outside the current terminal set but whose edge
    e_j contains a terminal t; split t's witness at that segment and
    reattach the tail reversed through e_j, which makes the inner
    flanking vertex a new terminal. Violations are processed in
    increasing (segment index, terminal id) order for determinism;
    terminals grow strictly, so this stops after at most length(P) steps.
    """
    validate_path(hg, path)
    if fixed_end == path.vertices[-1] and fixed_end != path.vertices[0]:
        path = BergePath(tuple(reversed(path.vertices)), tuple(reversed(path.edges)))
    if fixed_end != path.vertices[0]:
        raise SearchError(f"fixed_end {fixed_end} is not a terminal of the path")

    base = path
    vs, es = base.vertices, base.edges
    length = len(es)
    far = vs[-1]
    witnesses: dict[int, BergePath] = {far: base}
    terminals = 1 << far

    while True:
        repaired = False
        for j in range(length):
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
            if {x, y} != {a, b}:
                raise AssertionError(
                    "rotation invariant broken: segment drifted off its edge"
                )
            new_vs = q.vertices[: pos + 1] + tuple(reversed(q.vertices[pos + 1 :]))
            new_es = q.edges[:pos] + (ej,) + tuple(reversed(q.edges[pos + 1 :]))
            rotated = BergePath(new_vs, new_es)
            if __debug__:
                validate_path(hg, rotated)
                assert set(rotated.vertices) == set(vs)
                assert set(rotated.edges) == set(es)
                assert rotated.vertices[0] == fixed_end
            witnesses[y] = rotated
            terminals |= 1 << y
            repaired = True
            break
        if not repaired:
            break

    lhs = len(neighborhood(hg, es, terminals))
    rhs = 2 * terminals.bit_count() - 1
    return RotationFamily(
        base=base,
        fixed_end=fixed_end,
        terminals=terminals,
        witnesses=witnesses,
        bound_lhs=lhs,
        bound_rhs=rhs,
    )


def find_good_set(hg: Hypergraph | Analysis) -> GoodSetCertificate:
    """A good set of a connected hypergraph with r >= 3 and an edge.

    Attempts, in order: the whole vertex set when a (k+1)-cycle exists;
    rotation-closure terminal sets over maximum-length paths, preferring
    the smallest accepted set (ties by bitmask); an exhaustive subset
    scan as a last resort. A single-edge hypergraph (k = 1 connected
    means n = r) short-circuits to S = the edge.
    """
    a = analyze(hg)
    hg = a.hg
    if hg.r < 3:
        raise GoodSetError(f"good sets need r >= 3, got r={hg.r}")
    if hg.num_edges == 0:
        raise GoodSetError("good sets are undefined on edgeless hypergraphs")
    if not a.connected:
        raise GoodSetError("find_good_set expects a connected hypergraph; split into components first")

    k = a.k
    if k == 1:
        cert = is_good_set(a, hg.edges[0])
        assert cert is not None, "a lone edge is always good: |N(S)| = 1 = f_r(1) r"
        return cert

    cycle = find_berge_cycle(a, k + 1)
    if cycle is not None:
        cert = is_good_set(a, hg.vertex_mask)
        assert cert is not None, "a spanning (k+1)-cycle forces V(H) to be good"
        return cert

    candidates = []
    seen = set()
    for path in iter_longest_paths(a):
        family = rotation_closure(hg, path, path.vertices[0])
        tau = family.terminals
        if tau in seen:
            continue
        seen.add(tau)
        cert = is_good_set(a, tau)
        if cert is not None:
            candidates.append(cert)
    if candidates:
        return min(candidates, key=lambda c: (c.size, c.S))

    if hg.n > 20:
        raise GoodSetError("rotation routes failed and n > 20 blocks the subset scan")
    for cert in enumerate_good_sets(a):
        return cert
    raise AssertionError("no good set found; contradicts the existence theorems")


@dataclass(frozen=True)
class SpanningCycleReport:
    """Outcome of the spanning-cycle property check on one hypergraph.

    When a (k+1)-cycle exists its defining vertices must be all of V(H)
    and every edge must satisfy p(e) = k; vacuously passing otherwise.
    A failure would indicate a search bug, not a mathematical gap.
    """

    k: int
    cycle_found: bool
    spans: bool | None
    all_p_equal_k: bool | None
    passed: bool
    detail: str


def check_spanning_cycle_property(hg: Hypergraph | Analysis) -> SpanningCycleReport:
    a = analyze(hg)
    if not a.connected:
        raise GoodSetError("spanning-cycle property applies to connected hypergraphs")
    k = a.k
    if k + 1 < 2:
        return SpanningCycleReport(k, False, None, None, True, "no edges, vacuous")
    cycle = find_berge_cycle(a, k + 1)
    if cycle is None:
        return SpanningCycleReport(k, False, None, None, True, "no (k+1)-cycle, vacuous")
    spans = mask_of(cycle.vertices) == a.hg.vertex_mask
    all_max = a.max_p_mask == (1 << a.hg.num_edges) - 1
    passed = spans and all_max
    detail = "ok" if passed else (
        f"cycle {cycle.vertices} spans={spans} all_p_equal_k={all_max}"
    )
    return SpanningCycleReport(k, True, spans, all_max, passed, detail)
