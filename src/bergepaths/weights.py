"""Exact-rational edge weights, the localized weight-sum bound, Turan numbers.

Each edge e carries the weight f_r(p(e)) where p(e) is the longest Berge
path through e and f_r is the piecewise normalizer

    f_r(1) = 1/r,   f_r(x) = x/(r+1) for 1 < x <= r-1,
    f_r(x) = C(x, r-1)/r for x >= r,

strictly increasing in x for r >= 3. The reciprocal weights of an
n-vertex r-uniform hypergraph sum to at most n, with equality exactly on
a small structural family; everything here is decided in exact rational
arithmetic, never by floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .hypergraph import (
    MAX_EDGE_SLOTS,
    Hypergraph,
    HypergraphError,
    bits,
    hypergraph_from_subset,
    possible_edges,
)
from .search import Analysis, _max_len, analyze

CASE_I = "case_i"
CASE_II = "case_ii"
NOT_EXTREMAL = "not_extremal"
OUT_OF_SCOPE_R2 = "out_of_scope_r2"


def format_fraction(q: Fraction) -> str:
    """Rationals serialize as "p/q" strings in reports, never floats."""
    return f"{q.numerator}/{q.denominator}"


def f_r(r: int, x: int) -> Fraction:
    """The weight normalizer at integer arguments x >= 1, r >= 3.

    Real arguments in (r-1, r) are left undefined by the piecewise form,
    so only integers are accepted; the gap inequality uses the
    generalized binomial instead (see :func:`gap_check`).
    """
    if r < 3:
        raise ValueError(f"f_r requires r >= 3, got r={r}")
    if x < 1:
        raise ValueError(f"f_r requires x >= 1, got x={x}")
    return Fraction(*_f_parts(r, x))


def _f_parts(r: int, x: int) -> tuple[int, int]:
    """f_r(x) as (numerator, positive denominator), not reduced. Also read
    by the r = 2 weight sums, where the branches collapse to x/2."""
    if x == 1:
        return 1, r
    if x <= r - 1:
        return x, r + 1
    return comb(x, r - 1), r


class EdgeWeight(NamedTuple):
    edge: int
    p: int
    f: Fraction
    inv_f: Fraction


@dataclass(frozen=True)
class WeightReport:
    per_edge: tuple[EdgeWeight, ...]
    total: Fraction
    bound: int
    is_equality: bool
    classification: str
    k: int


def _component_matches(n_c: int, m_c: int, r: int) -> str | None:
    """Equality-family membership of one component, or None.

    The family: a single edge on r vertices; an (r+1)-vertex component
    with 2..r-1 or r+1 edges; a complete hypergraph on >= r+2 vertices.
    A lone edge cannot span r+1 vertices, so 1 is absent from the middle
    row even though connectivity is the only obstruction.
    """
    if n_c == r and m_c == 1:
        return CASE_II
    if n_c == r + 1 and (2 <= m_c <= r - 1 or m_c == r + 1):
        return CASE_I
    if n_c >= r + 2 and m_c == comb(n_c, r):
        return CASE_II
    return None


def classify_structure(hg: Hypergraph | Analysis) -> str:
    """Structural classification by the per-component equality truth table.

    Independent of the exact weight sum; the sweeps verify the two agree.
    An instance is case_i when some component is the sporadic
    (r+1)-vertex kind, case_ii when all components are complete with
    vertex count != r+1. A component's edges are those at its vertices.
    """
    a = analyze(hg)
    r, inc = a.r, a.incidence
    if r == 2:
        return OUT_OF_SCOPE_R2
    kinds = []
    for mask in a.components:
        es = 0
        for v in bits(mask):
            es |= inc[v]
        kind = _component_matches(mask.bit_count(), es.bit_count(), r)
        if kind is None:
            return NOT_EXTREMAL
        kinds.append(kind)
    if not kinds:
        return CASE_II
    return CASE_I if CASE_I in kinds else CASE_II


def weight_sum(hg: Hypergraph | Analysis) -> tuple[int, int]:
    """The exact sum of 1/f_r(p(e)) over the edges as (numerator, positive
    denominator), not reduced: one term count * den / num per distinct p."""
    a = analyze(hg)
    r, ps = a.r, a.p_values
    total_num, total_den = 0, 1
    for p in set(ps):
        num, den = _f_parts(r, p)
        total_num = total_num * num + ps.count(p) * den * total_den
        total_den *= num
    return total_num, total_den


def weight_report(hg: Hypergraph | Analysis) -> WeightReport:
    """Per-edge weights, the exact reciprocal sum, and the equality class.

    For r = 2 the sum is still computed (the branches degenerate to
    f(x) = x/2) but classification reports out_of_scope_r2.
    """
    a = analyze(hg)
    # at most n - 1 distinct p values: one f and 1/f per value, shared
    table = {}
    for p in set(a.p_values):
        num, den = _f_parts(a.r, p)
        table[p] = (Fraction(num, den), Fraction(den, num))
    total = Fraction(*weight_sum(a))
    return WeightReport(
        per_edge=tuple(EdgeWeight(i, p, *table[p]) for i, p in enumerate(a.p_values)),
        total=total,
        bound=a.n,
        is_equality=total == a.n,
        classification=classify_structure(a),
        k=a.k,
    )


@dataclass(frozen=True)
class TuranResult:
    n: int
    r: int
    k: int
    exact: int
    paper_bound: Fraction
    witness: Hypergraph

    def faults(self) -> list[str]:
        """Why this row fails, if it does: ``exact`` over the paper's bound,
        or a witness that is not a BP_k-free set of ``exact`` edges."""
        out = []
        if self.exact > self.paper_bound:
            out.append(f"exact {self.exact} exceeds bound {format_fraction(self.paper_bound)}")
        if self.witness.num_edges != self.exact:
            out.append(f"witness has {self.witness.num_edges} edges, not {self.exact}")
        if analyze(self.witness).k >= self.k:
            out.append(f"witness has a Berge path of length {self.k}")
        return out


def turan_exact(n: int, r: int, k: int) -> TuranResult:
    """Maximum edge count of an n-vertex r-uniform hypergraph with no
    Berge path of length k, by branch and bound over edge subsets.

    Containing a length-k path is monotone under adding edges: every new
    path must use the added edge, so a branch is abandoned as soon as
    including an edge creates one. The bound n*f_r(k-1) applies for
    2 < k <= r and for k >= r+1.

    Call an edge set free when it has no Berge path of length k. Being
    free is invariant under relabelling the vertices, and the first of
    two passes uses that to find the exact value. Any one edge can be
    relabelled to slot 0 = {0..r-1}, and one edge alone is free as k >= 2,
    so ``exact`` >= 1 once there is a slot. A free set with
    two or more edges has a pair meeting in the most vertices, t; the
    stabilizer of slot 0 acts transitively on the slots meeting it in t
    vertices, so that pair can be relabelled to slot 0 and c_t, the least
    slot meeting slot 0 in exactly t vertices. ``exact`` is therefore the
    best of 1 and, for each t in r-1..0 that has a c_t, the largest free
    set holding slot 0 and c_t whose edges pairwise meet in at most t
    vertices.

    The second pass recovers the witness of the plain search over every
    labelled subset: slots in order, including each before excluding it,
    keeping the first set larger than all before it. That set is the
    first one of ``exact`` edges in this preorder, so the pass searches
    with the target ``exact`` and stops at its first hit.
    """
    if r < 3:
        raise ValueError(f"turan_exact requires r >= 3, got r={r}")
    if k < 2:
        raise ValueError(f"turan_exact requires k >= 2, got k={k}")
    if comb(n, r) > MAX_EDGE_SLOTS:
        raise HypergraphError(
            f"C({n},{r}) = {comb(n, r)} edge slots exceed cap {MAX_EDGE_SLOTS}"
        )
    slots = possible_edges(n, r)
    m = len(slots)
    full = (1 << m) - 1
    pool = analyze(Hypergraph(n, r, slots))
    best_count = min(m, 1)  # one edge alone is free, as k >= 2
    best_subset = 0

    def free(chosen: int) -> bool:
        # No path is longer than min(|chosen|, n - 1), so a shorter reach
        # is free with no search. Else chosen less its newest slot holds no
        # length-k path, so every length-k path of chosen uses that slot.
        # The search still seeds from vertices, not from the slot: these
        # queries mostly refute a path, and refuting one grown outward from
        # the slot visits every (suffix, prefix) pair around it.
        if min(chosen.bit_count(), n - 1) < k:
            return True
        return _max_len(pool, stop_at=k, excluded_edges=full & ~chosen)[0] < k

    def grow(avail: int, chosen: int, count: int, conflicts: list[int], goal: int) -> bool:
        # Visits the free supersets of chosen within avail, lowest slot
        # first and included before excluded; conflicts[i] holds the slots
        # that may not join slot i. True once a set of goal edges is found.
        nonlocal best_count, best_subset
        if count > best_count:
            best_count = count
            best_subset = chosen
            if count >= goal:
                return True
        if count + avail.bit_count() <= best_count:
            return False
        low = avail & -avail
        rest = avail ^ low
        with_low = chosen | low
        if free(with_low):
            i = low.bit_length() - 1
            if grow(rest & ~conflicts[i], with_low, count + 1, conflicts, goal):
                return True
        return grow(rest, chosen, count, conflicts, goal)

    for t in range(r - 1, -1, -1):
        c_t = next((i for i in range(m) if (slots[i] & slots[0]).bit_count() == t), None)
        if c_t is None or not free(pair := 1 | 1 << c_t):
            continue
        conflicts = [
            sum(1 << j for j in range(m) if (slots[i] & slots[j]).bit_count() > t)
            for i in range(m)
        ]
        grow(full & ~pair & ~conflicts[0] & ~conflicts[c_t], pair, 2, conflicts, m)
    exact = best_count
    best_count = -1
    grow(full, 0, 0, [0] * m, exact)
    return TuranResult(
        n=n,
        r=r,
        k=k,
        exact=exact,
        paper_bound=n * f_r(r, k - 1),
        witness=hypergraph_from_subset(n, r, slots, best_subset),
    )


@dataclass(frozen=True)
class GapCheckResult:
    r: int
    k: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    in_domain: bool

    @property
    def is_equality(self) -> bool:
        return self.lhs == self.rhs


def falling_factorial(x: Fraction, m: int) -> Fraction:
    """(x)_m = x (x-1) ... (x-m+1) over exact rationals."""
    out = Fraction(1)
    for i in range(m):
        out *= x - i
    return out


def gap_domain(r: int, k: int) -> bool:
    """Stated domain of the gap inequality: k >= r+1 >= 5, or k >= r+3 = 6."""
    return (r >= 4 and k >= r + 1) or (r == 3 and k >= 6)


def gap_check(r: int, k: int) -> GapCheckResult:
    """Compare f_r(k) - 2 against the generalized binomial C(k/2, r-1).

    The right side uses the falling factorial at the half-integer k/2,
    evaluated exactly. Inside the stated domain the inequality must hold;
    outside it both sides are still evaluated but flagged.
    """
    if r < 3:
        raise ValueError(f"gap_check requires r >= 3, got r={r}")
    if k < 1:
        raise ValueError(f"gap_check requires k >= 1, got k={k}")
    lhs = f_r(r, k) - 2
    rhs = falling_factorial(Fraction(k, 2), r - 1) / factorial(r - 1)
    return GapCheckResult(
        r=r, k=k, lhs=lhs, rhs=rhs, holds=lhs >= rhs, in_domain=gap_domain(r, k)
    )
