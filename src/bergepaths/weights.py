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

from .hypergraph import (
    MAX_EDGE_SLOTS,
    Hypergraph,
    HypergraphError,
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
    return _f_any(r, x)


def _f_any(r: int, x: int) -> Fraction:
    # shared with the r=2 weight sums, where the branches collapse to x/2
    if x == 1:
        return Fraction(1, r)
    if x <= r - 1:
        return Fraction(x, r + 1)
    return Fraction(comb(x, r - 1), r)


@dataclass(frozen=True)
class EdgeWeight:
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
    vertex count != r+1.
    """
    a = analyze(hg)
    if a.hg.r == 2:
        return OUT_OF_SCOPE_R2
    kinds = []
    for comp, _ in a.components:
        kind = _component_matches(comp.n, comp.num_edges, a.hg.r)
        if kind is None:
            return NOT_EXTREMAL
        kinds.append(kind)
    if not kinds:
        return CASE_II
    return CASE_I if CASE_I in kinds else CASE_II


def weight_report(hg: Hypergraph | Analysis) -> WeightReport:
    """Per-edge weights, the exact reciprocal sum, and the equality class.

    For r = 2 the sum is still computed (the branches degenerate to
    f(x) = x/2) but classification reports out_of_scope_r2.
    """
    a = analyze(hg)
    hg = a.hg
    per_edge = []
    total = Fraction(0)
    for i, p in enumerate(a.p_values):
        f = _f_any(hg.r, p)
        inv = 1 / f
        per_edge.append(EdgeWeight(i, p, f, inv))
        total += inv
    return WeightReport(
        per_edge=tuple(per_edge),
        total=total,
        bound=hg.n,
        is_equality=total == hg.n,
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


def turan_exact(n: int, r: int, k: int) -> TuranResult:
    """Maximum edge count of an n-vertex r-uniform hypergraph with no
    Berge path of length k, by branch and bound over edge subsets.

    Containing a length-k path is monotone under adding edges: every new
    path must use the added edge, so a branch is abandoned as soon as
    including an edge creates one. The bound n*f_r(k-1) applies for
    2 < k <= r and for k >= r+1.
    """
    if r < 3:
        raise ValueError(f"turan_exact requires r >= 3, got r={r}")
    if k < 2:
        raise ValueError(f"turan_exact requires k >= 2, got k={k}")
    slots = possible_edges(n, r)
    if len(slots) > MAX_EDGE_SLOTS:
        raise HypergraphError(
            f"C({n},{r}) = {len(slots)} edge slots exceed cap {MAX_EDGE_SLOTS}"
        )
    m = len(slots)
    full = (1 << m) - 1
    pool = analyze(Hypergraph(n, r, slots))
    best_count = -1
    best_subset = 0

    def dfs(idx: int, chosen: int, count: int) -> None:
        nonlocal best_count, best_subset
        if count > best_count:
            best_count = count
            best_subset = chosen
        if idx == m or count + (m - idx) <= best_count:
            return
        with_idx = chosen | (1 << idx)
        creates = (
            _max_len(
                pool,
                required_edge=idx,
                stop_at=k,
                floor=k - 1,
                excluded_edges=full & ~with_idx,
            )
            >= k
        )
        if not creates:
            dfs(idx + 1, with_idx, count + 1)
        dfs(idx + 1, chosen, count)

    dfs(0, 0, 0)
    return TuranResult(
        n=n,
        r=r,
        k=k,
        exact=best_count,
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
