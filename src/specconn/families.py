"""Constructors for the extremal graph families and the case dispatcher.

Every family is a join of cliques, possibly with one distinguished pendant
vertex u of prescribed degree delta wired into named parts. Labeling is
fixed so output is reproducible: u (when present) is vertex 0, then the join
core, then the big clique, then the small parts in order; pendant edges
always attach to the lowest-labeled vertices of their target part (all
choices are isomorphic by part symmetry).

With m = n - (r-1)(g+1) - k:

  delta0      K_1 + (K_{k-1} v (K_m u (r-1)K_{g+1})), u joined to delta
              core vertices
  deltamg-g   K_1 + (K_k v (K_m u (r-2)K_{g+1} u K_g)), u joined to delta-g
              core vertices and all g vertices of the K_g part
  km1         K_1 + (K_{k-1} v (K_m u (r-1)K_{g+1})), u joined to the whole
              core and delta-k+1 big-clique vertices
  zero-delta  K_1 + (K_{m0} u (r-1)K_{g+1}) with m0 = n-(r-1)(g+1)-1, u
              joined to delta-r+1 big-clique vertices and one vertex of each
              small part (k = 1)
  join-vi     K_k v (K_M u (r-1)K_{delta-k+1}) with M = n-k-(delta-k+1)(r-1)

Each family carries a size-k witness cut (the core, plus u when u's whole
neighborhood lies in the core) whose removal leaves r components with all
residual degrees >= g.
"""

from dataclasses import dataclass
from enum import Enum

from .connectivity import CutMode, CutQuery, is_valid_cut
from .graphs import Graph, from_edges, mask_of


class Family(str, Enum):
    DELTA_0 = "delta0"
    DELTAMG_G = "deltamg-g"
    KM1_DMKP1 = "km1"
    ZERO_DELTA = "zero-delta"
    JOIN_VI = "join-vi"


FAMILY_IDS = {f.value: f for f in Family}


class InfeasibleFamilyError(ValueError):
    """Requested family parameters violate named feasibility constraints."""

    def __init__(self, params, violations):
        self.params = params
        self.violations = tuple(violations)
        super().__init__(f"{params}: " + "; ".join(violations))


@dataclass(frozen=True)
class FamilyParams:
    family: Family
    n: int
    k: int
    delta: int
    g: int
    r: int


def feasibility_violations(p: FamilyParams) -> list[str]:
    """Named constraint violations; empty means constructible."""
    bad = []
    if p.k < 1:
        bad.append("k >= 1 required")
    if p.delta < 1:
        bad.append("delta >= 1 required")
    if p.g < 0:
        bad.append("g >= 0 required")
    if p.r < 2:
        bad.append("r >= 2 required")
    if bad:
        return bad
    if p.n < p.k + p.r * (p.g + 1):
        bad.append(f"n >= k + r(g+1) required (n={p.n} < {p.k + p.r * (p.g + 1)})")
    f = p.family
    if f is Family.DELTA_0:
        if p.delta > p.k - 1:
            bad.append("delta <= k-1 required for delta0")
        if p.g < 1:
            bad.append("g >= 1 required for delta0 (with g = 0 the pendant "
                       "vertex's chosen core is a smaller cut)")
    elif f is Family.DELTAMG_G:
        if p.delta < p.g:
            bad.append("delta >= g required for deltamg-g")
        if p.delta - p.g > p.k:
            bad.append("delta-g <= k required for deltamg-g")
        if p.g == 0 and p.delta != p.k:
            bad.append("delta = k required for deltamg-g when g = 0 (otherwise "
                       "the pendant vertex's chosen core is a smaller cut)")
    elif f is Family.KM1_DMKP1:
        if not 2 <= p.k <= p.delta:
            bad.append("2 <= k <= delta required for km1")
        if p.delta >= p.g:
            bad.append("delta < g required for km1")
        if p.delta - p.k + 1 > p.n - (p.r - 1) * (p.g + 1) - p.k:
            bad.append("delta-k+1 <= n-(r-1)(g+1)-k required for km1")
    elif f is Family.ZERO_DELTA:
        if p.k != 1:
            bad.append("k = 1 required for zero-delta")
        if p.delta < p.r:
            bad.append("delta >= r required for zero-delta")
        if p.delta >= p.g:
            bad.append("delta < g required for zero-delta")
    elif f is Family.JOIN_VI:
        if p.delta < p.g + p.k:
            bad.append("delta >= g+k required for join-vi")
        if p.n - p.k - (p.delta - p.k + 1) * (p.r - 1) < p.delta - p.k + 1:
            bad.append("big part >= delta-k+1 required for join-vi")
    return bad


def _check(p: FamilyParams) -> None:
    bad = feasibility_violations(p)
    if bad:
        raise InfeasibleFamilyError(p, bad)


def _ranges(start: int, sizes: list[int]) -> list[range]:
    out = []
    for size in sizes:
        out.append(range(start, start + size))
        start += size
    return out


def _clique_edges(rng: range):
    vs = list(rng)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            yield (u, v)


def construct(p: FamilyParams) -> Graph:
    """Build the labeled family graph (order n, min degree exactly delta)."""
    _check(p)
    n, k, delta, g, r = p.n, p.k, p.delta, p.g, p.r
    m = n - (r - 1) * (g + 1) - k
    edges: list[tuple[int, int]] = []

    def join_all(core: range, parts: list[range]):
        for u in core:
            for part in parts:
                for v in part:
                    edges.append((u, v))

    if p.family is Family.DELTA_0:
        core, big, *smalls = _ranges(1, [k - 1, m] + [g + 1] * (r - 1))
        for part in (core, big, *smalls):
            edges.extend(_clique_edges(part))
        join_all(core, [big, *smalls])
        edges.extend((0, w) for w in list(core)[:delta])
    elif p.family is Family.DELTAMG_G:
        core, big, *rest = _ranges(1, [k, m] + [g + 1] * (r - 2) + [g])
        gpart = rest[-1]
        smalls = rest[:-1]
        for part in (core, big, *rest):
            edges.extend(_clique_edges(part))
        join_all(core, [big, *rest])
        edges.extend((0, w) for w in list(core)[: delta - g])
        edges.extend((0, w) for w in gpart)
    elif p.family is Family.KM1_DMKP1:
        core, big, *smalls = _ranges(1, [k - 1, m] + [g + 1] * (r - 1))
        for part in (core, big, *smalls):
            edges.extend(_clique_edges(part))
        join_all(core, [big, *smalls])
        edges.extend((0, w) for w in core)
        edges.extend((0, w) for w in list(big)[: delta - k + 1])
    elif p.family is Family.ZERO_DELTA:
        m0 = n - (r - 1) * (g + 1) - 1
        big, *smalls = _ranges(1, [m0] + [g + 1] * (r - 1))
        for part in (big, *smalls):
            edges.extend(_clique_edges(part))
        edges.extend((0, w) for w in list(big)[: delta - r + 1])
        edges.extend((0, part[0]) for part in smalls)
    else:  # JOIN_VI
        small = delta - k + 1
        big_size = n - k - small * (r - 1)
        core, big, *smalls = _ranges(0, [k, big_size] + [small] * (r - 1))
        for part in (core, big, *smalls):
            edges.extend(_clique_edges(part))
        join_all(core, [big, *smalls])
    return from_edges(n, edges)


def witness_cut(p: FamilyParams) -> int:
    """The size-k cut certifying class membership of the family graph."""
    _check(p)
    if p.family in (Family.DELTA_0, Family.KM1_DMKP1):
        return mask_of(range(0, p.k))  # u plus the k-1 core vertices
    if p.family is Family.DELTAMG_G:
        return mask_of(range(1, p.k + 1))
    if p.family is Family.ZERO_DELTA:
        return 1
    return mask_of(range(0, p.k))  # JOIN_VI core


def verify_witness(p: FamilyParams) -> bool:
    cert = is_valid_cut(construct(p), witness_cut(p), CutQuery(p.g, p.r, CutMode.FULL))
    return cert is not None and cert.size == p.k


def extremal_family_for(k: int, delta: int, g: int) -> Family:
    """Which family maximizes rho on the class with these parameters.

    The five predicates partition the whole (k, delta, g) space; the chain
    below is total, and tests assert exactly one regime matches every cell.
    """
    if delta >= g + k:
        return Family.JOIN_VI
    if k > delta:
        return Family.DELTA_0 if delta < g else Family.DELTAMG_G
    if delta < g:
        return Family.KM1_DMKP1 if k >= 2 else Family.ZERO_DELTA
    return Family.DELTAMG_G


def claimed_extremal(n: int, k: int, delta: int, g: int, r: int) -> FamilyParams:
    """Parameters of the family claimed to maximize rho over the class.

    Requires the hypothesis n >= k + r(g+1); outside it no claim is made.
    """
    if n < k + r * (g + 1):
        raise ValueError(
            f"class (n={n}, k={k}, g={g}, r={r}) is outside the hypothesis "
            f"n >= k + r(g+1)"
        )
    return FamilyParams(extremal_family_for(k, delta, g), n, k, delta, g, r)
